#include "xmem/latency_profile.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>

#include "util/logging.hh"

namespace lll::xmem
{

using util::ErrorCode;
using util::Result;
using util::Status;

LatencyProfile::LatencyProfile(std::string platform_name, double peak_gbs,
                               std::vector<Point> points)
    : platformName_(std::move(platform_name)), peakGBs_(peak_gbs),
      points_(std::move(points))
{
    lll_assert(!points_.empty(), "latency profile needs at least one point");
    std::sort(points_.begin(), points_.end(),
              [](const Point &a, const Point &b) { return a.bwGBs < b.bwGBs; });
    // Enforce a physically sensible curve: latency never decreases as
    // bandwidth rises (isotonic cleanup of measurement noise).
    for (size_t i = 1; i < points_.size(); ++i) {
        points_[i].latencyNs =
            std::max(points_[i].latencyNs, points_[i - 1].latencyNs);
    }
}

double
LatencyProfile::latencyAt(double bw_gbs) const
{
    return lookup(bw_gbs).latencyNs;
}

LatencyProfile::Lookup
LatencyProfile::lookup(double bw_gbs) const
{
    lll_assert(!points_.empty(), "lookup on empty profile");
    Lookup result;
    if (bw_gbs < points_.front().bwGBs) {
        result.latencyNs = points_.front().latencyNs;
        result.belowMeasuredRange = true;
        return result;
    }
    if (bw_gbs > points_.back().bwGBs) {
        result.latencyNs = points_.back().latencyNs;
        result.aboveMeasuredRange = true;
        return result;
    }
    for (size_t i = 1; i < points_.size(); ++i) {
        if (bw_gbs <= points_[i].bwGBs) {
            const Point &a = points_[i - 1];
            const Point &b = points_[i];
            double t = b.bwGBs > a.bwGBs
                           ? (bw_gbs - a.bwGBs) / (b.bwGBs - a.bwGBs)
                           : 0.0;
            result.latencyNs = a.latencyNs + t * (b.latencyNs - a.latencyNs);
            return result;
        }
    }
    result.latencyNs = points_.back().latencyNs;
    return result;
}

double
LatencyProfile::idleLatencyNs() const
{
    lll_assert(!points_.empty(), "idleLatencyNs on empty profile");
    return points_.front().latencyNs;
}

double
LatencyProfile::minMeasuredGBs() const
{
    lll_assert(!points_.empty(), "minMeasuredGBs on empty profile");
    return points_.front().bwGBs;
}

double
LatencyProfile::maxMeasuredGBs() const
{
    lll_assert(!points_.empty(), "maxMeasuredGBs on empty profile");
    return points_.back().bwGBs;
}

std::string
LatencyProfile::serialize() const
{
    std::ostringstream out;
    out << "# lll latency profile v1\n";
    out << "platform " << platformName_ << "\n";
    out << "peak_gbs " << peakGBs_ << "\n";
    char buf[80];
    for (const Point &pt : points_) {
        std::snprintf(buf, sizeof(buf), "point %.4f %.4f\n", pt.bwGBs,
                      pt.latencyNs);
        out << buf;
    }
    return out.str();
}

Result<LatencyProfile>
LatencyProfile::parse(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    std::string name;
    double peak = 0.0;
    std::vector<Point> points;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string key;
        ls >> key;
        if (key == "platform") {
            ls >> name;
            if (name.empty()) {
                return Status::error(ErrorCode::CorruptData,
                                     "line %d: platform name missing",
                                     lineno);
            }
        } else if (key == "peak_gbs") {
            ls >> peak;
            if (ls.fail() || !std::isfinite(peak) || peak <= 0.0) {
                return Status::error(ErrorCode::CorruptData,
                                     "line %d: bad peak_gbs: '%s'", lineno,
                                     line.c_str());
            }
        } else if (key == "point") {
            Point pt{};
            ls >> pt.bwGBs >> pt.latencyNs;
            if (ls.fail() || !std::isfinite(pt.bwGBs) ||
                !std::isfinite(pt.latencyNs) || pt.bwGBs < 0.0 ||
                pt.latencyNs <= 0.0) {
                return Status::error(ErrorCode::CorruptData,
                                     "line %d: malformed profile point: "
                                     "'%s'",
                                     lineno, line.c_str());
            }
            points.push_back(pt);
        } else {
            return Status::error(ErrorCode::CorruptData,
                                 "line %d: unknown profile key: '%s'",
                                 lineno, key.c_str());
        }
    }
    if (name.empty())
        return Status::error(ErrorCode::CorruptData,
                             "incomplete latency profile: no platform");
    if (peak <= 0.0)
        return Status::error(ErrorCode::CorruptData,
                             "incomplete latency profile: no peak_gbs");
    if (points.empty())
        return Status::error(ErrorCode::CorruptData,
                             "incomplete latency profile: no points");
    return LatencyProfile(name, peak, std::move(points));
}

Status
LatencyProfile::save(const std::string &path) const
{
    std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
    }
    std::ofstream out(path);
    if (!out) {
        return Status::error(ErrorCode::IoError,
                             "cannot write latency profile to '%s'",
                             path.c_str());
    }
    out << serialize();
    out.flush();
    if (!out) {
        return Status::error(ErrorCode::IoError,
                             "short write to latency profile '%s'",
                             path.c_str());
    }
    return Status::okStatus();
}

namespace
{

/**
 * The last bytes read from each recently loaded profile path and the
 * profile parsed from them, so a long-lived server that loads the same
 * file for every request reads it each time but parses it only when
 * its bytes change.  Keyed by the bytes, not mtime or inode: a rewrite
 * within the filesystem's timestamp granularity must still be seen.
 * Bounded (a search loads one profile per candidate); a full memo
 * drops its oldest entry.
 */
class ProfileMemo
{
  public:
    std::optional<LatencyProfile> find(const std::string &path,
                                       const std::string &bytes)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const Entry &e : entries_) {
            if (e.path == path && e.bytes == bytes)
                return e.profile;
        }
        return std::nullopt;
    }

    void store(const std::string &path, const std::string &bytes,
               const LatencyProfile &profile)
    {
        std::lock_guard<std::mutex> lock(mu_);
        Entry entry{path, bytes, profile};
        for (Entry &e : entries_) {
            if (e.path == path) {
                e = std::move(entry);
                return;
            }
        }
        if (entries_.size() == kCapacity)
            entries_.erase(entries_.begin());
        entries_.push_back(std::move(entry));
    }

  private:
    static constexpr size_t kCapacity = 16;

    struct Entry
    {
        std::string path;
        std::string bytes;
        LatencyProfile profile;
    };

    std::mutex mu_;
    std::vector<Entry> entries_; //!< oldest first
};

ProfileMemo &
profileMemo()
{
    static ProfileMemo memo;
    return memo;
}

} // namespace

Result<LatencyProfile>
LatencyProfile::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return Status::error(ErrorCode::NotFound,
                             "no latency profile at '%s'", path.c_str());
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) {
        return Status::error(ErrorCode::IoError,
                             "read error on latency profile '%s'",
                             path.c_str());
    }
    const std::string bytes = buf.str();
    if (std::optional<LatencyProfile> memo =
            profileMemo().find(path, bytes)) {
        return *std::move(memo);
    }
    Result<LatencyProfile> parsed = parse(bytes);
    if (!parsed.ok())
        return parsed.status().withContext("loading '%s'", path.c_str());
    profileMemo().store(path, bytes, *parsed);
    return parsed;
}

} // namespace lll::xmem
