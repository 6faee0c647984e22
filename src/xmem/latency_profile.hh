/**
 * @file
 * The bandwidth→latency profile of a processor.
 *
 * This is the artifact the paper derives from X-Mem [4]: a table of
 * (bandwidth utilization, observed loaded latency) pairs, measured once
 * per processor and thereafter used to translate a routine's measured
 * bandwidth into the average memory latency its requests experienced —
 * the lat_avg input of Equation 2.
 */

#ifndef LLL_XMEM_LATENCY_PROFILE_HH
#define LLL_XMEM_LATENCY_PROFILE_HH

#include <string>
#include <vector>

#include "util/status.hh"

namespace lll::xmem
{

/**
 * Monotone bandwidth→latency curve with linear interpolation.
 */
class LatencyProfile
{
  public:
    struct Point
    {
        double bwGBs;
        double latencyNs;
    };

    /** latencyAt() plus whether the query fell outside the measured
     *  range (the value is then a clamped extrapolation the analyzer
     *  must flag; see Analysis::warnings). */
    struct Lookup
    {
        double latencyNs = 0.0;
        bool belowMeasuredRange = false; //!< bw below the idle point
        bool aboveMeasuredRange = false; //!< bw above saturation
    };

    LatencyProfile() = default;

    /**
     * @param platform_name identifies the processor the profile was
     *        measured on
     * @param peak_gbs theoretical peak bandwidth (for pct-of-peak output)
     * @param points raw measurements; sorted and made monotone here
     */
    LatencyProfile(std::string platform_name, double peak_gbs,
                   std::vector<Point> points);

    /**
     * Observed loaded latency (ns) at bandwidth @p bw_gbs.  Clamps below
     * the first and above the last measured point.
     */
    double latencyAt(double bw_gbs) const;

    /** latencyAt() with out-of-measured-range flags. */
    Lookup lookup(double bw_gbs) const;

    /** Latency with no load — the vendor-datasheet number the paper warns
     *  is NOT usable for Equation 2. */
    double idleLatencyNs() const;

    /** Lowest bandwidth in the sweep (the idle-most measured point). */
    double minMeasuredGBs() const;

    /** Highest bandwidth the measurement achieved (peak *achievable*). */
    double maxMeasuredGBs() const;

    const std::string &platformName() const { return platformName_; }
    double peakGBs() const { return peakGBs_; }
    const std::vector<Point> &points() const { return points_; }
    bool empty() const { return points_.empty(); }

    /** Serialize to a small text format (one point per line). */
    std::string serialize() const;

    /**
     * Parse the serialize() format.  Malformed or incomplete text is a
     * CorruptData error with the offending line in the message — never
     * an empty or partially filled profile.
     */
    [[nodiscard]] static util::Result<LatencyProfile> parse(const std::string &text);

    /** Write to @p path; IoError when the file cannot be written. */
    [[nodiscard]] util::Status save(const std::string &path) const;

    /**
     * Read from @p path.  A missing file is NotFound (the "no cache
     * yet" case callers may recover from); an unreadable or corrupt
     * file is IoError/CorruptData and must be surfaced — a truncated
     * profile must never silently become latency 0 and a nonsense
     * n_avg.  The file is read on every call; a small process-wide memo
     * skips the parse when its bytes equal the last ones parsed from
     * the same path.  Thread-safe.
     */
    [[nodiscard]] static util::Result<LatencyProfile> load(const std::string &path);

  private:
    std::string platformName_;
    double peakGBs_ = 0.0;
    std::vector<Point> points_;
};

} // namespace lll::xmem

#endif // LLL_XMEM_LATENCY_PROFILE_HH
