#include "obs/span.hh"

#include <utility>

#include "util/logging.hh"

namespace lll::obs
{

void
SpanTracker::begin(const std::string &name)
{
    std::string path =
        stack_.empty() ? name : stack_.back().path + "/" + name;
    stack_.push_back(Open{std::move(path), Clock::now()});
}

void
SpanTracker::end()
{
    lll_assert(!stack_.empty(), "span end() without a matching begin()");
    const Open &open = stack_.back();
    double ns = wallDeltaNs(open.start, Clock::now());
    Agg &agg = agg_[open.path];
    agg.depth = static_cast<unsigned>(stack_.size());
    ++agg.count;
    agg.wallNs += ns;
    stack_.pop_back();
}

std::vector<SpanTracker::Stat>
SpanTracker::stats() const
{
    std::vector<Stat> out;
    out.reserve(agg_.size());
    for (const auto &[path, agg] : agg_)
        out.push_back(Stat{path, agg.depth, agg.count, agg.wallNs});
    return out;
}

void
SpanTracker::merge(const std::vector<Stat> &stats)
{
    const std::string prefix =
        stack_.empty() ? std::string() : stack_.back().path + "/";
    const auto depth = static_cast<unsigned>(stack_.size());
    for (const Stat &s : stats) {
        Agg &agg = agg_[prefix + s.path];
        agg.depth = s.depth + depth;
        agg.count += s.count;
        agg.wallNs += s.wallNs;
    }
}

std::vector<SpanTracker::Stat>
SpanTracker::capture(const std::function<void()> &fn)
{
    // Set the calling thread's open spans and aggregates aside rather
    // than dropping them: fanOut() at jobs 1 runs its tasks on the
    // caller, whose `serve.run` span is still open.
    SpanTracker &tracker = global();
    SpanTracker saved = std::exchange(tracker, SpanTracker());
    fn();
    std::vector<Stat> out = tracker.stats();
    tracker = std::move(saved);
    return out;
}

void
SpanTracker::reset()
{
    stack_.clear();
    agg_.clear();
}

SpanTracker &
SpanTracker::global()
{
    thread_local SpanTracker instance;
    return instance;
}

} // namespace lll::obs
