#include "xmem/xmem_harness.hh"

#include <cstdlib>

#include "obs/span.hh"
#include "sim/system.hh"
#include "util/fanout.hh"
#include "util/logging.hh"
#include "util/stats.hh"

namespace lll::xmem
{

namespace
{

/** Path latency (ns) a demand miss pays in the cache hierarchy before
 *  reaching the memory controller. */
double
cachePathNs(const sim::SystemParams &sp)
{
    Tick path = sp.l1.accessLat + sp.l2.accessLat;
    if (sp.hasL3)
        path += sp.l3.accessLat;
    return ticksToNs(path);
}

} // namespace

LatencyProfile
XMemHarness::measure(const platforms::Platform &platform) const
{
    obs::ScopedSpan span("xmem.characterize[" + platform.name + "]");
    const double path_ns = cachePathNs(platform.proto);

    struct OperatingPoint
    {
        unsigned window;
        double delayCycles;
        bool streaming;
    };
    std::vector<OperatingPoint> plan;
    // Low-bandwidth points: a single in-flight request per core with
    // decreasing think time.
    for (double d : params_.delays)
        plan.push_back({2, d, false});
    // Ramp random-access concurrency toward the L1-MSHR ceiling.
    for (unsigned w : params_.windows)
        plan.push_back({w, 4.0, false});
    // Streaming load pushes the sweep to peak achievable bandwidth;
    // throttled streaming points fill in the knee of the curve.
    for (double d : {48.0, 32.0, 24.0, 16.0, 12.0, 8.0, 6.0})
        plan.push_back({8, d, true});
    for (unsigned w : params_.windows) {
        if (w >= 4)
            plan.push_back({w, 2.0, true});
    }

    auto run_point = [&](const OperatingPoint &op) {
        sim::KernelSpec spec;
        spec.name = "xmem-load";
        if (op.streaming) {
            // High-load points: forward sequential readers, the load
            // pattern X-Mem's bandwidth threads use.  The hardware
            // prefetcher engages, which is the only way past the
            // L1-MSHR bandwidth ceiling on every platform.
            for (int i = 0; i < 4; ++i) {
                sim::StreamDesc s;
                s.kind = sim::StreamDesc::Kind::Sequential;
                s.footprintLines = (1ULL << 20) * 64 / platform.lineBytes;
                s.weight = 1.0;
                spec.streams.push_back(s);
            }
        } else {
            // Low-load points: random accesses over a buffer larger than
            // any cache (X-Mem's pointer chase), prefetcher untrained.
            sim::StreamDesc s;
            s.kind = sim::StreamDesc::Kind::Random;
            s.footprintLines = (1ULL << 21) * 64 / platform.lineBytes;
            s.weight = 1.0;
            spec.streams.push_back(s);
        }
        spec.window = op.window;
        spec.computeCyclesPerOp = op.delayCycles;

        sim::SystemParams sp = platform.sysParams(platform.totalCores, 1);
        sp.seed = params_.seed;
        sim::System sys(sp, spec);
        sim::RunResult r = sys.run(params_.warmupUs, params_.measureUs);

        LatencyProfile::Point pt;
        pt.bwGBs = r.totalGBs;
        pt.latencyNs = path_ns + r.avgMemLatencyNs;
        return pt;
    };

    // Every point simulates a private System from the same seed, so
    // the points are independent: fan them out, write each by index
    // and merge the workers' spans in plan order under this one.
    std::vector<LatencyProfile::Point> points(plan.size());
    std::vector<std::vector<obs::SpanTracker::Stat>> spans(plan.size());
    util::fanOut(plan.size(), params_.jobs, [&](size_t i) {
        spans[i] = obs::SpanTracker::capture(
            [&] { points[i] = run_point(plan[i]); });
    });
    for (const std::vector<obs::SpanTracker::Stat> &s : spans)
        obs::SpanTracker::global().merge(s);

    return LatencyProfile(platform.name, platform.peakGBs,
                          std::move(points));
}

util::Result<LatencyProfile>
XMemHarness::measureCachedChecked(const platforms::Platform &platform,
                                  const std::string &cache_path) const
{
    util::Result<LatencyProfile> cached = LatencyProfile::load(cache_path);
    if (cached.ok()) {
        if (cached->platformName() == platform.name)
            return cached;
        lll_warn("profile at '%s' is for platform '%s', remeasuring",
                 cache_path.c_str(), cached->platformName().c_str());
    } else if (cached.status().code() != util::ErrorCode::NotFound) {
        // Corrupt or unreadable cache: surface it instead of silently
        // measuring over it (`lll characterize <plat> --fresh` rebuilds).
        return cached.status().withContext(
            "cached profile for '%s' is unusable (delete it or rerun "
            "with --fresh)",
            platform.name.c_str());
    }
    LatencyProfile fresh = measure(platform);
    LLL_RETURN_IF_ERROR(fresh.save(cache_path).withContext(
        "caching profile for '%s'", platform.name.c_str()));
    return fresh;
}

std::string
defaultProfilePath(const platforms::Platform &platform)
{
    const char *dir = std::getenv("LLL_PROFILE_DIR");
    std::string base = dir ? dir : "data/profiles";
    // Design-space candidates ("skl~banks=8,...") are cache artifacts,
    // not stock-platform truth: keep them in their own subdirectory so
    // the committed profiles stay alone in the top level.
    if (platform.name.find('~') != std::string::npos)
        base += "/candidates";
    return base + "/" + platform.name + ".profile";
}

} // namespace lll::xmem
