/**
 * @file
 * Prints the X-Mem-style bandwidth→latency profiles for the three
 * platforms (the paper's once-per-processor characterization input —
 * §IV preamble).  Measures and caches them on first run.
 */

#include <cstdio>

#include "bench_common.hh"
#include "util/table.hh"

int
main()
{
    using namespace lll;
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        xmem::LatencyProfile profile = bench::profileFor(p);
        Table t({"BW (GB/s)", "% of peak", "loaded latency (ns)"});
        t.setCaption("X-Mem profile — " + p.description +
                     " (idle " + fmtDouble(profile.idleLatencyNs(), 0) +
                     " ns, peak achievable " +
                     fmtDouble(profile.maxMeasuredGBs(), 0) + " GB/s)");
        for (const xmem::LatencyProfile::Point &pt : profile.points()) {
            t.addRow({fmtDouble(pt.bwGBs, 1),
                      fmtDouble(pt.bwGBs / p.peakGBs * 100.0, 0) + "%",
                      fmtDouble(pt.latencyNs, 1)});
        }
        std::fputs(t.render().c_str(), stdout);
        std::printf("\n");
    }
    return 0;
}
