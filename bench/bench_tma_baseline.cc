/**
 * @file
 * Reproduces the paper's §I/§II TMA baseline anecdotes:
 *
 *  - SNAP on a full SKL socket: TMA splits memory-bound time into
 *    comparable "bandwidth bound" and "latency bound" buckets (paper:
 *    27% / 23%) and reports a small average load latency, leaving the
 *    user without direction — while the MLP metric points straight at
 *    software prefetching headroom.
 *  - hpcg on SKL: at ~peak bandwidth the load-latency facility reports
 *    ~32 cycles because prefetched streaming loads dominate the mean,
 *    although the true loaded memory latency is ~180 ns.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "core/tma.hh"

static void
report(const char *name, const lll::core::TmaReport &r,
       const lll::core::Analysis &a)
{
    std::printf("%s\n", name);
    std::printf("  TMA: retiring %.0f%%  frontend %.0f%%  badspec %.0f%%  "
                "backend %.0f%%\n",
                r.retiringPct, r.frontendPct, r.badSpeculationPct,
                r.backendPct);
    std::printf("       memory bound %.0f%% (bandwidth %.0f%% / latency "
                "%.0f%%)  core bound %.0f%%\n",
                r.memoryBoundPct, r.bandwidthBoundPct, r.latencyBoundPct,
                r.coreBoundPct);
    std::printf("       avg load latency: %.0f cycles (facility view)\n",
                r.avgLoadLatencyCycles);
    std::printf("  MLP: BW %.1f GB/s -> loaded latency %.0f ns -> "
                "n_avg %.2f of %u %s MSHRs\n\n",
                a.bwGBs, a.latencyNs, a.nAvg, a.limitingMshrs,
                lll::core::mshrLevelName(a.limitingLevel));
}

int
main()
{
    using namespace lll;

    platforms::Platform skl = bench::platformFor("skl");
    xmem::LatencyProfile profile = bench::profileFor(skl);
    core::Tma tma(skl);

    {
        workloads::WorkloadPtr snap = bench::workloadFor("snap");
        core::Experiment exp(skl, *snap, profile);
        const core::StageMetrics &m = exp.stage({});
        report("SNAP dim3_sweep on SKL (paper: TMA 27% bw / 23% lat "
               "bound; prefetching still helps)",
               tma.analyze(m.run), m.analysis);
    }
    {
        workloads::WorkloadPtr hpcg = bench::workloadFor("hpcg");
        core::Experiment exp(skl, *hpcg, profile);
        const core::StageMetrics &m = exp.stage({});
        core::TmaReport r = tma.analyze(m.run);
        report("hpcg on SKL (paper: facility reports ~32 cycles at full "
               "bandwidth; true loaded latency ~378 cycles)",
               r, m.analysis);
        std::printf("  contrast: facility mean %.0f cycles vs true loaded "
                    "latency %.0f cycles\n",
                    r.avgLoadLatencyCycles,
                    m.analysis.latencyNs * skl.freqGHz);
    }
    return 0;
}
