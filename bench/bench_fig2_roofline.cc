/**
 * @file
 * Regenerates paper Figure 2: the roofline for ISx on KNL with the
 * additional ceiling imposed by the L1 MSHR queue.
 *
 * The paper draws a second bandwidth roof at 256 GB/s — the most the 64
 * cores' 12 L1 MSHRs can sustain at the loaded latency — and shows the
 * baseline point O pinned under it while the L2-prefetch-optimized point
 * O1 breaks through toward the 400 GB/s MCDRAM roof.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "core/roofline.hh"
#include "util/table.hh"

int
main()
{
    using namespace lll;
    using workloads::Opt;
    using workloads::OptSet;

    platforms::Platform knl = bench::platformFor("knl");
    xmem::LatencyProfile profile = bench::profileFor(knl);
    core::Roofline roof(knl, profile);

    const int cores = knl.totalCores;
    double l1_bw = roof.mshrCeilingGBs(core::MshrLevel::L1, cores);
    double l2_bw = roof.mshrCeilingGBs(core::MshrLevel::L2, cores);

    std::printf("Figure 2 — roofline, ISx on KNL\n");
    std::printf("  peak performance        : %.0f GFlop/s (paper: 2867)\n",
                roof.peakGFlops());
    std::printf("  memory roof             : %.0f GB/s   (paper: 400)\n",
                roof.peakGBs());
    std::printf("  L1-MSHR ceiling         : %.0f GB/s   (paper: ~256)\n",
                l1_bw);
    std::printf("  L2-MSHR ceiling         : %.0f GB/s\n", l2_bw);
    std::printf("  ridge intensity         : %.2f flop/byte\n\n",
                roof.ridgeIntensity());

    // The measured application points.  ISx does little floating-point
    // work; like the paper we place the points by achieved bandwidth at
    // a nominal intensity (flops per byte moved).
    workloads::WorkloadPtr isx = bench::workloadFor("isx");
    core::Experiment exp(knl, *isx, profile);
    OptSet base;
    OptSet opt = base.with(Opt::Vectorize).with(Opt::Smt2)
                     .with(Opt::SwPrefetchL2);
    const core::StageMetrics &o = exp.stage(base);
    const core::StageMetrics &o1 = exp.stage(opt);
    const double intensity = 0.25;   // nominal flops/byte for ISx
    std::printf("  point O  (base)         : BW %.0f GB/s -> %.1f "
                "GFlop/s at %.2f flop/byte (n_avg %.2f)\n",
                o.analysis.bwGBs, o.analysis.bwGBs * intensity, intensity,
                o.analysis.nAvg);
    std::printf("  point O1 (+vect,2ht,pref): BW %.0f GB/s -> %.1f "
                "GFlop/s at %.2f flop/byte (n_avg %.2f)\n\n",
                o1.analysis.bwGBs, o1.analysis.bwGBs * intensity,
                intensity, o1.analysis.nAvg);

    Table t({"intensity (flop/B)", "classic roof (GF/s)",
             "L1-MSHR roof (GF/s)", "L2-MSHR roof (GF/s)"});
    t.setCaption("Roofline series (log-spaced)");
    for (const core::Roofline::SeriesPoint &pt :
         roof.series(1.0 / 16.0, 64.0, 23, cores)) {
        t.addRow({fmtDouble(pt.intensity, 3),
                  fmtDouble(pt.classicGFlops, 1),
                  fmtDouble(pt.l1CeilingGFlops, 1),
                  fmtDouble(pt.l2CeilingGFlops, 1)});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
