/**
 * @file
 * Extension experiment: the §III-C/§IV-G DGEMM arc — cache tiling, then
 * unroll-and-jam (register tiling), then vectorization — with the MSHR
 * occupancy column showing why the recipe keeps green-lighting
 * compute-side optimizations: "we determine an application to be
 * compute bound in the first place if it utilizes less than peak
 * bandwidth and its MSHRQ is not full" (§IV-G).
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
    workloads::WorkloadPtr dgemm = bench::workloadFor("dgemm");

    Table t({"Proc", "Source", "BW_obs (GB/s)", "lat_avg (ns)", "n_avg",
             "Opt: measured", "paper"});
    t.setCaption("Extension — DGEMM: tiling + unroll-and-jam + "
                 "vectorization (no paper reference numbers)");
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        core::Experiment exp(p, *dgemm, bench::profileFor(p));
        for (const core::TableRow &row : exp.paperTable()) {
            std::string opt_col = row.optLabel;
            if (row.speedup > 0.0)
                opt_col += ": " + fmtSpeedup(row.speedup);
            t.addRow({p.name, row.source,
                      fmtBwPct(row.bwGBs, p.peakGBs),
                      fmtDouble(row.latencyNs, 0),
                      fmtDouble(row.nAvg, 2), opt_col, "-"});
        }
        t.addSeparator();
    }
    std::fputs(t.render().c_str(), stdout);

    // The §IV-G verdict: after the walk, bandwidth is far from peak and
    // the MSHRQ nearly empty -> genuinely compute (FLOP) bound.
    platforms::Platform skl = bench::platformFor("skl");
    core::Experiment exp(skl, *dgemm, bench::profileFor(skl));
    workloads::OptSet full = workloads::OptSet{}
                                 .with(workloads::Opt::Tiling)
                                 .with(workloads::Opt::UnrollJam)
                                 .with(workloads::Opt::Vectorize);
    const core::StageMetrics &m = exp.stage(full);
    std::printf("\nSKL fully-optimized DGEMM: %.0f%% of peak BW, n_avg "
                "%.2f of %u -> compute bound by the SIV-G test "
                "(MSHRQ far from full at low bandwidth).\n",
                m.analysis.pctPeak * 100.0, m.analysis.nAvg,
                m.analysis.limitingMshrs);
    return 0;
}
