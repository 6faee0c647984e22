/**
 * @file
 * Ablation: what happens if the analyzer uses the *idle* latency
 * (vendor-datasheet style) instead of the loaded latency from the X-Mem
 * profile — the mistake the paper explicitly warns about ("idle memory
 * latency cannot be used for this purpose").
 *
 * With idle latency, n_avg is underestimated at load, so routines that
 * are in fact pinned at an MSHR queue look like they still have
 * headroom, and the recipe would keep recommending MLP-raising
 * optimizations that cannot help.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "core/littles_law.hh"
#include "util/table.hh"

int
main()
{
    using namespace lll;

    Table t({"Proc", "Routine", "BW (GB/s)", "n_avg (loaded)",
             "n_avg (idle)", "limit", "verdict flips?"});
    t.setCaption("Ablation — loaded vs idle latency in Equation 2");

    for (const platforms::Platform &p : platforms::allPlatforms()) {
        xmem::LatencyProfile profile = bench::profileFor(p);
        for (const workloads::WorkloadPtr &w : workloads::allWorkloads()) {
            core::Experiment exp(p, *w, profile);
            const core::StageMetrics &m = exp.stage({});
            double idle = profile.idleLatencyNs();
            double n_idle = core::mlpPerCore(m.analysis.bwGBs, idle,
                                             p.lineBytes, exp.coresUsed());
            bool full_loaded =
                m.analysis.nAvg >= 0.88 * m.analysis.limitingMshrs;
            bool full_idle =
                n_idle >= 0.88 * m.analysis.limitingMshrs;
            t.addRow({p.name, w->routine(),
                      fmtDouble(m.analysis.bwGBs, 1),
                      fmtDouble(m.analysis.nAvg, 2),
                      fmtDouble(n_idle, 2),
                      std::to_string(m.analysis.limitingMshrs),
                      full_loaded != full_idle ? "YES" : "no"});
        }
        t.addSeparator();
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}
