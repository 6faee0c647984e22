/**
 * @file
 * Exercises paper Figure 1: the recipe flowchart, traced over all six
 * workloads' base variants on all three platforms.  For each case the
 * bench prints the analysis (observed BW → loaded latency → n_avg →
 * limiting MSHRQ), the recipe's verdict, and whether the recommended
 * next optimization actually pays off in simulation — the recipe
 * validating itself.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "core/recipe.hh"
#include "util/table.hh"

int
main()
{
    using namespace lll;
    using workloads::OptSet;

    Table t({"Proc", "Routine", "n_avg", "limit", "situation",
             "top recommendation", "tried", "speedup"});
    t.setCaption("Figure 1 — recipe decision trace (base variants)");

    for (const platforms::Platform &p : platforms::allPlatforms()) {
        xmem::LatencyProfile profile = bench::profileFor(p);
        core::Recipe recipe(p);
        for (const workloads::WorkloadPtr &w : workloads::allWorkloads()) {
            core::Experiment exp(p, *w, profile);
            OptSet base;
            const core::StageMetrics &m = exp.stage(base);
            core::RecipeDecision d = recipe.advise(m.analysis, base);

            // Validate: apply the top recommendation (if any) and
            // measure.
            std::string tried = "-";
            std::string speedup = "-";
            auto recs = d.recommendedOpts();
            if (!recs.empty()) {
                OptSet next = base.with(recs.front());
                tried = workloads::optShortName(recs.front());
                speedup = fmtSpeedup(exp.speedup(base, next));
            }

            std::string limit =
                std::string(core::mshrLevelName(m.analysis.limitingLevel)) +
                " (" + std::to_string(m.analysis.limitingMshrs) + ")";
            std::string situation =
                m.analysis.nearBandwidthLimit ? "bandwidth wall"
                : m.analysis.nearMshrLimit   ? "MSHRQ full"
                                             : "MLP headroom";
            t.addRow({p.name, w->routine(), fmtDouble(m.analysis.nAvg, 2),
                      limit, situation,
                      recs.empty() ? "(reduce traffic / stop)" : tried,
                      tried, speedup});
        }
        t.addSeparator();
    }
    std::fputs(t.render().c_str(), stdout);

    // One full narrative trace, the paper's ISx walk on KNL.
    platforms::Platform knl = bench::platformFor("knl");
    xmem::LatencyProfile profile = bench::profileFor(knl);
    core::Recipe recipe(knl);
    workloads::WorkloadPtr isx = bench::workloadFor("isx");
    core::Experiment exp(knl, *isx, profile);

    std::printf("\nRecipe walk: ISx on KNL\n");
    OptSet state;
    for (int step = 0; step < 6; ++step) {
        const core::StageMetrics &m = exp.stage(state);
        core::RecipeDecision d = recipe.advise(m.analysis, state);
        std::printf("  [%s] n_avg=%.2f of %u (%s): %s\n",
                    state.label().c_str(), m.analysis.nAvg,
                    m.analysis.limitingMshrs,
                    core::mshrLevelName(m.analysis.limitingLevel),
                    d.summary.c_str());
        auto recs = d.recommendedOpts();
        if (recs.empty() || d.stop) {
            std::printf("  -> stop.\n");
            break;
        }
        OptSet next = state.with(recs.front());
        double s = exp.speedup(state, next);
        std::printf("  -> try %s: %.2fx%s\n",
                    workloads::optName(recs.front()), s,
                    s >= 1.02 ? " (kept)" : " (reverted)");
        if (s >= 1.02)
            state = next;
        else
            break;
    }
    return 0;
}
