/**
 * @file
 * Ablation: applying Little's law to a whole program instead of a single
 * routine (the paper's footnote 1 stationarity caveat and §III-D's
 * "averaging counter data from multiple routines ... usually provides
 * misleading guidance").
 *
 * A real two-phase program is simulated — threads alternate between
 * ISx's count_local_keys (random, L1-MSHR pinned) and CoMD's eamForce
 * (compute bound, idle memory) — and analyzed both per-routine and as
 * one aggregate window.  The aggregate bandwidth maps through the
 * profile to a latency and occupancy that describe *neither* phase, so
 * the recipe's verdict is wrong for both.
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/experiment.hh"
#include "core/littles_law.hh"
#include "sim/tracer.hh"
#include "util/table.hh"

int
main()
{
    using namespace lll;

    platforms::Platform skl = bench::platformFor("skl");
    xmem::LatencyProfile profile = bench::profileFor(skl);

    workloads::WorkloadPtr isx = bench::workloadFor("isx");
    workloads::WorkloadPtr comd = bench::workloadFor("comd");

    // Per-routine references (the paper's prescribed methodology).
    core::Experiment e1(skl, *isx, profile);
    core::Experiment e2(skl, *comd, profile);
    const core::StageMetrics &m1 = e1.stage({});
    const core::StageMetrics &m2 = e2.stage({});

    // One real program alternating both phases; op counts chosen so the
    // two routines get comparable shares of wall-clock time.
    std::vector<sim::PhaseSpec> phases;
    phases.push_back({isx->spec(skl, {}), 6000});
    phases.push_back({comd->spec(skl, {}), 2000});
    sim::SystemParams sp = skl.sysParams(skl.totalCores, 1);
    sim::System sys(sp, phases);
    sim::RunResult mixed = sys.run(120.0, 240.0);

    double lat_mix = profile.latencyAt(mixed.totalGBs);
    double n_mix = core::mlpPerCore(mixed.totalGBs, lat_mix,
                                    skl.lineBytes, skl.totalCores);

    Table t({"scope", "BW (GB/s)", "lat (ns)", "n_avg",
             "verdict vs L1 MSHRQ (10)"});
    t.setCaption("Ablation — per-routine vs whole-program analysis "
                 "(SKL, alternating ISx and CoMD phases)");
    auto verdict = [](double n) {
        return n >= 8.8 ? std::string("full — stop raising MLP")
                        : std::string("headroom — raise MLP");
    };
    t.addRow({"routine: " + isx->routine(),
              fmtDouble(m1.analysis.bwGBs, 1),
              fmtDouble(m1.analysis.latencyNs, 0),
              fmtDouble(m1.analysis.nAvg, 2), verdict(m1.analysis.nAvg)});
    t.addRow({"routine: " + comd->routine(),
              fmtDouble(m2.analysis.bwGBs, 1),
              fmtDouble(m2.analysis.latencyNs, 0),
              fmtDouble(m2.analysis.nAvg, 2), verdict(m2.analysis.nAvg)});
    t.addRow({"whole program (simulated)", fmtDouble(mixed.totalGBs, 1),
              fmtDouble(lat_mix, 0), fmtDouble(n_mix, 2),
              verdict(n_mix)});
    std::fputs(t.render().c_str(), stdout);

    std::printf("\nThe whole-program row blends a phase pinned at the "
                "L1 MSHRQ with an idle-memory phase into a verdict "
                "that is wrong for both — the paper's footnote-1 "
                "stationarity caveat, measured.  (True time-weighted "
                "L1 occupancy of the mixed run: %.2f; true average "
                "memory latency: %.0f ns.)\n",
                mixed.avgL1MshrOccupancy, mixed.avgMemLatencyNs);
    return 0;
}
