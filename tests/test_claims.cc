/**
 * @file
 * The paper's figure, anecdote and design-ablation claims, each checked
 * on the full simulated platforms against the committed latency
 * profiles (data/profiles).  The windows are the ones EXPERIMENTS.md
 * quotes: the workload defaults, 15 + 40 us for the bank and
 * stream-table sweeps, and 120 + 240 us for the two-phase program.  An
 * MSHR queue counts as full at the analyzer's own threshold.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/littles_law.hh"
#include "core/roofline.hh"
#include "core/tma.hh"
#include "sim/system.hh"
#include "workloads/workload.hh"
#include "xmem/latency_profile.hh"

namespace lll::core
{
namespace
{

using workloads::Opt;
using workloads::OptSet;

/** The committed profile of @p platform. */
xmem::LatencyProfile
profileFor(const platforms::Platform &platform)
{
    util::Result<xmem::LatencyProfile> loaded = xmem::LatencyProfile::load(
        std::string(LLL_TEST_PROFILE_DIR) + "/" + platform.name + ".profile");
    EXPECT_TRUE(loaded.ok()) << loaded.status().toString();
    return loaded.take();
}

/** One experiment per (platform, workload), kept for the whole binary
 *  so claims that read the same stage simulate it once. */
Experiment &
experiment(const std::string &platform, const std::string &workload)
{
    struct Entry
    {
        workloads::WorkloadPtr workload;   // the experiment refers to it
        std::unique_ptr<Experiment> exp;
    };
    static std::map<std::string, Entry> cache;
    Entry &e = cache[platform + "/" + workload];
    if (!e.exp) {
        platforms::Platform p = platforms::findPlatform(platform).take();
        e.workload = workloads::findWorkload(workload).take();
        e.exp = std::make_unique<Experiment>(p, *e.workload, profileFor(p));
    }
    return *e.exp;
}

/** A registry workload's kernel on @p platform. */
sim::KernelSpec
spec(const std::string &workload, const platforms::Platform &platform,
     const OptSet &opts = {})
{
    return workloads::findWorkload(workload).take()->spec(platform, opts);
}

/** The analyzer's "MSHR queue effectively full" verdict. */
bool
full(double n_avg, unsigned mshrs)
{
    return n_avg >= Analyzer::Params{}.mshrFullFraction * mshrs;
}

/** Equation 2 evaluated with the idle instead of the loaded latency. */
double
idleNAvg(const Experiment &exp, const Analysis &a)
{
    return mlpPerCore(a.bwGBs, profileFor(exp.platform()).idleLatencyNs(),
                      exp.platform().lineBytes, exp.coresUsed());
}

// Fig. 2: the 64 cores' 12 L1 MSHRs cap ISx on KNL near 256 GB/s; the
// base point O sits under that roof and the vect + 2-HT + L2-prefetch
// point O1 breaks through it.
TEST(Fig2Claim, KnlL1MshrCeilingSeparatesPointsOAndO1)
{
    platforms::Platform knl = platforms::findPlatform("knl").take();
    Roofline roof(knl, profileFor(knl));
    double ceiling = roof.mshrCeilingGBs(MshrLevel::L1, knl.totalCores);
    EXPECT_NEAR(ceiling, 256.0, 15.0);

    Experiment &exp = experiment("knl", "isx");
    EXPECT_LT(exp.stage({}).analysis.bwGBs, ceiling);
    OptSet o1{Opt::Vectorize, Opt::Smt2, Opt::SwPrefetchL2};
    EXPECT_GT(exp.stage(o1).analysis.bwGBs, ceiling);
}

// §IV-B: KNL's L2 prefetcher tracks 16 streams.  Two hyperthreads of
// vectorized HPCG fit in that table, four do not; 32 entries cover four.
TEST(StreamTableClaim, SixteenEntriesCollapseAtFourWaySmt)
{
    platforms::Platform knl = platforms::findPlatform("knl").take();
    auto run = [&](unsigned table, unsigned smt) {
        OptSet opts{Opt::Vectorize, smt == 2 ? Opt::Smt2 : Opt::Smt4};
        sim::SystemParams sp = knl.sysParams(knl.totalCores, smt);
        sp.pf.tableSize = table;
        sim::System sys(sp, spec("hpcg", knl, opts));
        return sys.run(15.0, 40.0);
    };
    sim::RunResult t16_smt4 = run(16, 4);
    sim::RunResult t32_smt4 = run(32, 4);
    EXPECT_LT(run(16, 2).demandFraction, 0.2);
    EXPECT_GT(t16_smt4.demandFraction, 0.9);
    EXPECT_LT(t32_smt4.demandFraction, 0.2);
    EXPECT_GE(t32_smt4.totalGBs, 1.2 * t16_smt4.totalGBs);
}

// DESIGN.md §5.3: at a constant peak, more and slower banks raise the
// loaded latency, and with the L1 MSHR queue pinned Little's law turns
// that latency into lost bandwidth.
TEST(BankClaim, MoreSlowerBanksRaiseLatencyAndCutBandwidth)
{
    platforms::Platform skl = platforms::findPlatform("skl").take();
    sim::KernelSpec isx = spec("isx", skl);
    double prev_bw = skl.peakGBs;
    double prev_lat = 0.0;
    for (unsigned banks : {14u, 28u, 56u, 112u, 224u}) {
        sim::SystemParams sp = skl.sysParams(skl.totalCores, 1);
        sp.mem.banksOverride = banks;
        sp.mem.bankServiceNs = banks * sp.lineBytes / skl.peakGBs;
        sim::System sys(sp, isx);
        sim::RunResult r = sys.run(15.0, 40.0);
        EXPECT_LT(r.totalGBs, prev_bw) << banks << " banks";
        EXPECT_GT(r.avgMemLatencyNs, prev_lat) << banks << " banks";
        EXPECT_NEAR(r.avgL1MshrOccupancy, skl.l1Mshrs, 0.5)
            << banks << " banks";
        prev_bw = r.totalGBs;
        prev_lat = r.avgMemLatencyNs;
    }
}

// §III: "idle memory latency cannot be used for this purpose".  With it,
// ISx's pinned L1 queue looks like it has headroom.
TEST(IdleLatencyClaim, HidesTheFullL1QueueOfIsx)
{
    for (const char *name : {"skl", "knl"}) {
        Experiment &exp = experiment(name, "isx");
        const Analysis &a = exp.stage({}).analysis;
        EXPECT_TRUE(full(a.nAvg, a.limitingMshrs)) << name;
        EXPECT_FALSE(full(idleNAvg(exp, a), a.limitingMshrs)) << name;
    }
}

TEST(IdleLatencyClaim, NeverRaisesNAvgOnABaseRow)
{
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        for (const workloads::WorkloadPtr &w : workloads::allWorkloads()) {
            Experiment &exp = experiment(p.name, w->name());
            const Analysis &a = exp.stage({}).analysis;
            EXPECT_LE(idleNAvg(exp, a), a.nAvg)
                << w->name() << " on " << p.name;
        }
    }
}

// Footnote 1 and §III-D: one window over a program that alternates
// ISx's pinned count_local_keys with CoMD's compute-bound eamForce
// yields a bandwidth between the two and an n_avg that reads as
// headroom, although the ISx phase is full.
TEST(WholeProgramClaim, AveragingTwoPhasesHidesTheFullQueue)
{
    platforms::Platform skl = platforms::findPlatform("skl").take();
    const Analysis &isx = experiment("skl", "isx").stage({}).analysis;
    const Analysis &comd = experiment("skl", "comd").stage({}).analysis;
    EXPECT_TRUE(full(isx.nAvg, skl.l1Mshrs));

    std::vector<sim::PhaseSpec> phases;
    phases.push_back({spec("isx", skl), 6000});
    phases.push_back({spec("comd", skl), 2000});
    sim::System sys(skl.sysParams(skl.totalCores, 1), phases);
    sim::RunResult mixed = sys.run(120.0, 240.0);
    double n_mixed =
        mlpPerCore(mixed.totalGBs, profileFor(skl).latencyAt(mixed.totalGBs),
                   skl.lineBytes, skl.totalCores);
    EXPECT_FALSE(full(n_mixed, skl.l1Mshrs));
    EXPECT_GT(mixed.totalGBs, comd.bwGBs);
    EXPECT_LT(mixed.totalGBs, isx.bwGBs);
}

// §I: TMA splits SNAP's memory-bound time into comparable bandwidth and
// latency buckets, which points nowhere.
TEST(TmaClaim, SnapOnSklSplitsMemoryBoundTimeEvenly)
{
    platforms::Platform skl = platforms::findPlatform("skl").take();
    TmaReport r = Tma(skl).analyze(experiment("skl", "snap").stage({}).run);
    EXPECT_GE(r.bandwidthBoundPct, 5.0);
    EXPECT_GE(r.latencyBoundPct, 5.0);
    EXPECT_LE(std::max(r.bandwidthBoundPct, r.latencyBoundPct),
              2.0 * std::min(r.bandwidthBoundPct, r.latencyBoundPct));
}

// §II: at full bandwidth the load-latency facility's mean over all loads
// of HPCG (paper: 32 cycles) is a fraction of the loaded memory latency
// (paper: ~378 cycles), because prefetched loads dominate it.
TEST(TmaClaim, HpcgLoadLatencyFacilityHidesTheLoadedLatency)
{
    platforms::Platform skl = platforms::findPlatform("skl").take();
    const StageMetrics &m = experiment("skl", "hpcg").stage({});
    TmaReport r = Tma(skl).analyze(m.run);
    EXPECT_LT(r.avgLoadLatencyCycles,
              0.25 * m.analysis.latencyNs * skl.freqGHz);
}

} // namespace
} // namespace lll::core
