/**
 * @file
 * The paper-sweep and design-search runners, and the rep loop they
 * share with serve-mixed (serve.cc).
 */

#include <sched.h>

#include <cmath>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "core/experiment.hh"
#include "core/recipe.hh"
#include "core/sweep.hh"
#include "platforms/platform.hh"
#include "search/search.hh"
#include "workloads/workload.hh"
#include "xmem/xmem_harness.hh"

#include "bench.hh"

namespace fs = std::filesystem;
using namespace lll;

namespace bench
{

void
measureReps(const Options &opt, Output &out, int jobs,
            const std::function<void()> &body, bool check_digest)
{
    const int64_t t0 = nowNs();
    auto one = [&](bool traced) {
        resetAggregates();
        {
            std::lock_guard<std::mutex> lock(mu());
            layerCounters().jobs = jobs;
        }
        uint64_t root = 0;
        if (traced) {
            setTracing(true);
            out.tracedStartNs = nowNs();
            root = openSpan("bench.rep", true);
            setRootSpan(root);
        }
        const double c0 = processCpuS();
        const int64_t w0 = nowNs();
        body();
        const double wall = double(nowNs() - w0) / 1e9;
        const double cpu = processCpuS() - c0;
        if (traced) {
            closeSpan(root);
            out.tracedEndNs = nowNs();
            setRootSpan(0);
            setTracing(false);
            out.spans = takeSpans();
        }
        std::lock_guard<std::mutex> lock(mu());
        const SimModel &m = simModel();
        if (traced) {
            out.sim = m;
            out.layers = layerCounters();
        }
        const std::string d = hex(m.digest);
        if (out.digest.empty())
            out.digest = d;
        else if (check_digest)
            out.check(d == out.digest,
                      "modeled-sim digest differs between reps");
        out.reps.push_back({traced, wall, cpu, m.simulatedUs});
    };
    if (opt.trace) {
        one(false);
        one(true);
    } else {
        // At least two reps, so that no run reports a single sample;
        // after that, start another only while it should end inside
        // the budget, so a run measures about opt.seconds.
        double elapsed = 0.0;
        do {
            one(false);
            elapsed = double(nowNs() - t0) / 1e9;
        } while (out.reps.size() < 2 ||
                 elapsed * (1.0 + 1.0 / double(out.reps.size())) <=
                     opt.seconds);
    }
}

namespace
{

// Timed set-ups per run; the reported set-up time is their median.  One
// set-up of paper-sweep or design-search takes well under a millisecond.
constexpr int kSetups = 25;

/**
 * Time @p n set-ups, each after an untimed @p prepare (the private
 * profile copy, which users do not pay); the last one's state is what
 * the reps use.  Set-up i runs on a thread pinned to the i-th allowed
 * CPU in turn: a sub-millisecond set-up otherwise takes the speed of
 * whichever virtual CPU the process happened to start on, and on a
 * shared host those differ by up to 2x.
 */
void
timedSetups(Output &out, int n, const std::function<void()> &prepare,
            const std::function<void()> &setup)
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof allowed, &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    }
    for (int i = 0; i < n; ++i) {
        std::thread t([&, i] {
            if (!cpus.empty()) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(cpus[size_t(i) % cpus.size()], &one);
                sched_setaffinity(0, sizeof one, &one);
            }
            prepare();
            const int64_t t0 = nowNs();
            setup();
            out.setupS.push_back(double(nowNs() - t0) / 1e9);
        });
        t.join();
    }
}

// ---- paper-sweep --------------------------------------------------------

// Sweep workers: the 4 cores of the reference host.
constexpr int kSweepJobs = 4;

struct SweepState
{
    std::vector<platforms::Platform> platforms;
    std::vector<workloads::WorkloadPtr> workloads;
    std::vector<core::SweepUnit> units;
    std::map<std::string, xmem::LatencyProfile> profiles;
};

void
sweepSetup(Output &out, SweepState &st)
{
    st.platforms = platforms::allPlatforms();
    st.workloads = workloads::allWorkloadsAndExtensions();
    st.units = core::sweepUnits(st.platforms, st.workloads);
    st.profiles.clear();
    for (const platforms::Platform &p : st.platforms) {
        util::Result<xmem::LatencyProfile> prof =
            xmem::XMemHarness().measureCachedChecked(
                p, xmem::defaultProfilePath(p));
        out.check(prof.ok(), "stock profile " + p.name + " did not load");
        if (prof.ok())
            st.profiles.emplace(p.name, prof.take());
    }
}

std::string
renderRows(const std::vector<core::SweepRunner::UnitResult> &res)
{
    std::string s;
    for (const core::SweepRunner::UnitResult &u : res) {
        for (const core::TableRow &r : u.rows) {
            s += u.platform + "|" + u.workload + "|" + r.source + "|" +
                 fmt(r.bwGBs) + "|" + fmt(r.pctPeak) + "|" +
                 fmt(r.latencyNs) + "|" + fmt(r.nAvg) + "|" + r.optLabel +
                 "|" + fmt(r.speedup) + "|" + fmt(r.paperSpeedup) + "\n";
        }
    }
    return s;
}

/**
 * Accuracy of one finished sweep against the paper: mean |ln(measured
 * / paper)| over rows with a paper speedup, and how often the Fig. 1
 * recipe's advice at the source state matches the measured outcome
 * (recommended <-> helped, helped meaning >= 1.03x, the paper's own
 * threshold).  Source-state analyses come from @p cache, so nothing is
 * simulated again.
 */
void
paperAccuracy(const SweepState &st, uint64_t seed,
              const std::vector<core::SweepRunner::UnitResult> &res,
              core::ResultCache &cache, Output &out,
              const std::string &prefix)
{
    double err = 0.0;
    int err_n = 0, agree = 0, tried = 0;
    for (size_t i = 0; i < res.size() && i < st.units.size(); ++i) {
        const core::SweepUnit &u = st.units[i];
        core::Experiment::Params ep;
        ep.seed = seed;
        ep.resultCache = &cache;
        util::Result<core::Experiment> exp = core::Experiment::create(
            u.platform, *u.workload, st.profiles.at(u.platform.name), ep);
        if (!exp.ok())
            continue;
        const core::Recipe recipe(u.platform);
        const std::vector<workloads::ExperimentRow> specs =
            u.workload->paperRows(u.platform);
        for (size_t r = 0; r < res[i].rows.size() && r < specs.size(); ++r) {
            const core::TableRow &row = res[i].rows[r];
            if (row.speedup <= 0.0)
                continue;
            if (row.paperSpeedup > 0.0) {
                err += std::fabs(std::log(row.speedup / row.paperSpeedup));
                ++err_n;
            }
            const workloads::ExperimentRow &er = specs[r];
            const core::RecipeDecision d =
                recipe.advise(exp->stage(er.source).analysis, er.source);
            bool recommended = false;
            if (er.applied) {
                for (workloads::Opt o : d.recommendedOpts()) {
                    for (workloads::Opt got : er.applied->opts()) {
                        if (got == o && !er.source.has(got))
                            recommended = true;
                    }
                }
            }
            const bool helped = row.speedup >= 1.03;
            ++tried;
            agree += recommended == helped ? 1 : 0;
        }
    }
    out.scalars[prefix + "paper_speedup_err"] = err_n ? err / err_n : NAN;
    out.scalars[prefix + "paper_rows"] = err_n;
    out.scalars[prefix + "recipe_agree"] =
        tried ? double(agree) / tried : NAN;
    out.scalars[prefix + "recipe_agreed"] = agree;
    out.scalars[prefix + "recipe_tried"] = tried;
}

/** One uncached sweep; a fresh in-memory cache is what `lll sweep`
 *  uses on a first run, and it lets paperAccuracy() read the stages. */
util::Result<std::vector<core::SweepRunner::UnitResult>>
sweepOnce(const SweepState &st, int jobs, uint64_t seed,
          core::ResultCache &cache)
{
    core::SweepRunner::Params p;
    p.jobs = jobs;
    p.seed = seed;
    p.cache = &cache;
    SpanScope span("core.sweep.run");
    // The runner's worker threads open spans with an empty stack; parent
    // them here rather than to the rep.
    const uint64_t outer = setRootSpan(span.id());
    auto res = core::SweepRunner(p).run(st.units);
    setRootSpan(outer);
    return res;
}

} // namespace

void
runPaperSweep(const Options &opt, Output &out)
{
    const int jobs = kSweepJobs;
    SweepState st;
    timedSetups(
        out, kSetups,
        [&] { privateProfileDir(opt, opt.work + "/profiles"); },
        [&] { sweepSetup(out, st); });

    std::string rows0;
    std::unique_ptr<core::ResultCache> cache;
    std::vector<core::SweepRunner::UnitResult> last;
    measureReps(
        opt, out, jobs,
        [&] {
            cache = std::make_unique<core::ResultCache>();
            auto res = sweepOnce(st, jobs, opt.seed, *cache);
            out.check(res.ok(), res.ok() ? "" : res.status().toString());
            if (!res.ok())
                return;
            for (const auto &u : *res)
                out.check(!u.rows.empty(),
                          "unit " + u.platform + "/" + u.workload +
                              " returned no rows");
            const std::string rows = renderRows(*res);
            if (rows0.empty())
                rows0 = rows;
            else
                out.check(rows == rows0,
                          "sweep rows differ between reps (traced vs "
                          "untraced or rep to rep)");
            last = res.take();
        },
        true);
    out.peakRssMb = selfPeakRssMb();

    // Unit fan-out of the traced sweep, from the paperTable spans.
    const auto &units = out.layers.units;
    if (!units.empty()) {
        LayerCounters::Fanout f;
        int64_t start = units.front().first, end = units.front().second;
        for (const auto &[s, e] : units) {
            start = std::min(start, s);
            end = std::max(end, e);
        }
        for (const auto &[s, e] : units) {
            f.queueWaitNs.push_back(double(s - start));
            f.busyNs += double(e - s);
        }
        f.wallNs = double(end - start);
        f.workers = std::min<int>(jobs, static_cast<int>(units.size()));
        out.layers.fanouts.push_back(std::move(f));
    }

    size_t nrows = 0;
    for (const auto &u : last)
        nrows += u.rows.size();
    out.scalars["units"] = double(last.size());
    out.scalars["rows"] = double(nrows);
    if (cache)
        paperAccuracy(st, opt.seed, last, *cache, out, "");

    if (opt.trace) {
        // Once per traced run: the same accuracy on a held-out seed,
        // data the workload models were not tuned on.
        const uint64_t held = opt.seed + 1000;
        core::ResultCache held_cache;
        auto res = sweepOnce(st, jobs, held, held_cache);
        out.check(res.ok(), "held-out sweep failed");
        if (res.ok())
            paperAccuracy(st, held, *res, held_cache, out, "held_out.");
        out.scalars["held_out.seed"] = double(held);
    }
}

// ---- design-search ------------------------------------------------------

namespace
{

// Search workers: `lll search --jobs 2`, as the workload was measured.
constexpr int kSearchJobs = 2;

std::string
renderFrontier(const search::SearchResult &r)
{
    std::string s;
    for (size_t i : r.frontier) {
        const search::SearchRow &row = r.rows[i];
        s += row.label + " cost=" + fmt(row.cost) + " bw=" + fmt(row.bwGBs) +
             "\n";
    }
    return s;
}

void
checkSearch(const search::SearchResult &r, Output &out)
{
    out.check(r.enumerated ==
                  r.simulated + r.prunedAnalytic + r.prunedInfeasible,
              "search accounting: enumerated != simulated + pruned");
    for (const search::SearchRow &row : r.rows) {
        if (row.fate != search::CandidateFate::Simulated)
            continue;
        out.check(row.status.ok(),
                  "candidate " + row.label + ": " + row.status.toString());
        out.check(row.bwGBs <= row.ceilingGBs * 1.02,
                  "candidate " + row.label + " beats its ceiling");
    }
    for (size_t k = 1; k < r.frontier.size(); ++k) {
        const search::SearchRow &a = r.rows[r.frontier[k - 1]];
        const search::SearchRow &b = r.rows[r.frontier[k]];
        out.check(a.cost < b.cost && a.bwGBs < b.bwGBs,
                  "frontier not cost-ascending with rising bandwidth at " +
                      b.label);
    }
    out.check(!r.frontier.empty(), "empty frontier");
}

/** The search spec, with the skl stock profile loaded. */
search::SearchSpec
searchSetup(const Options &opt, Output &out)
{
    search::SearchSpec spec;
    spec.platformName = "skl";
    spec.workloadName = "isx";
    for (const char *axis : {"l2_mshrs=8:64:*2", "banks=4:16:+4"}) {
        util::Result<search::Axis> a = search::parseAxis(axis);
        out.check(a.ok(), std::string("axis ") + axis);
        if (a.ok())
            spec.axes.push_back(a.take());
    }
    spec.cores = 6;
    spec.seed = opt.seed;
    spec.warmupUs = 5.0;
    spec.measureUs = 10.0;
    util::Result<platforms::Platform> skl = platforms::findPlatform("skl");
    out.check(skl.ok(), "platform skl");
    if (skl.ok()) {
        out.check(xmem::XMemHarness()
                      .measureCachedChecked(*skl,
                                            xmem::defaultProfilePath(*skl))
                      .ok(),
                  "stock profile skl did not load");
    }
    return spec;
}

} // namespace

void
runDesignSearch(const Options &opt, Output &out)
{
    const int jobs = kSearchJobs;
    const std::string prof_dir = opt.work + "/profiles";
    search::SearchSpec spec;
    timedSetups(
        out, kSetups,
        [&] { privateProfileDir(opt, prof_dir); },
        [&] { spec = searchSetup(opt, out); });

    std::string frontier0;
    search::SearchResult last;
    measureReps(
        opt, out, jobs,
        [&] {
            // Cold: no candidate profile survives from an earlier rep.
            fs::remove_all(prof_dir + "/candidates");
            core::ResultCache cache;
            search::Searcher::Params sp;
            sp.jobs = jobs;
            sp.cache = &cache;
            util::Result<search::SearchResult> r = [&] {
                SpanScope span("search.run");
                return search::Searcher(sp).run(spec);
            }();
            out.check(r.ok(), r.ok() ? "" : r.status().toString());
            if (!r.ok())
                return;
            checkSearch(*r, out);
            const std::string f = renderFrontier(*r);
            if (frontier0.empty())
                frontier0 = f;
            else
                out.check(f == frontier0,
                          "frontier differs between reps");
            last = r.take();
        },
        true);
    out.peakRssMb = selfPeakRssMb();
    out.scalars["search.enumerated"] = double(last.enumerated);
    out.scalars["search.pruned_analytic"] = double(last.prunedAnalytic);
    out.scalars["search.pruned_infeasible"] = double(last.prunedInfeasible);
    out.scalars["search.simulated"] = double(last.simulated);
    out.scalars["search.waves"] = double(last.waves);
    out.texts["frontier"] = frontier0;
}

} // namespace bench
