/**
 * @file
 * Link-time interposers around the layers' public functions.
 *
 * The harness links the LLL static libraries with `-Wl,--wrap=SYM` for
 * every SYM_* symbol below (CMakeLists.txt reads them from here), so each call
 * one library object makes into another lands in a `__wrap_SYM` defined
 * here, which times it and forwards to `__real_SYM`.  Calls inside one
 * object file (for example Experiment::paperTable -> Experiment::stage)
 * are not redirected by the linker; those boundaries are observed
 * through the program's own SpanTracker begin/end calls instead.
 *
 * If a later tree drops or re-signs one of these functions, the
 * `__real_` reference is left undefined and the harness fails to link.
 * If the program stops calling one across objects, the wrapper is never
 * reached; perfbench/run.py counts that as a failed check.
 *
 * Each wrapper is a free function with the member function's argument
 * list (`this` first), which the Itanium C++ ABI passes identically.
 */

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/analyzer.hh"
#include "core/experiment.hh"
#include "core/sweep.hh"
#include "counters/counter_bank.hh"
#include "obs/span.hh"
#include "sim/system.hh"
#include "xmem/xmem_harness.hh"

#include "trace.hh"

namespace
{

using lll::core::Analysis;
using lll::core::Analyzer;
using lll::core::Experiment;
using lll::core::ResultCache;
using lll::core::StageMetrics;
using lll::core::SweepRunner;
using lll::core::TableRow;
using lll::counters::RoutineProfile;
using lll::counters::RoutineProfiler;
using lll::platforms::Platform;
using lll::sim::KernelSpec;
using lll::sim::RunResult;
using lll::sim::System;
using lll::sim::SystemParams;
using lll::util::Result;
using lll::xmem::LatencyProfile;
using lll::xmem::XMemHarness;

#define WRAP(sym) __asm__("__wrap_" sym)
#define REAL(sym) __asm__("__real_" sym)

#define SYM_SYSTEM_CTOR "_ZN3lll3sim6SystemC1ERKNS0_12SystemParamsERKNS0_10KernelSpecE"
#define SYM_SYSTEM_RUN "_ZN3lll3sim6System3runEdd"
#define SYM_SYSTEM_RUN_CHECKED "_ZN3lll3sim6System10runCheckedEdd"
#define SYM_XMEM_MEASURE "_ZNK3lll4xmem11XMemHarness7measureERKNS_9platforms8PlatformE"
#define SYM_XMEM_CACHED "_ZNK3lll4xmem11XMemHarness20measureCachedCheckedERKNS_9platforms8PlatformERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_PROFILE "_ZNK3lll8counters15RoutineProfiler7profileERKNS_3sim9RunResultERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_ANALYZE "_ZNK3lll4core8Analyzer7analyzeERKNS_8counters14RoutineProfileEiSt8optionalIbE"
#define SYM_CACHE_LOOKUP "_ZN3lll4core11ResultCache6lookupERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEEPNS0_12StageMetricsE"
#define SYM_CACHE_INSERT "_ZN3lll4core11ResultCache6insertERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS0_12StageMetricsE"
#define SYM_PAPER_TABLE "_ZN3lll4core10Experiment10paperTableEv"
#define SYM_RUN_STAGES "_ZN3lll4core11SweepRunner9runStagesERKSt6vectorINS1_9StageUnitESaIS3_EE"
#define SYM_SPAN_BEGIN "_ZN3lll3obs11SpanTracker5beginERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define SYM_SPAN_END "_ZN3lll3obs11SpanTracker3endEv"

// The last simulated window on this thread: Experiment::stage runs
// System::run, then RoutineProfiler::profile on its result, then
// Analyzer::analyze, all on one thread, so the analyzer's Little's-law
// n_avg can be checked against the window's true MSHR occupancy.
thread_local double t_l1_occ = 0.0;
thread_local double t_l2_occ = 0.0;

// One entry per open SpanTracker span on this thread: the benchmark
// span id when it is an Experiment stage ("stage[...]"), else 0.
thread_local std::vector<uint64_t> t_tracker_spans;

void
countRun(const RunResult &r, double window_us, uint64_t events)
{
    std::lock_guard<std::mutex> lock(bench::mu());
    bench::simModel().add(r, window_us);
    if (bench::tracing())
        bench::layerCounters().simEvents += events;
}

} // namespace

// ---- sim --------------------------------------------------------------

void realSystemCtor(System *, const SystemParams &, const KernelSpec &)
    REAL(SYM_SYSTEM_CTOR);
void wrapSystemCtor(System *, const SystemParams &, const KernelSpec &)
    WRAP(SYM_SYSTEM_CTOR);
void
wrapSystemCtor(System *self, const SystemParams &p, const KernelSpec &k)
{
    {
        bench::SpanScope span("sim.build");
        realSystemCtor(self, p, k);
    }
    if (bench::tracing()) {
        std::lock_guard<std::mutex> lock(bench::mu());
        ++bench::layerCounters().simBuilds;
    }
}

RunResult realSystemRun(System *, double, double) REAL(SYM_SYSTEM_RUN);
RunResult wrapSystemRun(System *, double, double) WRAP(SYM_SYSTEM_RUN);
RunResult
wrapSystemRun(System *self, double warmup_us, double measure_us)
{
    const uint64_t ev0 = self->eventQueue().processed();
    RunResult r;
    {
        bench::SpanScope span("sim.run");
        r = realSystemRun(self, warmup_us, measure_us);
    }
    countRun(r, warmup_us + measure_us,
             self->eventQueue().processed() - ev0);
    return r;
}

Result<RunResult> realSystemRunChecked(System *, double, double)
    REAL(SYM_SYSTEM_RUN_CHECKED);
Result<RunResult> wrapSystemRunChecked(System *, double, double)
    WRAP(SYM_SYSTEM_RUN_CHECKED);
Result<RunResult>
wrapSystemRunChecked(System *self, double warmup_us, double measure_us)
{
    const uint64_t ev0 = self->eventQueue().processed();
    std::optional<Result<RunResult>> r;
    {
        bench::SpanScope span("sim.run");
        r.emplace(realSystemRunChecked(self, warmup_us, measure_us));
    }
    if (r->ok()) {
        countRun(**r, warmup_us + measure_us,
                 self->eventQueue().processed() - ev0);
    }
    return std::move(*r);
}

// ---- xmem -------------------------------------------------------------

LatencyProfile realXmemMeasure(const XMemHarness *, const Platform &)
    REAL(SYM_XMEM_MEASURE);
LatencyProfile wrapXmemMeasure(const XMemHarness *, const Platform &)
    WRAP(SYM_XMEM_MEASURE);
LatencyProfile
wrapXmemMeasure(const XMemHarness *self, const Platform &p)
{
    bench::SpanScope span("xmem.measure");
    if (bench::tracing()) {
        std::lock_guard<std::mutex> lock(bench::mu());
        ++bench::layerCounters().xmemProfiles;
    }
    return realXmemMeasure(self, p);
}

Result<LatencyProfile> realXmemCached(const XMemHarness *, const Platform &,
                                      const std::string &)
    REAL(SYM_XMEM_CACHED);
Result<LatencyProfile> wrapXmemCached(const XMemHarness *, const Platform &,
                                      const std::string &)
    WRAP(SYM_XMEM_CACHED);
Result<LatencyProfile>
wrapXmemCached(const XMemHarness *self, const Platform &p,
               const std::string &path)
{
    bench::SpanScope span("xmem.measure");
    // A missing cache file means this call characterizes the platform.
    if (bench::tracing() && !std::filesystem::exists(path)) {
        std::lock_guard<std::mutex> lock(bench::mu());
        ++bench::layerCounters().xmemProfiles;
    }
    return realXmemCached(self, p, path);
}

// ---- counters ---------------------------------------------------------

RoutineProfile realProfile(const RoutineProfiler *, const RunResult &,
                           const std::string &) REAL(SYM_PROFILE);
RoutineProfile wrapProfile(const RoutineProfiler *, const RunResult &,
                           const std::string &) WRAP(SYM_PROFILE);
RoutineProfile
wrapProfile(const RoutineProfiler *self, const RunResult &run,
            const std::string &routine)
{
    t_l1_occ = run.avgL1MshrOccupancy;
    t_l2_occ = run.avgL2MshrOccupancy;
    bench::SpanScope span("counters.profile");
    return realProfile(self, run, routine);
}

// ---- core -------------------------------------------------------------

Analysis realAnalyze(const Analyzer *, const RoutineProfile &, int,
                     std::optional<bool>) REAL(SYM_ANALYZE);
Analysis wrapAnalyze(const Analyzer *, const RoutineProfile &, int,
                     std::optional<bool>) WRAP(SYM_ANALYZE);
Analysis
wrapAnalyze(const Analyzer *self, const RoutineProfile &routine, int cores,
            std::optional<bool> random_hint)
{
    std::optional<Analysis> a;
    {
        bench::SpanScope span("core.analyzer");
        a.emplace(realAnalyze(self, routine, cores, random_hint));
    }
    const double truth = a->limitingLevel == lll::core::MshrLevel::L1
                             ? t_l1_occ
                             : t_l2_occ;
    if (bench::tracing()) {
        std::lock_guard<std::mutex> lock(bench::mu());
        bench::layerCounters().littles.emplace_back(a->nAvg, truth);
    }
    return std::move(*a);
}

bool realCacheLookup(ResultCache *, const std::string &, StageMetrics *)
    REAL(SYM_CACHE_LOOKUP);
bool wrapCacheLookup(ResultCache *, const std::string &, StageMetrics *)
    WRAP(SYM_CACHE_LOOKUP);
bool
wrapCacheLookup(ResultCache *self, const std::string &key, StageMetrics *out)
{
    bool hit;
    {
        bench::SpanScope span("core.cache.lookup");
        hit = realCacheLookup(self, key, out);
    }
    if (bench::tracing()) {
        std::lock_guard<std::mutex> lock(bench::mu());
        ++(hit ? bench::layerCounters().cacheHits
               : bench::layerCounters().cacheMisses);
    }
    return hit;
}

void realCacheInsert(ResultCache *, const std::string &,
                     const StageMetrics &) REAL(SYM_CACHE_INSERT);
void wrapCacheInsert(ResultCache *, const std::string &,
                     const StageMetrics &) WRAP(SYM_CACHE_INSERT);
void
wrapCacheInsert(ResultCache *self, const std::string &key,
                const StageMetrics &m)
{
    bench::SpanScope span("core.cache.insert");
    realCacheInsert(self, key, m);
}

std::vector<TableRow> realPaperTable(Experiment *) REAL(SYM_PAPER_TABLE);
std::vector<TableRow> wrapPaperTable(Experiment *) WRAP(SYM_PAPER_TABLE);
std::vector<TableRow>
wrapPaperTable(Experiment *self)
{
    const int64_t start = bench::nowNs();
    std::optional<std::vector<TableRow>> rows;
    {
        bench::SpanScope span("core.sweep.unit", true);
        rows.emplace(realPaperTable(self));
    }
    if (bench::tracing()) {
        std::lock_guard<std::mutex> lock(bench::mu());
        bench::layerCounters().units.emplace_back(start, bench::nowNs());
    }
    return std::move(*rows);
}

std::vector<SweepRunner::StageOutcome>
realRunStages(SweepRunner *, const std::vector<SweepRunner::StageUnit> &)
    REAL(SYM_RUN_STAGES);
std::vector<SweepRunner::StageOutcome>
wrapRunStages(SweepRunner *, const std::vector<SweepRunner::StageUnit> &)
    WRAP(SYM_RUN_STAGES);
std::vector<SweepRunner::StageOutcome>
wrapRunStages(SweepRunner *self,
              const std::vector<SweepRunner::StageUnit> &units)
{
    std::optional<std::vector<SweepRunner::StageOutcome>> out;
    {
        bench::SpanScope span("core.sweep.run_stages");
        // The runner's worker threads open spans with an empty stack;
        // parent them here rather than to the rep.
        const uint64_t outer = bench::setRootSpan(span.id());
        out.emplace(realRunStages(self, units));
        bench::setRootSpan(outer);
    }
    if (bench::tracing() && !out->empty()) {
        // The fan-out proper starts after the profile preload; each
        // outcome's queue wait is measured from that start, so the
        // fan-out wall is the latest pickup + simulate.
        bench::LayerCounters::Fanout f;
        for (const SweepRunner::StageOutcome &o : *out) {
            f.queueWaitNs.push_back(o.queueWaitNs);
            f.busyNs += o.simulateNs;
            f.wallNs = std::max(f.wallNs, o.queueWaitNs + o.simulateNs);
        }
        std::lock_guard<std::mutex> lock(bench::mu());
        f.workers = std::min<int>(bench::layerCounters().jobs,
                                  static_cast<int>(out->size()));
        bench::layerCounters().fanouts.push_back(std::move(f));
    }
    return std::move(*out);
}

// ---- obs: the program's own stage spans --------------------------------

void realSpanBegin(lll::obs::SpanTracker *, const std::string &)
    REAL(SYM_SPAN_BEGIN);
void wrapSpanBegin(lll::obs::SpanTracker *, const std::string &)
    WRAP(SYM_SPAN_BEGIN);
void
wrapSpanBegin(lll::obs::SpanTracker *self, const std::string &name)
{
    // Experiment::stage opens "stage[<label>]" around one stage.
    const bool stage = name.rfind("stage[", 0) == 0;
    t_tracker_spans.push_back(
        stage ? bench::openSpan("core.experiment.stage") : 0);
    realSpanBegin(self, name);
}

void realSpanEnd(lll::obs::SpanTracker *) REAL(SYM_SPAN_END);
void wrapSpanEnd(lll::obs::SpanTracker *) WRAP(SYM_SPAN_END);
void
wrapSpanEnd(lll::obs::SpanTracker *self)
{
    realSpanEnd(self);
    if (!t_tracker_spans.empty()) {
        bench::closeSpan(t_tracker_spans.back());
        t_tracker_spans.pop_back();
    }
}
