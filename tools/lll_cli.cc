/**
 * @file
 * The `lll` command-line driver: the library's capabilities behind one
 * binary, the way a user of the paper's method would consume them.
 * `lll help` prints the command index; kCommands below is its source.
 *
 * Variant opts: vect 2-ht 4-ht l2-pref tiling unroll-jam fusion distr
 * analyze/trace also accept `--cores N` (drive the load with fewer
 * cores), `--json FILE` (machine-readable report, "-" for stdout) and
 * `--metrics FILE` (sampled time series as CSV).
 * lint accepts `--json FILE` and `--determinism` (event-order race
 * check; `--seeds A,B,...` picks the nonzero tie-break seeds to sweep);
 * without a workload/platform it scans the whole registry;
 * `--profile FILE` lints a cached X-Mem latency profile instead.
 * table/sweep/reproduce run through the parallel SweepRunner: `--jobs N`
 * fans units out to N workers (output is byte-identical for any N) and
 * `--cache-dir DIR` spills the result cache to disk so warm reruns skip
 * simulation entirely.  `--max-entries N` caps the in-process memo
 * (LRU) and `--spill-budget BYTES` caps the spill dir (oldest first).
 * serve reads one JSON request per line (stdin or `--batch FILE`),
 * coalesces duplicates, and answers one JSON response per line on
 * stdout, in request order — see DESIGN.md §12 for the schema.
 *
 * Every `--json FILE` export is wrapped in the same envelope:
 *   {"schema_version": 1, "command": ..., "status": {code, exit,
 *    message}, "data": ..., "telemetry": ...}
 * so consumers parse one shape and never re-derive exit semantics.
 *
 * Every subcommand is one kCommands entry — name, usage tail, one-line
 * summary, handler — and that table is the single source of dispatch
 * (including `lll profile <cmd>`), the `lll help` index and each
 * `lll <cmd> --help` page.  Flag parsing is shared (util::ArgParser):
 * repeated flags, missing values and unknown leftovers fail the same
 * way on every subcommand, and `--help` renders the one generated usage
 * format (every registered flag listed) and exits 0.
 *
 * Exit codes (see README "Robustness"): 0 success, 2 usage error,
 * 3 bad input data (including lint errors and failed serve requests),
 * 4 simulation failure (including determinism divergence), 1 anything
 * else.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/tracer.hh"

#include "analysis/determinism.hh"
#include "analysis/spec_lint.hh"
#include "audit/audit.hh"
#include "counters/vendor_matrix.hh"
#include "faultinject/faultinject.hh"
#include "lll/api.hh"
#include "lll/lll.hh"
#include "net/listener.hh"
#include "net/loadgen.hh"
#include "net/serve_handler.hh"
#include "obs/profiler.hh"
#include "obs/timer.hh"
#include "perf/bench_report.hh"
#include "perf/microbench.hh"
#include "search/axes.hh"
#include "search/search.hh"
#include "util/argparse.hh"
#include "util/diagnostic.hh"
#include "util/names.hh"
#include "util/status.hh"

using namespace lll;
using util::ArgParser;
using util::ErrorCode;
using util::Status;
using workloads::Opt;
using workloads::OptSet;

namespace
{

/** Report @p status on stderr and map it to the process exit code. */
int
failWith(const Status &status)
{
    std::fprintf(stderr, "lll: %s\n", status.toString().c_str());
    return util::exitCodeFor(status.code());
}

/** The exit code a command's final verdict maps to. */
int
exitFor(const Status &verdict)
{
    return verdict.ok() ? 0 : util::exitCodeFor(verdict.code());
}

Status
writeExportChecked(const std::string &path, const std::string &content)
{
    if (!obs::writeExport(path, content)) {
        return Status::error(ErrorCode::IoError, "cannot write '%s'",
                             path.c_str());
    }
    return Status::okStatus();
}

struct Cli;

/**
 * One subcommand.  The kCommands table of these is the only list of
 * commands: dispatch, `lll profile <cmd>`, the `lll help` index and
 * `lll <cmd> --help` all read it.
 */
struct Command
{
    const char *name;
    const char *usage;   //!< operands and flags after the name, or ""
    const char *summary; //!< one line, in the index and in --help
    int (*run)(Cli &);
};

/** `usage: lll <this>` for @p cmd. */
std::string
usageLine(const Command &cmd)
{
    std::string line = cmd.name;
    if (*cmd.usage)
        line += std::string(" ") + cmd.usage;
    return line;
}

/** One invocation of a subcommand: its table entry and its flags. */
struct Cli
{
    const Command &cmd;
    /** The tokens after the command name; `profile` splits them. */
    std::vector<std::string> args;
    ArgParser ap{args};

    /**
     * The one check after a handler's last flag accessor, before it
     * resolves any operand: `--help` prints the entry's usage, summary
     * and registered flags (exit 0); otherwise the first flag error
     * exits 2.  nullopt means run on.
     */
    std::optional<int> flags() const
    {
        if (ap.helpRequested()) {
            std::fputs(ap.helpText(usageLine(cmd), cmd.summary).c_str(),
                       stdout);
            return 0;
        }
        if (!ap.status().ok())
            return failWith(ap.status());
        return std::nullopt;
    }

    /** flags() for a command without operands: leftovers are errors. */
    std::optional<int> flagsOnly() const
    {
        if (std::optional<int> rc = flags())
            return rc;
        Status extra = ap.finish();
        if (!extra.ok())
            return failWith(extra);
        return std::nullopt;
    }

    /** The usage error for a missing operand: "<cmd> needs <what>". */
    int needs(const char *what) const
    {
        return failWith(Status::error(ErrorCode::InvalidArgument,
                                      "%s needs %s", cmd.name, what));
    }

    /**
     * Finish with the `--json` envelope: when @p path is set, write
     * @p data (plus @p registry's telemetry, if any) under this
     * command's name with @p verdict and @p exit_code.  Returns
     * @p exit_code, or the write failure's exit code.
     */
    int envelope(const std::string &path, const Status &verdict,
                 int exit_code, const std::string &data,
                 const obs::MetricRegistry *registry = nullptr) const
    {
        if (path.empty())
            return exit_code;
        const std::string telemetry =
            registry ? obs::exportJson(*registry,
                                       &obs::SpanTracker::global())
                     : std::string();
        Status s = writeExportChecked(
            path, obs::jsonEnvelope(cmd.name, verdict, exit_code, data,
                                    telemetry));
        return s.ok() ? exit_code : failWith(s);
    }
};

int
dispatch(const Command &cmd, std::vector<std::string> args)
{
    Cli c{cmd, std::move(args)};
    return cmd.run(c);
}

const Command *findCommand(const std::string &name);

util::Result<OptSet>
parseOpts(const std::vector<std::string> &args)
{
    OptSet set;
    for (const std::string &s : args) {
        if (s == "vect")
            set = set.with(Opt::Vectorize);
        else if (s == "2-ht")
            set = set.with(Opt::Smt2);
        else if (s == "4-ht")
            set = set.with(Opt::Smt4);
        else if (s == "l2-pref")
            set = set.with(Opt::SwPrefetchL2);
        else if (s == "tiling")
            set = set.with(Opt::Tiling);
        else if (s == "unroll-jam")
            set = set.with(Opt::UnrollJam);
        else if (s == "fusion")
            set = set.with(Opt::Fusion);
        else if (s == "distr")
            set = set.with(Opt::Distribution);
        else if (!s.empty() && s[0] == '-')
            return Status::error(ErrorCode::InvalidArgument,
                                 "unknown flag '%s'", s.c_str());
        else
            return Status::error(ErrorCode::InvalidArgument,
                                 "unknown optimization '%s'", s.c_str());
    }
    return set;
}

util::Result<xmem::LatencyProfile>
profileFor(const platforms::Platform &p)
{
    return xmem::XMemHarness().measureCachedChecked(
        p, xmem::defaultProfilePath(p));
}

int
cmdPlatforms(Cli &c)
{
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;
    Table t({"id", "description", "cores @ rate", "peak BW",
             "L1/L2 MSHRs", "line", "SMT", "peak DP"});
    for (const platforms::Platform &p : platforms::allPlatforms()) {
        t.addRow({p.name, p.description,
                  std::to_string(p.totalCores) + " @ " +
                      fmtDouble(p.freqGHz, 1) + "GHz",
                  fmtDouble(p.peakGBs, 0) + " GB/s",
                  std::to_string(p.l1Mshrs) + "/" +
                      std::to_string(p.l2Mshrs),
                  std::to_string(p.lineBytes) + "B",
                  std::to_string(p.maxSmtWays) + "-way",
                  fmtDouble(p.peakGFlops / 1000.0, 2) + " TF"});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}

int
cmdWorkloads(Cli &c)
{
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;
    Table t({"id", "description", "routine", "problem size", "pattern"});
    for (const workloads::WorkloadPtr &w : workloads::allWorkloads()) {
        t.addRow({w->name(), w->description(), w->routine(),
                  w->problemSize(),
                  w->randomDominated() ? "random" : "streaming"});
    }
    t.addRow({"dgemm", "Dense matrix multiply (extension)",
              "dgemm_kernel", "m=n=k=2048", "streaming"});
    std::fputs(t.render().c_str(), stdout);
    return 0;
}

int
cmdVendors(Cli &c)
{
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;
    Table t({"vendor", "stall breakdown", "L1-MSHRQ-full",
             "L2-MSHRQ-full", "mem latency", "mem traffic"});
    for (const counters::VendorSummary &v :
         counters::vendorSummaries()) {
        t.addRow({platforms::vendorName(v.vendor),
                  counters::visibilityName(v.stallBreakdown),
                  counters::visibilityName(v.l1MshrFullStalls),
                  counters::visibilityName(v.l2MshrFullStalls),
                  counters::visibilityName(v.memoryLatency),
                  counters::visibilityName(v.memoryTraffic)});
    }
    std::fputs(t.render().c_str(), stdout);
    return 0;
}

int
cmdCharacterize(Cli &c)
{
    const bool fresh =
        c.ap.boolFlag("--fresh", "re-measure even when a profile exists");
    if (std::optional<int> rc = c.flags())
        return *rc;
    if (c.ap.rest().empty())
        return c.needs("a platform (or 'all')");
    const std::string which = c.ap.rest().front();
    c.ap.consumePositional(1);
    Status extra = c.ap.finish();
    if (!extra.ok())
        return failWith(extra);

    std::vector<platforms::Platform> plats;
    if (which == "all") {
        plats = platforms::allPlatforms();
    } else {
        util::Result<platforms::Platform> p =
            platforms::findPlatform(which);
        if (!p.ok())
            return failWith(p.status());
        plats.push_back(p.take());
    }
    for (const platforms::Platform &p : plats) {
        std::string path = xmem::defaultProfilePath(p);
        if (fresh)
            (void)std::remove(path.c_str()); // absent file is fine
        util::Result<xmem::LatencyProfile> prof =
            xmem::XMemHarness().measureCachedChecked(p, path);
        if (!prof.ok())
            return failWith(prof.status());
        std::printf("%s: idle %.0f ns, peak achievable %.0f GB/s "
                    "(profile: %s)\n",
                    p.name.c_str(), prof->idleLatencyNs(),
                    prof->maxMeasuredGBs(), path.c_str());
    }
    return 0;
}

/** Shared argv parsing of analyze/trace: workload platform [opts/flags]. */
struct VariantArgs
{
    workloads::WorkloadPtr workload;
    platforms::Platform platform;
    OptSet opts;
    std::string jsonPath;
    std::string metricsPath;
    int cores = 0; //!< 0 = all of the platform's cores
};

/**
 * Parse analyze/trace's flags and operands into @p va.  Returns the
 * exit code when the command must stop (help, a flag error, a bad
 * operand); nullopt to run on.
 */
std::optional<int>
parseVariant(Cli &c, VariantArgs &va)
{
    ArgParser &ap = c.ap;
    va.jsonPath = ap.stringFlag("--json");
    va.metricsPath = ap.stringFlag("--metrics");
    va.cores = ap.intFlag("--cores", 0);
    if (std::optional<int> rc = c.flags())
        return rc;

    if (ap.rest().size() < 2)
        return c.needs("a workload and a platform");
    util::Result<workloads::WorkloadPtr> w =
        workloads::findWorkload(ap.rest()[0]);
    if (!w.ok())
        return failWith(w.status());
    va.workload = w.take();
    util::Result<platforms::Platform> p =
        platforms::findPlatform(ap.rest()[1]);
    if (!p.ok())
        return failWith(p.status());
    va.platform = p.take();
    ap.consumePositional(2);

    util::Result<OptSet> opts = parseOpts(ap.rest());
    if (!opts.ok())
        return failWith(opts.status());
    va.opts = opts.take();
    return std::nullopt;
}

/**
 * analyze/trace's exports: the `--json` envelope around @p data, then
 * the `--metrics` CSV.
 */
int
variantExports(const Cli &c, const VariantArgs &va,
               const obs::MetricRegistry &registry, const std::string &data)
{
    if (int rc = c.envelope(va.jsonPath, Status::okStatus(), 0, data,
                            &registry))
        return rc;
    if (va.metricsPath.empty())
        return 0;
    Status s = writeExportChecked(va.metricsPath, obs::exportCsv(registry));
    return s.ok() ? 0 : failWith(s);
}

int
cmdAnalyze(Cli &c)
{
    VariantArgs va;
    if (std::optional<int> rc = parseVariant(c, va))
        return *rc;

    obs::MetricRegistry registry;
    core::Experiment::Params ep;
    ep.coresUsed = va.cores;
    if (!va.jsonPath.empty() || !va.metricsPath.empty())
        ep.registry = &registry;

    util::Result<xmem::LatencyProfile> prof = profileFor(va.platform);
    if (!prof.ok())
        return failWith(prof.status());

    // When an export goes to stdout the human report moves to stderr so
    // `lll analyze ... --json - | jq` stays parseable.
    FILE *rep = (va.jsonPath == "-" || va.metricsPath == "-") ? stderr
                                                              : stdout;
    util::Result<core::Experiment> exp = core::Experiment::create(
        va.platform, *va.workload, prof.take(), ep);
    if (!exp.ok())
        return failWith(exp.status());
    const core::StageMetrics &m = exp->stage(va.opts);
    const core::Analysis &a = m.analysis;
    std::fprintf(rep, "%s [%s] on %s:\n", va.workload->routine().c_str(),
                 va.opts.label().c_str(), va.platform.name.c_str());
    std::fprintf(rep,
                 "  BW %.1f GB/s (%.0f%% of peak), loaded latency %.0f "
                 "ns\n",
                 a.bwGBs, a.pctPeak * 100.0, a.latencyNs);
    std::fprintf(rep, "  n_avg %.2f of %u %s MSHRs (%s accesses)\n",
                 a.nAvg, a.limitingMshrs,
                 core::mshrLevelName(a.limitingLevel),
                 core::accessClassName(a.accessClass));
    for (const std::string &warning : a.warnings)
        std::fprintf(rep, "  warning: %s\n", warning.c_str());
    core::Recipe recipe(va.platform);
    core::RecipeDecision d = recipe.advise(a, va.opts);
    std::fprintf(rep, "  %s\n", d.summary.c_str());
    for (const core::Recommendation &r : d.recommendations) {
        std::fprintf(rep, "    [%s] %-22s %s\n",
                     r.recommended ? "TRY " : "skip",
                     workloads::optName(r.opt), r.rationale.c_str());
    }

    return variantExports(c, va, registry,
                          service::stageDataJson(m, va.platform.name,
                                                 va.workload->name(),
                                                 va.opts.label()));
}

int
cmdTrace(Cli &c)
{
    VariantArgs va;
    if (std::optional<int> rc = parseVariant(c, va))
        return *rc;
    workloads::WorkloadPtr &w = va.workload;
    platforms::Platform &p = va.platform;

    obs::MetricRegistry registry;
    sim::RunResult run;
    sim::RequestTracer tracer;
    {
        obs::ScopedSpan span("trace[" + w->name() + "/" +
                             va.opts.label() + "]");
        sim::KernelSpec spec = w->spec(p, va.opts);
        util::Result<sim::SystemParams> sp = p.trySysParams(
            va.cores > 0 ? va.cores : p.totalCores, va.opts.smtWays());
        if (!sp.ok())
            return failWith(sp.status());
        sim::System sys(*sp, spec);
        sys.mem().setTracer(&tracer);
        sys.attachObservability(registry);
        util::Result<sim::RunResult> r =
            sys.runChecked(w->warmupUs(), w->measureUs());
        if (!r.ok())
            return failWith(r.status());
        run = r.take();
    }

    FILE *rep = (va.jsonPath == "-" || va.metricsPath == "-") ? stderr
                                                              : stdout;
    std::fprintf(rep, "%s [%s] on %s: %.1f GB/s over %.0f us\n",
                 w->routine().c_str(), va.opts.label().c_str(),
                 p.name.c_str(), run.totalGBs, w->measureUs());
    std::fprintf(rep, "  telemetry: %llu snapshots of %zu time series\n",
                 static_cast<unsigned long long>(registry.snapshots()),
                 registry.allSeries().size());
    std::fprintf(rep,
                 "  trace window: %zu of %llu memory requests, locality "
                 "%.2f\n",
                 tracer.size(),
                 static_cast<unsigned long long>(tracer.total()),
                 tracer.localityScore());
    if (va.jsonPath.empty() && va.metricsPath.empty())
        std::fprintf(rep, "  (use --json FILE / --metrics FILE to "
                          "export)\n");

    return variantExports(c, va, registry,
                          va.jsonPath.empty() ? std::string()
                                              : tracer.toJson());
}

int
cmdWalk(Cli &c)
{
    ArgParser &ap = c.ap;
    if (std::optional<int> rc = c.flags())
        return *rc;
    if (ap.rest().size() < 2)
        return c.needs("a workload and a platform");
    util::Result<workloads::WorkloadPtr> w =
        workloads::findWorkload(ap.rest()[0]);
    if (!w.ok())
        return failWith(w.status());
    util::Result<platforms::Platform> p =
        platforms::findPlatform(ap.rest()[1]);
    if (!p.ok())
        return failWith(p.status());
    ap.consumePositional(2);
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);
    util::Result<xmem::LatencyProfile> prof = profileFor(*p);
    if (!prof.ok())
        return failWith(prof.status());
    util::Result<core::Experiment> exp =
        core::Experiment::create(*p, **w, prof.take());
    if (!exp.ok())
        return failWith(exp.status());
    core::Recipe recipe(*p);

    OptSet state;
    double base = exp->stage(state).throughput;
    for (int step = 0; step < 8; ++step) {
        const core::StageMetrics &m = exp->stage(state);
        core::RecipeDecision d = recipe.advise(m.analysis, state);
        std::printf("[%s] n_avg %.2f/%u, BW %.0f%%, cum %.2fx — %s\n",
                    state.label().c_str(), m.analysis.nAvg,
                    m.analysis.limitingMshrs, m.analysis.pctPeak * 100.0,
                    m.throughput / base, d.summary.c_str());
        bool moved = false;
        for (Opt opt : d.recommendedOpts()) {
            double s = exp->speedup(state, state.with(opt));
            std::printf("  %s -> %.2fx\n", workloads::optName(opt), s);
            if (s >= 1.02) {
                state = state.with(opt);
                moved = true;
                break;
            }
        }
        if (!moved || d.stop)
            break;
    }
    std::printf("final: [%s] %.2fx\n", state.label().c_str(),
                exp->stage(state).throughput / base);
    return 0;
}

/**
 * Apply the shared cache-capacity knobs to @p cache: `--max-entries N`
 * (in-process LRU cap), `--spill-budget BYTES` (on-disk cap, oldest
 * spill evicted first) and `--cache-dir DIR`.  Policy flags are
 * applied *before* the spill dir attaches so a pre-existing dir is
 * GC'd against the budget immediately; a flag error met so far wins
 * over attaching it.
 */
Status
applyCacheFlags(ArgParser &ap, core::ResultCache &cache)
{
    const int max_entries = ap.intFlag("--max-entries", 0);
    if (max_entries > 0)
        cache.setMaxEntries(static_cast<size_t>(max_entries));
    const uint64_t budget = ap.uint64Flag("--spill-budget", 0);
    if (budget > 0)
        cache.setSpillBudget(budget);
    const std::string dir = ap.stringFlag("--cache-dir");
    if (dir.empty() || !ap.status().ok())
        return Status::okStatus();
    return cache.setSpillDir(dir);
}

/**
 * Pull the SweepRunner knobs (`--jobs N` plus the cache-capacity
 * flags) out of @p ap.  The global ResultCache is always engaged — a
 * sweep revisiting a stage must never pay for it twice — and
 * `--cache-dir` additionally spills it to disk so the *next process*
 * is warm too.
 */
util::Result<core::SweepRunner::Params>
parseSweepFlags(ArgParser &ap)
{
    core::SweepRunner::Params sp;
    sp.cache = &core::ResultCache::global();
    sp.jobs = ap.intFlag("--jobs", 1);
    Status cache = applyCacheFlags(ap, *sp.cache);
    if (!cache.ok())
        return cache;
    return sp;
}

/** The paper-table header; `sweep` leads with the workload column. */
Table
paperRowsTable(bool lead_with_workload)
{
    std::vector<std::string> header = {
        "Proc",  "Source",        "BW_obs (GB/s)", "lat_avg (ns)",
        "n_avg", "Opt: measured", "paper",         "recipe"};
    if (lead_with_workload)
        header.insert(header.begin(), "Workload");
    return Table(std::move(header));
}

/** Append one unit's paper rows to @p t (no trailing separator). */
void
addUnitRows(Table &t, const core::SweepRunner::UnitResult &u,
            bool lead_with_workload)
{
    double peak = 0.0;
    util::Result<platforms::Platform> p =
        platforms::findPlatform(u.platform);
    if (p.ok())
        peak = p->peakGBs;
    for (const core::TableRow &row : u.rows) {
        std::string opt = row.optLabel;
        std::string paper = "-";
        std::string recipe = "-";
        if (row.speedup > 0.0) {
            opt += ": " + fmtSpeedup(row.speedup);
            if (row.paperSpeedup > 0.0)
                paper = fmtSpeedup(row.paperSpeedup);
            recipe = row.recommended ? "rec" : "not-rec";
        }
        std::vector<std::string> cells;
        if (lead_with_workload)
            cells.push_back(u.workload);
        cells.insert(cells.end(),
                     {u.platform, row.source, fmtBwPct(row.bwGBs, peak),
                      fmtDouble(row.latencyNs, 0),
                      fmtDouble(row.nAvg, 2), opt, paper, recipe});
        t.addRow(cells);
    }
}

/** How many tried optimizations the recipe's verdict got right. */
struct Agreement
{
    int agree = 0;
    int tried = 0;
};

/**
 * Print one paper table — units [@p begin, @p end) of @p res, one
 * block per platform — with its recipe/outcome agreement line under
 * it, and return that tally.
 */
Agreement
printPaperTable(const std::vector<core::SweepRunner::UnitResult> &res,
                size_t begin, size_t end)
{
    Table t = paperRowsTable(false);
    Agreement a;
    for (size_t i = begin; i < end; ++i) {
        addUnitRows(t, res[i], false);
        t.addSeparator();
        for (const core::TableRow &row : res[i].rows) {
            if (row.speedup > 0.0) {
                ++a.tried;
                a.agree += row.recipeAgrees() ? 1 : 0;
            }
        }
    }
    std::fputs(t.render().c_str(), stdout);
    std::printf("recipe/outcome agreement: %d of %d tried optimizations "
                "(recommended<->helped)\n",
                a.agree, a.tried);
    return a;
}

/** The ResultCache counters as a JSON object (shared by sweep/serve). */
std::string
cacheStatsJson(const core::ResultCache::Stats &cs)
{
    std::ostringstream out;
    out << "{\"hits\": " << cs.hits << ", \"misses\": " << cs.misses
        << ", \"disk_loads\": " << cs.diskLoads << ", \"spills\": "
        << cs.spills << ", \"evictions\": " << cs.evictions
        << ", \"spill_evictions\": " << cs.spillEvictions << "}";
    return out.str();
}

int
cmdTable(Cli &c)
{
    ArgParser &ap = c.ap;
    util::Result<core::SweepRunner::Params> sp = parseSweepFlags(ap);
    if (!sp.ok())
        return failWith(sp.status());
    if (std::optional<int> rc = c.flags())
        return *rc;
    if (ap.rest().empty())
        return c.needs("a workload");
    util::Result<workloads::WorkloadPtr> w =
        workloads::findWorkload(ap.rest().front());
    if (!w.ok())
        return failWith(w.status());
    ap.consumePositional(1);
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    std::vector<workloads::WorkloadPtr> wls;
    wls.push_back(w.take());
    const std::vector<core::SweepUnit> units =
        core::sweepUnits(platforms::allPlatforms(), wls);
    core::SweepRunner runner(*sp);
    util::Result<std::vector<core::SweepRunner::UnitResult>> res =
        runner.run(units);
    if (!res.ok())
        return failWith(res.status());

    printPaperTable(*res, 0, res->size());
    return 0;
}

int
cmdSweep(Cli &c)
{
    const std::string json = c.ap.stringFlag("--json");
    util::Result<core::SweepRunner::Params> sp = parseSweepFlags(c.ap);
    if (!sp.ok())
        return failWith(sp.status());
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;

    obs::MetricRegistry registry;
    if (!json.empty())
        sp->registry = &registry;

    const std::vector<workloads::WorkloadPtr> wls =
        workloads::allWorkloadsAndExtensions();
    const std::vector<core::SweepUnit> units =
        core::sweepUnits(platforms::allPlatforms(), wls);
    core::SweepRunner runner(*sp);
    util::Result<std::vector<core::SweepRunner::UnitResult>> res =
        runner.run(units);
    if (!res.ok())
        return failWith(res.status());

    FILE *rep = json == "-" ? stderr : stdout;
    Table t = paperRowsTable(true);
    size_t rows = 0;
    std::string last_workload;
    for (const core::SweepRunner::UnitResult &u : *res) {
        if (!last_workload.empty() && u.workload != last_workload)
            t.addSeparator();
        last_workload = u.workload;
        addUnitRows(t, u, true);
        rows += u.rows.size();
    }
    std::fputs(t.render().c_str(), rep);
    // Note: no worker count here — `sweep --jobs 4` must stay
    // byte-identical to `--jobs 1`.
    const core::ResultCache::Stats cs = sp->cache->stats();
    std::fprintf(rep,
                 "sweep: %zu units, %zu rows — cache: %llu hits, %llu "
                 "misses, %llu disk loads, %llu spills\n",
                 res->size(), rows,
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.diskLoads),
                 static_cast<unsigned long long>(cs.spills));

    if (json.empty())
        return 0;
    std::ostringstream out;
    out.precision(17);
    out << "{\n  \"units\": [";
    bool first_unit = true;
    for (const core::SweepRunner::UnitResult &u : *res) {
        out << (first_unit ? "" : ",") << "\n    {\"workload\": \""
            << u.workload << "\", \"platform\": \"" << u.platform
            << "\", \"rows\": [";
        bool first_row = true;
        for (const core::TableRow &row : u.rows) {
            out << (first_row ? "" : ",")
                << "\n      {\"source\": \"" << row.source
                << "\", \"bw_gbs\": " << row.bwGBs
                << ", \"pct_peak\": " << row.pctPeak
                << ", \"latency_ns\": " << row.latencyNs
                << ", \"n_avg\": " << row.nAvg << ", \"opt\": \""
                << row.optLabel << "\", \"speedup\": " << row.speedup
                << ", \"paper_speedup\": " << row.paperSpeedup
                << ", \"recommended\": "
                << (row.recommended ? "true" : "false") << "}";
            first_row = false;
        }
        out << (first_row ? "" : "\n    ") << "]}";
        first_unit = false;
    }
    out << (first_unit ? "" : "\n  ") << "],\n  \"cache\": "
        << cacheStatsJson(cs) << "\n}";
    return c.envelope(json, Status::okStatus(), 0, out.str(), &registry);
}

int
cmdReproduce(Cli &c)
{
    util::Result<core::SweepRunner::Params> sp = parseSweepFlags(c.ap);
    if (!sp.ok())
        return failWith(sp.status());
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;

    const std::vector<workloads::WorkloadPtr> wls =
        workloads::allWorkloads();
    const std::vector<core::SweepUnit> units =
        core::sweepUnits(platforms::allPlatforms(), wls);
    core::SweepRunner runner(*sp);
    util::Result<std::vector<core::SweepRunner::UnitResult>> res =
        runner.run(units);
    if (!res.ok())
        return failWith(res.status());

    // sweepUnits() is workload-major, so each paper table's units are a
    // contiguous run of the result vector.
    Agreement total;
    size_t begin = 0;
    for (const workloads::WorkloadPtr &w : wls) {
        std::printf("== %s: %s ==\n", w->name().c_str(),
                    w->routine().c_str());
        size_t end = begin;
        while (end < res->size() && (*res)[end].workload == w->name())
            ++end;
        const Agreement a = printPaperTable(*res, begin, end);
        total.agree += a.agree;
        total.tried += a.tried;
        std::printf("\n");
        begin = end;
    }
    std::printf("total recipe/outcome agreement: %d of %d tried "
                "optimizations\n",
                total.agree, total.tried);
    return 0;
}

/**
 * `lll search <workload> <platform> [opts ...] --axis name=spec ...`:
 * the bounds-pruned design-space autotuner (DESIGN.md §17).  The cross
 * product of the axes (plus any explicit `--point`s) is enumerated,
 * candidates whose analytic Little's-law ceiling proves them dominated
 * by a strictly cheaper simulated point are pruned before they cost a
 * simulation, and the survivors' Pareto frontier (bandwidth vs
 * MSHR+bank cost) is reported.  Output is byte-identical for any
 * `--jobs N` and across warm `--cache-dir` reruns.
 */
int
cmdSearch(Cli &c)
{
    ArgParser &ap = c.ap;
    search::SearchSpec spec;

    const std::vector<std::string> axis_flags = ap.stringList(
        "--axis", "one axis: name=lo:hi:*k | lo:hi:+s | a,b,c");
    const std::vector<std::string> point_flags = ap.stringList(
        "--point", "one explicit extra point: name=v,name=v,...");
    const bool list_axes =
        ap.boolFlag("--list-axes", "list the known axes and exit");
    const std::string json = ap.stringFlag(
        "--json", "write the envelope report to FILE (\"-\" = stdout)");
    spec.cores = ap.intFlag("--cores", 0,
                            "cores driving the load (default: all)");
    util::Result<core::SweepRunner::Params> sp = parseSweepFlags(ap);
    if (!sp.ok())
        return failWith(sp.status());
    spec.seed =
        ap.uint64Flag("--seed", spec.seed, "simulation tie-break seed");
    spec.warmupUs = ap.doubleFlag("--warmup-us", 0.0,
                                  "warmup window (default: workload's)");
    spec.measureUs = ap.doubleFlag(
        "--measure-us", 0.0, "measure window (default: workload's)");
    spec.bankWeight = ap.doubleFlag("--bank-weight", spec.bankWeight,
                                    "cost = L1 + L2 MSHRs + W x banks");
    spec.maxCandidates = size_t(ap.intFlag("--max-candidates",
                                           int(spec.maxCandidates),
                                           "refuse larger spaces up front"));
    const bool all = ap.boolFlag(
        "--all", "print every candidate row, not just the frontier");
    spec.disablePruning = ap.boolFlag(
        "--no-prune", "simulate everything (skip analytic pruning)");
    if (std::optional<int> rc = c.flags())
        return *rc;

    if (list_axes) {
        Table t({"axis", "values"});
        for (const search::AxisDef &def : search::knownAxes())
            t.addRow({def.name, def.help});
        std::fputs(t.render().c_str(), stdout);
        return 0;
    }

    if (ap.rest().size() < 2)
        return c.needs("a workload and a platform");
    spec.workloadName = ap.rest()[0];
    spec.platformName = ap.rest()[1];
    ap.consumePositional(2);
    util::Result<OptSet> opts = parseOpts(ap.rest());
    if (!opts.ok())
        return failWith(opts.status());
    spec.opts = opts.take();

    for (const std::string &text : axis_flags) {
        util::Result<search::Axis> axis = search::parseAxis(text);
        if (!axis.ok())
            return failWith(axis.status());
        spec.axes.push_back(axis.take());
    }
    for (const std::string &text : point_flags) {
        util::Result<search::Assignment> point =
            search::parsePoint(text);
        if (!point.ok())
            return failWith(point.status());
        spec.points.push_back(point.take());
    }
    if (spec.axes.empty() && spec.points.empty()) {
        return failWith(Status::error(
            ErrorCode::InvalidArgument,
            "search needs at least one --axis (or --point); see "
            "--list-axes"));
    }

    obs::MetricRegistry registry;
    search::Searcher::Params pp;
    pp.jobs = sp->jobs;
    pp.cache = sp->cache;
    pp.registry = &registry;
    search::Searcher searcher(pp);
    util::Result<search::SearchResult> result = searcher.run(spec);
    if (!result.ok())
        return failWith(result.status());

    FILE *rep = json == "-" ? stderr : stdout;
    std::fputs(search::renderSearchText(*result, all).c_str(), rep);
    return c.envelope(json, Status::okStatus(), 0,
                      search::searchDataJson(*result, true), &registry);
}

net::Listener *g_serveListener = nullptr;

extern "C" void
serveSignalHandler(int)
{
    // requestShutdown is async-signal-safe (atomic bump + pipe write);
    // the second signal abandons the drain and exits immediately.
    if (g_serveListener != nullptr)
        g_serveListener->requestShutdown();
}

/** p50/p90/p99 of @p h (nanosecond samples) as "a/b/c" in ms. */
std::string
fmtPercentilesMs(const obs::Log2Histogram &h)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f/%.2f/%.2f",
                  h.percentile(0.50) / 1e6, h.percentile(0.90) / 1e6,
                  h.percentile(0.99) / 1e6);
    return buf;
}

/** The same percentiles as a JSON object (ms). */
std::string
percentilesMsJson(const obs::Log2Histogram &h)
{
    std::ostringstream out;
    out << "{\"p50\": " << h.percentile(0.50) / 1e6
        << ", \"p90\": " << h.percentile(0.90) / 1e6
        << ", \"p99\": " << h.percentile(0.99) / 1e6
        << ", \"samples\": " << h.total() << "}";
    return out.str();
}

/**
 * `lll serve --listen`: the socket front-end (DESIGN.md §14).  One
 * poll() event loop multiplexes persistent TCP/unix connections onto
 * `--jobs` workers behind a bounded admission gate: at most
 * `--max-inflight` requests run or queue at once and the excess is
 * answered immediately with a structured `unavailable` response
 * instead of being buffered toward collapse.  SIGTERM/SIGINT drain:
 * admitted work finishes and flushes, then the process exits 0.
 */
int
cmdServeListen(Cli &c, const std::string &batch, const std::string &listen,
               const std::string &listen_unix, int jobs,
               int stats_interval, bool request_telemetry,
               const std::string &json_path, core::ResultCache &cache)
{
    ArgParser &ap = c.ap;
    net::ListenerParams lp;
    lp.maxInflight =
        size_t(ap.intFlag("--max-inflight", int(lp.maxInflight)));
    lp.maxPipelined =
        size_t(ap.intFlag("--max-pipelined", int(lp.maxPipelined)));
    lp.maxConns = size_t(ap.intFlag("--max-conns", int(lp.maxConns)));
    lp.maxFrameBytes =
        size_t(ap.uint64Flag("--max-line-bytes", lp.maxFrameBytes));
    lp.maxWriteBuffer =
        size_t(ap.uint64Flag("--max-write-buffer", lp.maxWriteBuffer));
    lp.idleTimeoutMs = ap.intFlag("--idle-timeout-ms", lp.idleTimeoutMs);
    lp.readTimeoutMs = ap.intFlag("--read-timeout-ms", lp.readTimeoutMs);
    lp.watchdogMs = ap.intFlag("--watchdog-ms", lp.watchdogMs);
    lp.drainGraceMs = ap.intFlag("--drain-grace-ms", lp.drainGraceMs);
    // Help lands here too, so the one page lists both modes' flags.
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;
    if (!batch.empty()) {
        return failWith(Status::error(
            ErrorCode::InvalidArgument,
            "--batch and --listen are mutually exclusive"));
    }
    if (!listen.empty()) {
        Status hp = net::parseHostPort(listen, &lp.tcpHost, &lp.tcpPort);
        if (!hp.ok())
            return failWith(hp);
    }
    lp.unixPath = listen_unix;
    lp.workers = jobs;
    lp.statsIntervalResponses = stats_interval;

    net::ServeHandlerParams hp;
    hp.cache = &cache;
    hp.requestTelemetry = request_telemetry;
    lp.handler = net::ServeHandler(hp);
    obs::MetricRegistry registry;
    lp.registry = &registry;

    // Warm every platform's X-Mem profile once, up front: worker
    // threads must never race to measure + write the same profile
    // file on their first request.
    for (const platforms::Platform &p : platforms::allPlatforms())
        (void)profileFor(p);

    const std::string tcp_host = lp.tcpHost;
    net::Listener listener(std::move(lp));
    Status started = listener.start();
    if (!started.ok())
        return failWith(started);

    g_serveListener = &listener;
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGTERM, serveSignalHandler);
    std::signal(SIGINT, serveSignalHandler);
    if (!listen.empty()) {
        // Parseable by scripts that bind port 0 (the CI smoke does).
        std::fprintf(stderr, "serve: listening on %s:%d\n",
                     tcp_host.c_str(), listener.tcpPort());
    }
    if (!listen_unix.empty()) {
        std::fprintf(stderr, "serve: listening on unix:%s\n",
                     listen_unix.c_str());
    }
    std::fflush(stderr);

    Status ran = listener.run();
    g_serveListener = nullptr;
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);

    auto count = [&registry](const char *name) {
        return static_cast<unsigned long long>(
            registry.counter(name).value());
    };
    std::fprintf(
        stderr,
        "serve: %llu requests on %llu connections — %llu admitted, "
        "%llu shed, %llu malformed, %llu failed; request p50/p90/p99 "
        "%s ms, queue wait %s ms\n",
        count(util::names::kNetRequestsReceivedTotal),
        count(util::names::kNetConnsAcceptedTotal),
        count(util::names::kNetRequestsAdmittedTotal),
        count(util::names::kNetRequestsShedTotal),
        count(util::names::kNetRequestsMalformedTotal),
        count(util::names::kNetRequestsFailedTotal),
        fmtPercentilesMs(registry.histogram(util::names::kNetLatencyRequestNs))
            .c_str(),
        fmtPercentilesMs(
            registry.histogram(util::names::kNetLatencyQueueWaitNs))
            .c_str());

    std::ostringstream data;
    data << "{\n  \"requests\": "
         << count(util::names::kNetRequestsReceivedTotal)
         << ",\n  \"admitted\": "
         << count(util::names::kNetRequestsAdmittedTotal)
         << ",\n  \"shed\": " << count(util::names::kNetRequestsShedTotal)
         << ",\n  \"malformed\": "
         << count(util::names::kNetRequestsMalformedTotal)
         << ",\n  \"failed\": "
         << count(util::names::kNetRequestsFailedTotal)
         << ",\n  \"responses\": " << count(util::names::kNetResponsesTotal)
         << ",\n  \"connections\": {\"accepted\": "
         << count(util::names::kNetConnsAcceptedTotal) << ", \"rejected\": "
         << count(util::names::kNetConnsRejectedTotal) << ", \"closed\": "
         << count(util::names::kNetConnsClosedTotal) << "}"
         << ",\n  \"watchdog_trips\": "
         << count(util::names::kNetWatchdogTripsTotal)
         << ",\n  \"latency_ms\": {\"request\": "
         << percentilesMsJson(
                registry.histogram(util::names::kNetLatencyRequestNs))
         << ", \"queue_wait\": "
         << percentilesMsJson(
                registry.histogram(util::names::kNetLatencyQueueWaitNs))
         << ", \"handler\": "
         << percentilesMsJson(
                registry.histogram(util::names::kNetLatencyHandlerNs))
         << "}"
         << ",\n  \"cache\": " << cacheStatsJson(cache.stats())
         << "\n}";
    // A failed run is reported on stderr as well as in the envelope.
    if (!ran.ok())
        (void)failWith(ran);
    return c.envelope(json_path, ran, exitFor(ran), data.str(), &registry);
}

int
cmdServe(Cli &c)
{
    ArgParser &ap = c.ap;
    const std::string batch = ap.stringFlag("--batch");
    const std::string json = ap.stringFlag("--json");
    const int jobs = ap.intFlag("--jobs", 1);
    const int stats_interval = ap.intFlag("--stats-interval", 0);
    const bool request_telemetry = ap.boolFlag("--request-telemetry");
    const std::string listen = ap.stringFlag("--listen");
    const std::string listen_unix = ap.stringFlag("--listen-unix");
    core::ResultCache &cache = core::ResultCache::global();
    Status cache_flags = applyCacheFlags(ap, cache);
    if (!cache_flags.ok())
        return failWith(cache_flags);
    if (!listen.empty() || !listen_unix.empty() || ap.helpRequested()) {
        return cmdServeListen(c, batch, listen, listen_unix, jobs,
                              stats_interval, request_telemetry, json,
                              cache);
    }
    // Batch mode: the --listen tuning flags are left over, so they are
    // unknown flags here.
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;

    std::vector<std::string> lines;
    std::string line;
    if (!batch.empty()) {
        std::ifstream in(batch);
        if (!in) {
            return failWith(Status::error(ErrorCode::IoError,
                                          "cannot read '%s'",
                                          batch.c_str()));
        }
        while (std::getline(in, line))
            lines.push_back(line);
    } else {
        while (std::getline(std::cin, line))
            lines.push_back(line);
    }

    obs::MetricRegistry registry;
    service::RunService::Params sp;
    sp.jobs = jobs;
    sp.cache = &cache;
    sp.registry = &registry;
    service::RunService svc(sp);
    const std::vector<service::RunResponse> responses =
        svc.serveLines(lines);

    // stdout carries exactly one response line per request — nothing
    // else — so a warm rerun is byte-identical and pipeable; the human
    // summary goes to stderr.  --request-telemetry adds the wall-clock
    // "timing" object per line and therefore opts out of byte
    // identity; --stats-interval N prints a cumulative p50/p90/p99
    // stat line to stderr every N responses.
    size_t failed = 0;
    size_t written = 0;
    obs::Log2Histogram stat_total, stat_queue, stat_sim;
    for (const service::RunResponse &r : responses) {
        if (!r.status.ok())
            ++failed;
        const std::string rendered =
            service::renderRunResponse(r, request_telemetry);
        std::fwrite(rendered.data(), 1, rendered.size(), stdout);
        std::fputc('\n', stdout);
        ++written;
        if (stats_interval > 0) {
            stat_total.sample(r.timing.totalNs);
            stat_queue.sample(r.timing.queueWaitNs);
            stat_sim.sample(r.timing.simulateNs);
            if (written % static_cast<size_t>(stats_interval) == 0) {
                std::fprintf(
                    stderr,
                    "serve stats: %zu responses — total p50/p90/p99 "
                    "%.2f/%.2f/%.2f ms, queue %.2f/%.2f/%.2f ms, "
                    "simulate %.2f/%.2f/%.2f ms\n",
                    written, stat_total.percentile(0.50) / 1e6,
                    stat_total.percentile(0.90) / 1e6,
                    stat_total.percentile(0.99) / 1e6,
                    stat_queue.percentile(0.50) / 1e6,
                    stat_queue.percentile(0.90) / 1e6,
                    stat_queue.percentile(0.99) / 1e6,
                    stat_sim.percentile(0.50) / 1e6,
                    stat_sim.percentile(0.90) / 1e6,
                    stat_sim.percentile(0.99) / 1e6);
            }
        }
    }

    const uint64_t units =
        registry.counter(util::names::kServiceUnitsTotal).value();
    const uint64_t coalesced =
        registry.counter(util::names::kServiceCoalescedRequestsTotal).value();
    const core::ResultCache::Stats cs = cache.stats();
    std::fprintf(stderr,
                 "serve: %zu requests (%zu failed), %llu units "
                 "simulated, %llu coalesced — cache: %llu hits, %llu "
                 "misses, %llu evictions, %llu spill evictions\n",
                 responses.size(), failed,
                 static_cast<unsigned long long>(units),
                 static_cast<unsigned long long>(coalesced),
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.evictions),
                 static_cast<unsigned long long>(cs.spillEvictions));

    Status verdict = Status::okStatus();
    if (failed) {
        verdict = Status::error(ErrorCode::FailedPrecondition,
                                "%zu of %zu requests failed", failed,
                                responses.size());
    }
    std::ostringstream data;
    data << "{\n  \"requests\": " << responses.size()
         << ",\n  \"failed\": " << failed << ",\n  \"units\": " << units
         << ",\n  \"coalesced\": " << coalesced
         << ",\n  \"cache\": " << cacheStatsJson(cs) << "\n}";
    return c.envelope(json, verdict, exitFor(verdict), data.str(),
                      &registry);
}

/**
 * `lll bench-serve`: the load generator for the socket front-end.
 * Drives `--connections` persistent clients, each keeping up to
 * `--pipeline` requests in flight, at `--qps` aggregate (0 floods) for
 * `--duration-s`, then reports achieved throughput and latency
 * percentiles split by response class — admitted (`ok`) vs shed
 * (`unavailable`).  Shedding is the server working as designed, so it
 * never fails the run; request-level failures or connection errors
 * exit 3.
 */
int
cmdBenchServe(Cli &c)
{
    ArgParser &ap = c.ap;
    net::LoadGenParams lg;
    const std::string connect = ap.stringFlag("--connect");
    lg.unixPath = ap.stringFlag("--connect-unix");
    lg.connections = ap.intFlag("--connections", lg.connections);
    lg.pipeline = ap.intFlag("--pipeline", lg.pipeline);
    lg.qps = ap.doubleFlag("--qps", lg.qps);
    lg.durationS = ap.doubleFlag("--duration-s", lg.durationS);
    lg.drainTimeoutMs = ap.intFlag("--drain-timeout-ms", lg.drainTimeoutMs);
    const std::string requests = ap.stringFlag("--requests");
    const std::string json = ap.stringFlag("--json");
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;

    if (connect.empty() && lg.unixPath.empty())
        return c.needs("--connect HOST:PORT or --connect-unix PATH");
    if (!connect.empty()) {
        Status hp = net::parseHostPort(connect, &lg.host, &lg.port);
        if (!hp.ok())
            return failWith(hp);
    }
    if (!requests.empty()) {
        std::ifstream in(requests);
        if (!in) {
            return failWith(Status::error(ErrorCode::IoError,
                                          "cannot read '%s'",
                                          requests.c_str()));
        }
        std::string line;
        while (std::getline(in, line)) {
            if (line.find_first_not_of(" \t\r") != std::string::npos)
                lg.requestLines.push_back(line);
        }
        if (lg.requestLines.empty()) {
            return failWith(Status::error(ErrorCode::InvalidArgument,
                                          "'%s' has no request lines",
                                          requests.c_str()));
        }
    } else {
        // A small, fast request so the default run exercises the
        // server rather than one giant simulation.
        lg.requestLines = {
            "{\"schema_version\": 1, \"platform\": \"skl\", "
            "\"workload\": \"isx\", \"cores\": 6, \"warmup_us\": 5, "
            "\"measure_us\": 10}"};
    }

    std::signal(SIGPIPE, SIG_IGN);
    util::Result<net::LoadGenReport> rep = net::runLoadGen(lg);
    if (!rep.ok())
        return failWith(rep.status());

    std::printf("bench-serve: %llu sent, %llu received in %.2f s — "
                "%.1f req/s achieved\n",
                static_cast<unsigned long long>(rep->sent),
                static_cast<unsigned long long>(rep->received),
                rep->wallS, rep->achievedQps);
    std::printf("  ok          %8llu  p50/p90/p99 %s ms\n",
                static_cast<unsigned long long>(rep->ok),
                fmtPercentilesMs(rep->okLatencyNs).c_str());
    std::printf("  unavailable %8llu  p50/p90/p99 %s ms\n",
                static_cast<unsigned long long>(rep->unavailable),
                fmtPercentilesMs(rep->shedLatencyNs).c_str());
    std::printf("  failed      %8llu\n",
                static_cast<unsigned long long>(rep->failed));
    for (const std::string &e : rep->errors)
        std::fprintf(stderr, "bench-serve: %s\n", e.c_str());

    Status verdict = Status::okStatus();
    if (rep->failed > 0 || rep->connectionErrors > 0) {
        verdict = Status::error(
            ErrorCode::IoError,
            "%llu failed responses, %llu connection errors",
            static_cast<unsigned long long>(rep->failed),
            static_cast<unsigned long long>(rep->connectionErrors));
    }
    std::ostringstream data;
    data << "{\n  \"sent\": " << rep->sent << ",\n  \"received\": "
         << rep->received << ",\n  \"ok\": " << rep->ok
         << ",\n  \"unavailable\": " << rep->unavailable
         << ",\n  \"failed\": " << rep->failed
         << ",\n  \"connection_errors\": " << rep->connectionErrors
         << ",\n  \"wall_s\": " << rep->wallS
         << ",\n  \"achieved_qps\": " << rep->achievedQps
         << ",\n  \"latency_ms\": {\"all\": "
         << percentilesMsJson(rep->latencyNs)
         << ", \"ok\": " << percentilesMsJson(rep->okLatencyNs)
         << ", \"unavailable\": " << percentilesMsJson(rep->shedLatencyNs)
         << "}\n}";
    if (!verdict.ok())
        (void)failWith(verdict);
    return c.envelope(json, verdict, exitFor(verdict), data.str());
}

/**
 * `lll bench`: run the perf microbenchmark kernels (src/perf) for
 * repeated trials and report events/sec (min/median/IQR across trials)
 * plus per-item latency quantiles.  `--json FILE` writes the versioned
 * BENCH report in the standard envelope; `--compare BASELINE` applies
 * the perf ratchet and exits 3 on regression beyond `--tolerance`.
 */
int
cmdBench(Cli &c)
{
    ArgParser &ap = c.ap;
    perf::TrialParams tp;
    tp.trials = ap.intFlag("--trials", tp.trials);
    tp.warmupMs = ap.doubleFlag("--warmup-ms", tp.warmupMs);
    tp.measureMs = ap.doubleFlag("--measure-ms", tp.measureMs);
    const std::string kernel = ap.stringFlag("--kernel");
    const std::string rev = ap.stringFlag("--rev");
    const std::string json = ap.stringFlag("--json");
    const std::string compare = ap.stringFlag("--compare");
    const double tolerance = ap.doubleFlag("--tolerance", 0.15);
    if (std::optional<int> rc = c.flags())
        return *rc;
    if (tolerance >= 1.0) {
        return failWith(Status::error(ErrorCode::InvalidArgument,
                                      "--tolerance wants a fraction "
                                      "below 1 (e.g. 0.15)"));
    }
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);

    std::vector<const perf::KernelInfo *> selected;
    if (kernel.empty()) {
        for (const perf::KernelInfo &k : perf::kernels())
            selected.push_back(&k);
    } else {
        const perf::KernelInfo *k = perf::findKernel(kernel);
        if (!k) {
            return failWith(Status::error(ErrorCode::InvalidArgument,
                                          "unknown bench kernel '%s'",
                                          kernel.c_str()));
        }
        selected.push_back(k);
    }

    perf::BenchReport report;
    report.rev = rev.empty() ? "dev" : rev;
    report.trials = tp.trials;
    report.warmupMs = tp.warmupMs;
    report.measureMs = tp.measureMs;

    // Per-kernel latency histograms land in a registry so the envelope
    // telemetry shares the exporter schema with every other command.
    obs::MetricRegistry registry;
    FILE *rep = json == "-" ? stderr : stdout;
    // The kernel column is as wide as the longest selected name.
    size_t width = std::strlen("kernel");
    for (const perf::KernelInfo *k : selected)
        width = std::max(width, k->name.size());
    const int name_width = static_cast<int>(width);
    std::fprintf(rep, "%-*s %12s %12s %12s %8s %8s %8s\n", name_width,
                 "kernel", "median ev/s", "min ev/s", "IQR ev/s",
                 "p50 ns", "p90 ns", "p99 ns");
    for (const perf::KernelInfo *k : selected) {
        obs::ScopedSpan span(util::names::kBenchSpanPrefix + k->name);
        perf::KernelStats stats = perf::runKernel(*k, tp);
        std::fprintf(rep,
                     "%-*s %12.4g %12.4g %12.4g %8.1f %8.1f %8.1f\n",
                     name_width, stats.name.c_str(), stats.medianEps,
                     stats.minEps, stats.iqrEps, stats.p50ItemNs,
                     stats.p90ItemNs, stats.p99ItemNs);
        registry.histogram(util::names::kPerfKernelPrefix + k->name + ".item_ns")
            .merge(stats.itemNs);
        report.kernels.push_back(std::move(stats));
    }

    Status verdict = Status::okStatus();
    if (!compare.empty()) {
        util::Result<perf::BenchReport> baseline =
            perf::parseBenchReportFile(compare);
        if (!baseline.ok())
            return failWith(baseline.status());
        if (!kernel.empty()) {
            // A single-kernel run gates only that kernel: drop the
            // other baseline entries so they do not read as lost
            // coverage (CI uses this for a dedicated tighter ratchet
            // on the event-queue kernel).
            std::vector<perf::KernelStats> &ks = baseline->kernels;
            ks.erase(std::remove_if(ks.begin(), ks.end(),
                                    [&](const perf::KernelStats &s) {
                                        return s.name != kernel;
                                    }),
                     ks.end());
            if (ks.empty()) {
                return failWith(Status::error(
                    ErrorCode::InvalidArgument,
                    "baseline %s has no entry for kernel '%s'",
                    compare.c_str(), kernel.c_str()));
            }
        }
        perf::BenchComparison cmp = perf::compareBenchReports(
            *baseline, report, tolerance);
        std::fputs(cmp.render().c_str(), rep);
        if (!cmp.ok()) {
            verdict = Status::error(
                ErrorCode::FailedPrecondition,
                "events/sec regressed beyond %.0f%% of baseline %s",
                tolerance * 100.0, compare.c_str());
        }
    }
    return c.envelope(json, verdict, exitFor(verdict),
                      perf::benchReportJson(report), &registry);
}

int
cmdRoofline(Cli &c)
{
    ArgParser &ap = c.ap;
    if (std::optional<int> rc = c.flags())
        return *rc;
    if (ap.rest().empty())
        return c.needs("a platform");
    util::Result<platforms::Platform> p =
        platforms::findPlatform(ap.rest().front());
    if (!p.ok())
        return failWith(p.status());
    ap.consumePositional(1);
    Status extra = ap.finish();
    if (!extra.ok())
        return failWith(extra);
    util::Result<xmem::LatencyProfile> prof = profileFor(*p);
    if (!prof.ok())
        return failWith(prof.status());
    core::Roofline roof(*p, prof.take());
    std::printf("%s: peak %.0f GFlop/s, BW roof %.0f GB/s, L1-MSHR "
                "ceiling %.0f GB/s, L2-MSHR ceiling %.0f GB/s, ridge "
                "%.2f flop/B\n",
                p->name.c_str(), roof.peakGFlops(), roof.peakGBs(),
                roof.mshrCeilingGBs(core::MshrLevel::L1, p->totalCores),
                roof.mshrCeilingGBs(core::MshrLevel::L2, p->totalCores),
                roof.ridgeIntensity());
    return 0;
}

int
cmdSelftest(Cli &c)
{
    faultinject::Options opts;
    opts.fuzzIterations = c.ap.intFlag("--iterations", opts.fuzzIterations);
    opts.seed = c.ap.uint64Flag("--seed", opts.seed);
    opts.verbose = c.ap.boolFlag("--verbose");
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;

    faultinject::Report report = faultinject::runAll(opts);
    std::fputs(report.render(opts.verbose).c_str(), stdout);
    return report.allPassed() ? 0 : 1;
}

/** One platform x workload x variant the linter examines. */
struct LintJob
{
    platforms::Platform platform;
    workloads::WorkloadPtr workload;
    OptSet opts;
};

void
printDiags(FILE *rep, const util::DiagnosticList &diags)
{
    for (const util::Diagnostic &d : diags.all())
        std::fprintf(rep, "%s\n", d.toString().c_str());
}

int
cmdLint(Cli &c)
{
    ArgParser &ap = c.ap;
    const std::string json = ap.stringFlag("--json");

    // `lint --profile FILE` lints a cached latency-profile file instead
    // of workload configs; the two modes do not mix (the config-mode
    // flags are unknown to it).  In help mode `profile` is empty, so
    // the help page lists both modes' flags.
    const std::string profile = ap.stringFlag("--profile");
    if (!profile.empty()) {
        if (std::optional<int> rc = c.flagsOnly())
            return *rc;
        util::DiagnosticList diags = analysis::lintProfileFile(profile);
        FILE *rep = json == "-" ? stderr : stdout;
        printDiags(rep, diags);
        std::fprintf(rep,
                     "profile lint: %s — %zu errors, %zu warnings, %zu "
                     "notes\n",
                     profile.c_str(), diags.errorCount(),
                     diags.warningCount(), diags.noteCount());

        Status verdict = Status::okStatus();
        if (diags.errorCount()) {
            verdict = Status::error(ErrorCode::FailedPrecondition,
                                    "%zu profile lint error(s)",
                                    diags.errorCount());
        }
        std::ostringstream out;
        out << "{\n  \"profiles\": [\n    {\"path\": \"" << profile
            << "\", \"diagnostics\": " << diags.renderJson(4)
            << "}\n  ],\n  \"summary\": {\"errors\": "
            << diags.errorCount() << ", \"warnings\": "
            << diags.warningCount() << ", \"notes\": "
            << diags.noteCount() << "}\n}";
        return c.envelope(json, verdict, exitFor(verdict), out.str());
    }

    const bool determinism = ap.boolFlag("--determinism");
    const std::string seeds_flag = ap.stringFlag("--seeds");
    if (std::optional<int> rc = c.flags())
        return *rc;

    // `--seeds A,B,...` overrides the alternate tie-break seeds the
    // determinism check runs against.  The baseline (seed 0, insertion
    // order) is always prepended; the listed seeds must be nonzero so
    // every comparison is baseline-vs-permuted.
    analysis::DeterminismOptions det_opts;
    if (!seeds_flag.empty()) {
        if (!determinism) {
            return failWith(Status::error(
                ErrorCode::InvalidArgument,
                "--seeds requires --determinism"));
        }
        det_opts.seeds.assign(1, 0);
        std::stringstream ss(seeds_flag);
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            char *end = nullptr;
            errno = 0;
            const uint64_t seed = std::strtoull(tok.c_str(), &end, 0);
            if (tok.empty() || end == nullptr || *end != '\0' ||
                errno == ERANGE) {
                return failWith(Status::error(
                    ErrorCode::InvalidArgument,
                    "--seeds: '%s' is not a valid seed", tok.c_str()));
            }
            if (seed == 0) {
                return failWith(Status::error(
                    ErrorCode::InvalidArgument,
                    "--seeds: seed 0 is the implicit baseline; list "
                    "only nonzero tie-break seeds"));
            }
            det_opts.seeds.push_back(seed);
        }
        if (det_opts.seeds.size() < 2) {
            return failWith(Status::error(
                ErrorCode::InvalidArgument,
                "--seeds: expected at least one nonzero seed"));
        }
    }

    // Operands: none (scan the whole registry) or workload platform
    // [opts...].  Unlike analyze/trace, an *infeasible* variant is a
    // valid lint request — that is the point of linting — so opts are
    // parsed but never pre-checked against the platform.
    std::vector<LintJob> jobs;
    if (ap.rest().empty()) {
        for (const platforms::Platform &p : platforms::allPlatforms()) {
            for (workloads::WorkloadPtr &w :
                 workloads::allWorkloadsAndExtensions()) {
                jobs.push_back({p, std::move(w), OptSet()});
            }
        }
    } else if (ap.rest().size() == 1) {
        return c.needs("a workload and a platform (or neither)");
    } else {
        util::Result<workloads::WorkloadPtr> w =
            workloads::findWorkload(ap.rest()[0]);
        if (!w.ok())
            return failWith(w.status());
        util::Result<platforms::Platform> p =
            platforms::findPlatform(ap.rest()[1]);
        if (!p.ok())
            return failWith(p.status());
        ap.consumePositional(2);
        util::Result<OptSet> opts = parseOpts(ap.rest());
        if (!opts.ok())
            return failWith(opts.status());
        jobs.push_back({p.take(), w.take(), opts.take()});
    }

    FILE *rep = json == "-" ? stderr : stdout;
    size_t errors = 0, warnings = 0, notes = 0, det_failures = 0;
    std::ostringstream jplat, jconf, jdet;

    // Platform-level findings once per distinct platform, in job order.
    std::vector<std::string> seen_platforms;
    bool first_jplat = true;
    for (const LintJob &job : jobs) {
        const std::string &name = job.platform.name;
        if (std::find(seen_platforms.begin(), seen_platforms.end(),
                      name) != seen_platforms.end()) {
            continue;
        }
        seen_platforms.push_back(name);
        util::DiagnosticList diags =
            analysis::lintRecipeReachability(job.platform);
        printDiags(rep, diags);
        errors += diags.errorCount();
        warnings += diags.warningCount();
        notes += diags.noteCount();
        jplat << (first_jplat ? "" : ",") << "\n    {\"name\": \""
              << name << "\", \"diagnostics\": "
              << diags.renderJson(4) << "}";
        first_jplat = false;
    }

    bool first_jconf = true;
    for (const LintJob &job : jobs) {
        analysis::ConfigLint cl = analysis::lintConfig(
            job.platform, *job.workload, job.opts);
        printDiags(rep, cl.diagnostics);
        std::fprintf(rep, "%s: %s (%zu errors, %zu warnings, %zu "
                          "notes)\n",
                     cl.subject.c_str(),
                     cl.feasible() ? "ok" : "INFEASIBLE",
                     cl.diagnostics.errorCount(),
                     cl.diagnostics.warningCount(),
                     cl.diagnostics.noteCount());
        errors += cl.diagnostics.errorCount();
        warnings += cl.diagnostics.warningCount();
        notes += cl.diagnostics.noteCount();
        jconf << (first_jconf ? "" : ",") << "\n    {\"subject\": \""
              << cl.subject << "\", \"feasible\": "
              << (cl.feasible() ? "true" : "false") << ", \"bounds\": "
              << (cl.boundsValid ? analysis::boundsJson(cl.bounds, 4)
                                 : std::string("null"))
              << ", \"diagnostics\": " << cl.diagnostics.renderJson(4)
              << "}";
        first_jconf = false;
    }

    bool first_jdet = true;
    if (determinism) {
        for (const LintJob &job : jobs) {
            // A variant the platform cannot even build was already
            // reported as infeasible above; nothing to run.
            if (!job.platform
                     .trySysParams(job.platform.totalCores,
                                   job.opts.smtWays())
                     .ok()) {
                continue;
            }
            util::Result<analysis::DeterminismReport> r =
                analysis::checkRunDeterminism(job.platform,
                                              *job.workload, job.opts,
                                              det_opts);
            if (!r.ok())
                return failWith(r.status());
            const std::string subject =
                job.platform.name + "/" + job.workload->name() + " [" +
                job.opts.label() + "]";
            printDiags(rep, r->diagnostics);
            std::fprintf(rep,
                         "%s: determinism %s (%zu seeds, %zu metrics)\n",
                         subject.c_str(),
                         r->deterministic ? "ok" : "FAILED",
                         r->seedsRun, r->metricsCompared);
            if (!r->deterministic)
                ++det_failures;
            jdet << (first_jdet ? "" : ",") << "\n    {\"subject\": \""
                 << subject << "\", \"deterministic\": "
                 << (r->deterministic ? "true" : "false")
                 << ", \"seeds\": " << r->seedsRun << ", \"metrics\": "
                 << r->metricsCompared << ", \"diagnostics\": "
                 << r->diagnostics.renderJson(4) << "}";
            first_jdet = false;
        }
    }

    std::fprintf(rep,
                 "lint: %zu configs on %zu platforms — %zu errors, %zu "
                 "warnings, %zu notes",
                 jobs.size(), seen_platforms.size(), errors, warnings,
                 notes);
    if (determinism)
        std::fprintf(rep, ", %zu determinism failures", det_failures);
    std::fprintf(rep, "\n");

    // The exit decision is made *before* the envelope is written so
    // the export carries the authoritative status/exit pair.
    Status verdict = Status::okStatus();
    if (det_failures) {
        verdict = Status::error(ErrorCode::Internal,
                                "%zu determinism failure(s)",
                                det_failures);
    } else if (errors) {
        verdict = Status::error(ErrorCode::FailedPrecondition,
                                "%zu lint error(s)", errors);
    }
    std::ostringstream out;
    out << "{\n  \"platforms\": [" << jplat.str()
        << (jplat.str().empty() ? "" : "\n  ") << "],\n"
        << "  \"configs\": [" << jconf.str()
        << (jconf.str().empty() ? "" : "\n  ") << "],\n"
        << "  \"determinism\": [" << jdet.str()
        << (jdet.str().empty() ? "" : "\n  ") << "],\n"
        << "  \"summary\": {\"configs\": " << jobs.size()
        << ", \"errors\": " << errors << ", \"warnings\": " << warnings
        << ", \"notes\": " << notes
        << ", \"determinism_failures\": " << det_failures << "}\n}";
    return c.envelope(json, verdict, exitFor(verdict), out.str());
}

/**
 * `lll audit [--root DIR] [--json FILE] [--fix-plan]`: run the in-tree
 * source auditor (src/audit, DESIGN.md §15) over the repo's src/ and
 * tools/ trees.  Without --root the repo root is found by walking up
 * from the working directory, so the command works from a build tree.
 * Exit 0 on a clean tree, 3 (bad input: the *source* is the input)
 * when any LLL-SRC-1xx error fires — the same verdict shape as lint.
 */
int
cmdAudit(Cli &c)
{
    const std::string json = c.ap.stringFlag("--json");
    const std::string root = c.ap.stringFlag("--root");
    const bool fix_plan = c.ap.boolFlag("--fix-plan");
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;

    audit::AuditConfig config;
    if (root.empty()) {
        util::Result<std::string> found = audit::findRepoRoot(".");
        if (!found.ok())
            return failWith(found.status());
        config.root = found.take();
    } else {
        config.root = root;
    }

    util::Result<audit::AuditReport> report = audit::runAudit(config);
    if (!report.ok())
        return failWith(report.status());

    FILE *rep = json == "-" ? stderr : stdout;
    std::fputs(report->renderText().c_str(), rep);
    if (fix_plan)
        std::fputs(report->renderFixPlan().c_str(), rep);

    Status verdict = Status::okStatus();
    if (report->diagnostics.errorCount()) {
        verdict = Status::error(ErrorCode::FailedPrecondition,
                                "%zu audit error(s)",
                                report->diagnostics.errorCount());
    }
    return c.envelope(json, verdict, exitFor(verdict),
                      report->renderJson());
}

/**
 * `lll profile [--out FILE] [--top N] <command> [args ...]`: run the
 * wrapped command under a root span, then fold the span tracker into a
 * wall-clock attribution tree printed to stderr (stdout stays the inner
 * command's, so `lll profile sweep --json -` still pipes clean JSON).
 * The process exit code is the inner command's.
 */
int
cmdProfile(Cli &c)
{
    // profile's own flags come before the wrapped command; everything
    // from the first non-flag token on belongs to the inner command and
    // is handed over untouched (so its own `--out`/`--top`/`--help`
    // still work).  Every profile flag but --help takes a value.
    const std::vector<std::string> &args = c.args;
    size_t i = 0;
    while (i < args.size() && !args[i].empty() && args[i][0] == '-')
        i += (args[i] == "--help" || args[i] == "-h") ? 1 : 2;
    i = std::min(i, args.size());
    c.ap = ArgParser({args.begin(), args.begin() + long(i)});
    const std::string out =
        c.ap.stringFlag("--out", "write the profile envelope to FILE");
    const int top =
        c.ap.intFlag("--top", 10, "attribution tree rows to print");
    if (std::optional<int> rc = c.flagsOnly())
        return *rc;
    if (i == args.size())
        return c.needs("a command");
    const std::string &inner = args[i];
    const Command *cmd = findCommand(inner);
    if (cmd == nullptr) {
        return failWith(Status::error(ErrorCode::InvalidArgument,
                                      "unknown command '%s'",
                                      inner.c_str()));
    }
    if (cmd == &c.cmd) {
        return failWith(Status::error(ErrorCode::InvalidArgument,
                                      "profile does not nest"));
    }

    obs::SpanTracker::global().reset();
    obs::WallTimer wall;
    int inner_exit;
    {
        obs::ScopedSpan root(util::names::kCmdSpanPrefix + inner);
        inner_exit = dispatch(*cmd, {args.begin() + long(i) + 1,
                                     args.end()});
    }
    const double wall_ns = wall.elapsedNs();

    obs::Profiler::Report report = obs::Profiler::build(
        obs::SpanTracker::global().stats(), wall_ns);
    std::fprintf(stderr, "profile: %s (exit %d)\n", inner.c_str(),
                 inner_exit);
    std::fputs(obs::Profiler::renderText(report, size_t(top)).c_str(),
               stderr);

    std::ostringstream data;
    data << "{\n  \"profiled_command\": \"" << obs::jsonEscape(inner)
         << "\",\n  \"inner_exit\": " << inner_exit
         << ",\n  \"profile\": "
         << obs::Profiler::renderJson(report, size_t(top)) << "\n}";
    return c.envelope(out, Status::okStatus(), inner_exit, data.str());
}

const Command kCommands[] = {
    {"platforms", "", "List the modeled platforms (paper Table III).",
     cmdPlatforms},
    {"workloads", "", "List the workload models (paper Table II).",
     cmdWorkloads},
    {"vendors", "", "Counter visibility by vendor (paper Table I).",
     cmdVendors},
    {"characterize", "<platform|all> [--fresh]",
     "Measure (or load) a platform's X-Mem latency profile.",
     cmdCharacterize},
    {"analyze", "<workload> <platform> [opts ...] [flags]",
     "Analyze one variant: Little's-law analysis plus the optimization "
     "recipe.",
     cmdAnalyze},
    {"trace", "<workload> <platform> [opts ...] [flags]",
     "Run one variant with telemetry and the request tracer attached.",
     cmdTrace},
    {"walk", "<workload> <platform>",
     "Follow the optimization recipe to convergence.", cmdWalk},
    {"table", "<workload> [flags]",
     "One workload's paper-table rows across every platform.", cmdTable},
    {"sweep", "[flags]",
     "Every workload x platform walk through the parallel sweep runner.",
     cmdSweep},
    {"reproduce", "[flags]", "Reproduce the paper's Tables IV-IX.",
     cmdReproduce},
    {"roofline", "<platform>",
     "Roofline roofs plus the MSHR bandwidth ceilings.", cmdRoofline},
    {"selftest", "[flags]", "Run the fault-injection self-test harness.",
     cmdSelftest},
    {"lint",
     "[<workload> <platform> [opts ...]] [flags]  |  lint --profile FILE "
     "[--json FILE]",
     "Static spec/config analyzer; --determinism adds the event-order "
     "race check.",
     cmdLint},
    {"audit", "[flags]",
     "Run the in-tree source auditor (layering, name registries, API "
     "hygiene).",
     cmdAudit},
    {"serve",
     "[--batch FILE] [flags]  |  serve --listen HOST:PORT | --listen-unix "
     "PATH [flags]",
     "Batched JSON-lines run service; --listen serves the same protocol "
     "over sockets.",
     cmdServe},
    {"bench-serve", "--connect HOST:PORT | --connect-unix PATH [flags]",
     "Load generator for the serve socket front-end.", cmdBenchServe},
    {"search",
     "<workload> <platform> [opts ...] --axis name=spec ... [flags]",
     "Design-space autotuner: enumerate axes, prune by Little's-law "
     "ceiling, report the Pareto frontier.",
     cmdSearch},
    {"profile", "[--out FILE] [--top N] <command> [args ...]",
     "Self-profile any subcommand under a wall-clock span tree.",
     cmdProfile},
    {"bench", "[flags]",
     "Microbenchmark harness; --compare applies the perf ratchet.",
     cmdBench},
};

const Command *
findCommand(const std::string &name)
{
    for (const Command &cmd : kCommands) {
        if (name == cmd.name)
            return &cmd;
    }
    return nullptr;
}

/** The command index `lll help` prints, generated from kCommands. */
void
printIndex(FILE *to)
{
    std::fprintf(to, "usage: lll <command> [args]\n\n");
    for (const Command &cmd : kCommands)
        std::fprintf(to, "  %s\n      %s\n", usageLine(cmd).c_str(),
                     cmd.summary);
    std::fprintf(to,
                 "\nopts: vect 2-ht 4-ht l2-pref tiling unroll-jam "
                 "fusion distr\n"
                 "`lll <command> --help` lists every flag of that "
                 "command.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        printIndex(stderr);
        return 2;
    }
    std::string name = argv[1];
    if (name == "help" || name == "--help" || name == "-h") {
        printIndex(stdout);
        return 0;
    }
    // `lll --profile <cmd>` is an alias for `lll profile <cmd>`.
    if (name == "--profile")
        name = "profile";
    const Command *cmd = findCommand(name);
    if (cmd == nullptr) {
        std::fprintf(stderr, "lll: unknown command '%s'\n", name.c_str());
        printIndex(stderr);
        return 2;
    }
    return dispatch(*cmd, std::vector<std::string>(argv + 2, argv + argc));
}
