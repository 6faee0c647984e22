/**
 * @file
 * Shared pieces of the benchmark harness: options, the per-run output
 * record, and the three workload runners (workloads.cc, serve.cc).
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hh"

namespace bench
{

struct Options
{
    std::string workload;
    uint64_t seed = 7;
    double seconds = 10.0;
    bool trace = false;
    std::string work;  //!< private working dir (created, then removed)
    std::string stock; //!< committed stock profiles (read only)
    std::string lll;   //!< the `lll` binary, for serve --listen
};

/** Everything one harness run reports; written as JSON by main.cc. */
struct Output
{
    std::vector<double> setupS;

    struct Rep
    {
        bool traced = false;
        double wallS = 0.0;
        double cpuS = 0.0;
        double simUs = 0.0; //!< simulated µs (warm-up + measure windows)
    };
    std::vector<Rep> reps;
    double peakRssMb = 0.0;

    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Count one operation or output check; a false @p ok is a failure
     *  described by @p what. */
    void check(bool ok, const std::string &what);

    std::string digest;                       //!< modeled-sim digest
    std::map<std::string, double> scalars;    //!< workload-specific
    std::map<std::string, std::string> texts; //!< e.g. the frontier
    std::map<std::string, std::vector<double>> samples;

    SimModel sim;          //!< traced rep's modeled aggregate
    LayerCounters layers;  //!< traced rep's layer counters
    std::vector<Span> spans;
    int64_t tracedStartNs = 0;
    int64_t tracedEndNs = 0;
};

/** Copy the stock profiles into a fresh @p dir and point
 *  LLL_PROFILE_DIR at it. */
void privateProfileDir(const Options &opt, const std::string &dir);

/** Process CPU seconds (user + system, all threads). */
double processCpuS();

/** Peak RSS of this process in MB. */
double selfPeakRssMb();

/** Format a double with all its digits. */
std::string fmt(double v);

/** Hex form of a digest. */
std::string hex(uint64_t v);

/**
 * Run @p body as the workload's reps: with tracing off for about
 * opt.seconds (at least once); in a traced run, once untraced and once
 * traced.  Records each rep's wall and CPU time and
 * modeled-sim digest (checked equal across reps when @p check_digest).
 */
void measureReps(const Options &opt, Output &out, int jobs,
                 const std::function<void()> &body, bool check_digest);

void runPaperSweep(const Options &opt, Output &out);
void runDesignSearch(const Options &opt, Output &out);
void runServeMixed(const Options &opt, Output &out);

} // namespace bench

#endif // PERFBENCH_BENCH_HH
