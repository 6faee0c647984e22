/**
 * @file
 * The benchmark's in-memory tracer and layer counters.
 *
 * Spans are recorded only while tracing is on; each carries a name, a
 * start and end on the steady clock, its parent span and a request id
 * (the id of the nearest enclosing request-root span).  Worker threads
 * that open spans with an empty stack parent them to the current
 * root span, so a traced rep forms one tree across threads.
 *
 * The modeled-simulation aggregate (SimModel) is kept whether or not
 * tracing is on: it is a handful of additions per simulated window and
 * gives every run a digest of what the simulator computed.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace lll::sim
{
struct RunResult;
}

namespace bench
{

int64_t nowNs();

struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    uint64_t id = 0;
    uint64_t parent = 0; //!< 0 = none
    uint64_t rid = 0;    //!< request id: nearest request-root span
    uint32_t thread = 0;
};

bool tracing();
void setTracing(bool on);

/** Open / close a span by hand, for boundaries that are not one C++
 *  scope.  openSpan returns 0 (and closeSpan must still be paired with
 *  it) when tracing is off. */
uint64_t openSpan(const char *name, bool request_root = false);
void closeSpan(uint64_t id);

/** RAII span; a no-op while tracing is off.  A request root starts a
 *  new request id (its own span id). */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, bool request_root = false)
        : id_(openSpan(name, request_root))
    {
    }
    ~SpanScope() { closeSpan(id_); }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    uint64_t id() const { return id_; }

  private:
    uint64_t id_ = 0;
};

/** Record a span whose interval was measured elsewhere (for example a
 *  socket request timed by a client thread).  No-op when not tracing. */
void recordSpan(const char *name, int64_t start_ns, int64_t end_ns,
                bool request_root);

/** Make @p id the parent of spans opened on threads with no open span
 *  (0 clears it); returns the previous root, to restore afterwards. */
uint64_t setRootSpan(uint64_t id);

/** Move every recorded span out of the tracer. */
std::vector<Span> takeSpans();

/** Aggregate of every simulated window (System::run / runChecked). */
struct SimModel
{
    uint64_t runs = 0;
    uint64_t l1Hits = 0, l1Misses = 0, l2Hits = 0, l2Misses = 0;
    double l1OccSum = 0.0, l2OccSum = 0.0;
    uint64_t l1FullStalls = 0, l2FullStalls = 0;
    uint64_t pfIssued = 0, pfUseful = 0, pfDropped = 0;
    double memUtilSum = 0.0;
    double memLatWeighted = 0.0; //!< Σ avgMemLatencyNs × read lines
    uint64_t memReadLines = 0, memWriteLines = 0;
    double simulatedUs = 0.0; //!< Σ warm-up + measure windows
    /** Order-independent digest: sum of per-window FNV-1a hashes of
     *  every modeled field, so worker scheduling cannot change it. */
    uint64_t digest = 0;

    void add(const lll::sim::RunResult &r, double window_us);
};

/** Counters the layer wrappers keep while tracing is on. */
struct LayerCounters
{
    uint64_t simBuilds = 0;
    uint64_t simEvents = 0;
    uint64_t xmemProfiles = 0; //!< fresh characterizations
    uint64_t cacheHits = 0, cacheMisses = 0;
    /** (analyzer n_avg, true MSHR occupancy of the limiting level) per
     *  analyzed stage: Little's law checked against ground truth. */
    std::vector<std::pair<double, double>> littles;

    /** One SweepRunner fan-out (run or runStages). */
    struct Fanout
    {
        double wallNs = 0.0;
        double busyNs = 0.0;
        int workers = 0;
        std::vector<double> queueWaitNs;
    };
    std::vector<Fanout> fanouts;

    /** [start, end] of each Experiment::paperTable call (sweep units). */
    std::vector<std::pair<int64_t, int64_t>> units;

    /** Worker count the benchmark configured for the fan-outs it
     *  drives (the runner's own count is private). */
    int jobs = 1;
};

/** The process-wide aggregates; lock mu() around any access. */
std::mutex &mu();
SimModel &simModel();
LayerCounters &layerCounters();

/** Reset both aggregates (at the start of each rep). */
void resetAggregates();

} // namespace bench

#endif // PERFBENCH_TRACE_HH
