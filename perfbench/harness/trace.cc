#include "trace.hh"

#include <atomic>
#include <chrono>

#include "sim/system.hh"

namespace bench
{

namespace
{

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};
std::atomic<uint64_t> g_root{0};
std::atomic<uint32_t> g_next_thread{0};

std::mutex g_span_mu;
std::vector<Span> g_spans;

struct Open
{
    uint64_t id;
    uint64_t rid;
    int64_t start;
    const char *name;
};

thread_local std::vector<Open> t_stack;
thread_local uint32_t t_thread = g_next_thread.fetch_add(1);

void
parentOf(uint64_t *parent, uint64_t *rid)
{
    if (!t_stack.empty()) {
        *parent = t_stack.back().id;
        *rid = t_stack.back().rid;
    } else {
        *parent = g_root.load(std::memory_order_relaxed);
        *rid = *parent;
    }
}

void
push(Span s)
{
    std::lock_guard<std::mutex> lock(g_span_mu);
    g_spans.push_back(std::move(s));
}

uint64_t
fnv(uint64_t h, const void *data, size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

template <typename T>
uint64_t
fnvField(uint64_t h, T v)
{
    return fnv(h, &v, sizeof v);
}

} // namespace

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
tracing()
{
    return g_tracing.load(std::memory_order_relaxed);
}

void
setTracing(bool on)
{
    g_tracing.store(on);
}

uint64_t
openSpan(const char *name, bool request_root)
{
    if (!tracing())
        return 0;
    uint64_t parent = 0, rid = 0;
    parentOf(&parent, &rid);
    const uint64_t id = g_next_id.fetch_add(1);
    t_stack.push_back({id, request_root ? id : rid, nowNs(), name});
    return id;
}

void
closeSpan(uint64_t id)
{
    if (id == 0)
        return;
    const int64_t end = nowNs();
    Open o = t_stack.back();
    t_stack.pop_back();
    uint64_t parent = 0, rid = 0;
    parentOf(&parent, &rid);
    push({o.name, o.start, end, o.id, parent, o.rid, t_thread});
}

void
recordSpan(const char *name, int64_t start_ns, int64_t end_ns,
           bool request_root)
{
    if (!tracing())
        return;
    uint64_t parent = 0, rid = 0;
    parentOf(&parent, &rid);
    const uint64_t id = g_next_id.fetch_add(1);
    push({name, start_ns, end_ns, id, parent, request_root ? id : rid,
          t_thread});
}

uint64_t
setRootSpan(uint64_t id)
{
    return g_root.exchange(id);
}

std::vector<Span>
takeSpans()
{
    std::lock_guard<std::mutex> lock(g_span_mu);
    std::vector<Span> out;
    out.swap(g_spans);
    return out;
}

void
SimModel::add(const lll::sim::RunResult &r, double window_us)
{
    ++runs;
    l1Hits += r.l1DemandHits;
    l1Misses += r.l1DemandMisses;
    l2Hits += r.l2DemandHits;
    l2Misses += r.l2DemandMisses;
    l1OccSum += r.avgL1MshrOccupancy;
    l2OccSum += r.avgL2MshrOccupancy;
    l1FullStalls += r.l1FullStalls;
    l2FullStalls += r.l2FullStalls;
    pfIssued += r.hwPrefIssued;
    pfUseful += r.hwPrefUseful;
    pfDropped += r.l2PrefetchDropped;
    memUtilSum += r.memUtilization;
    memLatWeighted += r.avgMemLatencyNs * double(r.memReadLines);
    memReadLines += r.memReadLines;
    memWriteLines += r.memWriteLines;
    simulatedUs += window_us;

    uint64_t h = 1469598103934665603ull;
    for (double v : {r.workDone, r.throughput, r.readGBs, r.writeGBs,
                     r.memUtilization, r.avgMemLatencyNs,
                     r.p99MemLatencyNs, r.avgMemOutstanding,
                     r.avgL1MshrOccupancy, r.avgL2MshrOccupancy})
        h = fnvField(h, v);
    for (uint64_t v : {r.opsIssued, r.l1FullStalls, r.l2FullStalls,
                       r.l1DemandMisses, r.l1DemandHits, r.l2DemandMisses,
                       r.l2DemandHits, r.hwPrefIssued, r.hwPrefUseful,
                       r.swPrefIssued, r.l2PrefetchDropped, r.memReadLines,
                       r.memWriteLines, r.eventsProcessed})
        h = fnvField(h, v);
    digest += h;
}

std::mutex &
mu()
{
    static std::mutex m;
    return m;
}

SimModel &
simModel()
{
    static SimModel m;
    return m;
}

LayerCounters &
layerCounters()
{
    static LayerCounters c;
    return c;
}

void
resetAggregates()
{
    std::lock_guard<std::mutex> lock(mu());
    simModel() = SimModel();
    layerCounters() = LayerCounters();
}

} // namespace bench
