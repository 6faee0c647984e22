/**
 * @file
 * Tests for the DES kernel: ordering, tie-breaking, run-until limits.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/request.hh"

namespace lll::sim
{
namespace
{

TEST(EventQueueTest, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.processed(), 0u);
}

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(42, [&order, i] { order.push_back(i); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(200, [&] { ++fired; });
    bool more = eq.runUntil(100);
    EXPECT_TRUE(more);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueueTest, EventAtLimitIsProcessed)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(100, [&] { ++fired; });
    eq.runUntil(100);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, DrainedReturnsFalseAndAdvancesToLimit)
{
    EventQueue eq;
    eq.schedule(5, [] {});
    bool more = eq.runUntil(50);
    EXPECT_FALSE(more);
    EXPECT_EQ(eq.now(), 50u);
}

TEST(EventQueueTest, CallbacksCanSchedule)
{
    EventQueue eq;
    std::vector<Tick> times;
    std::function<void()> chain = [&] {
        times.push_back(eq.now());
        if (times.size() < 4)
            eq.scheduleIn(10, chain);
    };
    eq.schedule(0, chain);
    eq.runUntil(1000);
    EXPECT_EQ(times, (std::vector<Tick>{0, 10, 20, 30}));
}

TEST(EventQueueTest, ZeroDelaySameTickRuns)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { eq.scheduleIn(0, [&] { ++fired; }); });
    eq.runUntil(10);
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, ProcessedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.runUntil(100);
    EXPECT_EQ(eq.processed(), 7u);
}

TEST(EventQueueTest, PriorityOrdersSameTickAcrossBands)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(42, schedPrio(SchedBand::Housekeeping),
                [&] { order.push_back(4); });
    eq.schedule(42, schedPrio(SchedBand::Thread, schedThreadKey(0, 0)),
                [&] { order.push_back(3); });
    eq.schedule(42, schedPrio(SchedBand::Send), [&] { order.push_back(2); });
    eq.schedule(42, schedPrio(SchedBand::Fill), [&] { order.push_back(1); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, PriorityNeverOutranksTime)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, schedPrio(SchedBand::Housekeeping),
                [&] { order.push_back(1); });
    eq.schedule(20, schedPrio(SchedBand::Fill), [&] { order.push_back(2); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueueTest, ThreadKeysArbitrateLowestCoreAndThreadFirst)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(42, schedPrio(SchedBand::Thread, schedThreadKey(1, 0)),
                [&] { order.push_back(10); });
    eq.schedule(42, schedPrio(SchedBand::Thread, schedThreadKey(0, 1)),
                [&] { order.push_back(1); });
    eq.schedule(42, schedPrio(SchedBand::Thread, schedThreadKey(0, -1)),
                [&] { order.push_back(0); });
    eq.runUntil(100);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 10}));
}

TEST(EventQueueTest, TieBreakSeedPermutesOnlyEqualPriorityTies)
{
    // Within one (tick, priority) class the seeded permutation may
    // reorder; across priorities the pinned order must survive any seed.
    auto run = [](uint64_t seed) {
        EventQueue eq;
        eq.setTieBreakSeed(seed);
        std::vector<int> order;
        eq.schedule(42, schedPrio(SchedBand::Thread, 7),
                    [&] { order.push_back(100); });
        for (int i = 0; i < 6; ++i)
            eq.schedule(42, schedPrio(SchedBand::Fill),
                        [&order, i] { order.push_back(i); });
        eq.runUntil(100);
        return order;
    };

    std::vector<int> base = run(0);
    EXPECT_EQ(base.back(), 100);
    EXPECT_EQ(base, (std::vector<int>{0, 1, 2, 3, 4, 5, 100}));

    bool permuted = false;
    for (uint64_t seed : {0x9e3779b97f4a7c15ULL, 0xc0ffee42c0ffee42ULL}) {
        std::vector<int> got = run(seed);
        ASSERT_EQ(got.size(), base.size());
        EXPECT_EQ(got.back(), 100) << "priority order broken by seed";
        if (got != base)
            permuted = true;
    }
    EXPECT_TRUE(permuted) << "seeds failed to perturb equal-prio ties";
}

TEST(EventQueueTest, FarFutureEventsKeepTimeOrder)
{
    // Events beyond the near-future window ride the overflow heap and
    // must interleave with bucketed ones exactly by (tick, prio, seq).
    EventQueue eq;
    std::vector<Tick> times;
    const Tick far = 3 * EventQueue::kWheelTicks;
    eq.schedule(far + 5, [&] { times.push_back(eq.now()); });
    eq.schedule(7, [&] { times.push_back(eq.now()); });
    eq.schedule(far + 1, [&] { times.push_back(eq.now()); });
    eq.schedule(EventQueue::kWheelTicks + 3,
                [&] { times.push_back(eq.now()); });
    eq.runUntil(far + 100);
    EXPECT_EQ(times, (std::vector<Tick>{7, EventQueue::kWheelTicks + 3,
                                        far + 1, far + 5}));
}

TEST(EventQueueTest, FarFutureTiesKeepInsertionOrder)
{
    // The window refill must carry tie keys along: equal-(tick, prio)
    // events scheduled beyond the window still pop in insertion order.
    EventQueue eq;
    std::vector<int> order;
    const Tick when = 5 * EventQueue::kWheelTicks + 11;
    for (int i = 0; i < 5; ++i)
        eq.schedule(when, [&order, i] { order.push_back(i); });
    eq.runUntil(when);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, IdleGapsCostNothingPerTick)
{
    // A sparse schedule across many empty windows must still fire
    // every event (the window jumps, it never walks idle ticks).
    EventQueue eq;
    int fired = 0;
    for (Tick i = 0; i < 10; ++i)
        eq.schedule(i * 40 * EventQueue::kWheelTicks + 1, [&] { ++fired; });
    EXPECT_FALSE(eq.runUntil(400 * EventQueue::kWheelTicks));
    EXPECT_EQ(fired, 10);
}

TEST(EventQueueTest, StopDuringCallbackReturnsEarly)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] {
        ++fired;
        eq.requestStop();
    });
    eq.schedule(20, [&] { ++fired; });
    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    // The stop is consumed: the next run picks up where it left off.
    EXPECT_FALSE(eq.runUntil(100));
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, StopLatchesBetweenRuns)
{
    // Regression: a stop issued while no run was in flight used to be
    // discarded by runUntil's entry reset; it must latch instead.
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.requestStop();
    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(fired, 0) << "latched stop must win before any dispatch";
    EXPECT_EQ(eq.pending(), 1u);
    // Consumed: the following run proceeds normally.
    EXPECT_FALSE(eq.runUntil(100));
    EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, StopMidTickPreservesRemainingEvents)
{
    // A stop in the middle of a same-tick batch may not drop the
    // uninvoked remainder, and the resumed order must be unchanged.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        eq.schedule(42, [&, i] {
            order.push_back(i);
            if (i == 2)
                eq.requestStop();
        });
    }
    EXPECT_TRUE(eq.runUntil(100));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(eq.pending(), 3u);
    EXPECT_EQ(eq.now(), 42u);
    EXPECT_FALSE(eq.runUntil(100));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueueTest, SameTickBandsProgressDuringDispatch)
{
    // A fill-band handler may queue same-tick work in a later band;
    // it must run within the same tick, after the earlier bands.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(42, schedPrio(SchedBand::Fill), [&] {
        order.push_back(1);
        eq.scheduleIn(0, schedPrio(SchedBand::Thread, 3),
                      [&] { order.push_back(3); });
    });
    eq.schedule(42, schedPrio(SchedBand::Send), [&] { order.push_back(2); });
    eq.schedule(42, schedPrio(SchedBand::Housekeeping),
                [&] { order.push_back(4); });
    eq.runUntil(42);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueueTest, PendingCountsRestOfBatchedTick)
{
    // A callback inside a same-tick batch must see the rest of its tick
    // (and any same-tick work it queued) as pending.
    EventQueue eq;
    std::vector<size_t> seen;
    for (int i = 0; i < 2; ++i)
        eq.schedule(42, [&] { seen.push_back(eq.pending()); });
    eq.schedule(42, schedPrio(SchedBand::Housekeeping), [&] {
        eq.scheduleIn(0, schedPrio(SchedBand::Housekeeping),
                      [&] { seen.push_back(eq.pending()); });
        seen.push_back(eq.pending());
    });
    eq.runUntil(100);
    EXPECT_EQ(seen, (std::vector<size_t>{2, 1, 1, 0}));
    EXPECT_EQ(eq.pending(), 0u);
}

/** The documented tie key of the @p seq-th schedule under @p seed. */
uint64_t
tieOf(uint64_t seq, uint64_t seed)
{
    return seed == 0 ? seq : schedMix64(seq ^ seed);
}

/** Records the (prio, tie) of every event it dispatches. */
struct TieRecorder
{
    EventQueue eq;
    uint64_t seed;
    uint64_t seq = 0;
    std::vector<std::pair<uint64_t, uint64_t>> ran;

    explicit TieRecorder(uint64_t s) : seed(s) { eq.setTieBreakSeed(s); }

    /** Schedule an event that, if @p child is nonzero, queues a
     *  same-tick event at priority @p child when it runs. */
    void
    add(Tick when, uint64_t prio, uint64_t child)
    {
        const uint64_t tie = tieOf(seq++, seed);
        eq.schedule(when, prio, [this, prio, tie, child] {
            ran.emplace_back(prio, tie);
            if (child != 0)
                add(eq.now(), child, 0);
        });
    }
};

TEST(EventQueueTest, SameTickArrivalsMergeInPrioTieOrder)
{
    // k fill-band events each queue a same-tick Thread-band event; the
    // whole tick must run in (prio, tie) order under any seed.
    constexpr size_t kFills = 9;
    for (uint64_t seed : {uint64_t{0}, uint64_t{0x9e3779b97f4a7c15ULL}}) {
        TieRecorder r(seed);
        for (size_t i = 0; i < kFills; ++i) {
            r.add(42, schedPrio(SchedBand::Fill),
                  schedPrio(SchedBand::Thread, 1));
        }
        r.eq.runUntil(42);
        ASSERT_EQ(r.ran.size(), 2 * kFills) << "seed " << seed;
        EXPECT_TRUE(std::is_sorted(r.ran.begin(), r.ran.end()))
            << "seed " << seed;
    }
}

/**
 * Randomized differential test: a self-spawning event program run on
 * EventQueue must dispatch in the same order as a reference queue that
 * always pops the least (tick, prio, tie).  Events spawn same-tick work
 * (at or above their own priority) and near-future work, and every
 * 29th event stops the run right after queueing a same-tick arrival,
 * so resumption from the middle of a tick is exercised too.
 */
struct EventProgram
{
    static constexpr int kLimit = 4000;
    static constexpr int kInitial = 60;

    static bool stops(int id) { return id % 29 == 17; }

    /** Few distinct priorities, so equal-(tick, prio) ties are common. */
    static uint64_t
    prioAt(uint64_t h)
    {
        return schedPrio(static_cast<SchedBand>(1 + h % 5), (h >> 3) % 2);
    }

    /** The initial events as (when, prio) pairs. */
    static std::vector<std::pair<Tick, uint64_t>>
    initial()
    {
        std::vector<std::pair<Tick, uint64_t>> out;
        for (int i = 0; i < kInitial; ++i) {
            const uint64_t h = schedMix64(static_cast<uint64_t>(i));
            out.emplace_back(h % 8, prioAt(h >> 8));
        }
        return out;
    }

    /** What event @p id, running at (@p now, @p prio), schedules; a
     *  pure function of its arguments. */
    static std::vector<std::pair<Tick, uint64_t>>
    spawns(int id, Tick now, uint64_t prio)
    {
        std::vector<std::pair<Tick, uint64_t>> out;
        uint64_t h = schedMix64(static_cast<uint64_t>(id) * 0x51ed27);
        const int n = static_cast<int>(h % 3) + (stops(id) ? 1 : 0);
        for (int k = 0; k < n; ++k) {
            h = schedMix64(h);
            const bool sameTick = (h & 1) != 0 || (stops(id) && k == 0);
            const uint64_t p = prioAt(h >> 8);
            if (sameTick)
                out.emplace_back(now, std::max(p, prio));
            else
                out.emplace_back(now + 1 + (h >> 4) % 4, p);
        }
        return out;
    }
};

/** Runs EventProgram on EventQueue, counting the stops it honours. */
struct ProgramRunner
{
    EventQueue eq;
    std::vector<int> order;
    int nextId = 0;

    void
    sched(Tick when, uint64_t prio)
    {
        const int id = nextId++;
        eq.schedule(when, prio, [this, id, prio] {
            order.push_back(id);
            if (nextId >= EventProgram::kLimit)
                return;
            for (auto [w, p] : EventProgram::spawns(id, eq.now(), prio))
                sched(w, p);
            if (EventProgram::stops(id))
                eq.requestStop();
        });
    }
};

std::vector<int>
referenceOrder(uint64_t seed)
{
    // (tick, prio, tie, id); ids are assigned in schedule order, so an
    // id is also the sequence number behind its tie key.
    std::set<std::tuple<Tick, uint64_t, uint64_t, int>> q;
    std::vector<int> order;
    int nextId = 0;
    auto sched = [&](Tick when, uint64_t prio) {
        const int id = nextId++;
        q.emplace(when, prio, tieOf(static_cast<uint64_t>(id), seed), id);
    };
    for (auto [w, p] : EventProgram::initial())
        sched(w, p);
    while (!q.empty()) {
        const auto [when, prio, tie, id] = *q.begin();
        q.erase(q.begin());
        order.push_back(id);
        if (nextId < EventProgram::kLimit) {
            for (auto [w, p] : EventProgram::spawns(id, when, prio))
                sched(w, p);
        }
    }
    return order;
}

TEST(EventQueueTest, MatchesReferenceOrderWithSpawnsAndStops)
{
    for (uint64_t seed : {uint64_t{0}, uint64_t{0x9e3779b97f4a7c15ULL},
                          uint64_t{0xc0ffee42c0ffee42ULL}}) {
        ProgramRunner run;
        run.eq.setTieBreakSeed(seed);
        for (auto [w, p] : EventProgram::initial())
            run.sched(w, p);
        int stops = 0;
        while (run.eq.runUntil(Tick{1} << 30)) {
            // Every stop leaves at least the same-tick arrival queued
            // just before it; the resumed run must start with it.
            EXPECT_GT(run.eq.pending(), 0u);
            ++stops;
        }
        const std::vector<int> want = referenceOrder(seed);
        EXPECT_GT(stops, 10) << "seed " << seed;
        EXPECT_GT(want.size(), 1000u) << "seed " << seed;
        EXPECT_EQ(run.order, want) << "seed " << seed;
    }
}

TEST(EventQueueDeathTest, SeedAfterFirstEventPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    EXPECT_DEATH(eq.setTieBreakSeed(1), "before any event");
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(50, [] {});
    eq.runUntil(50);
    EXPECT_DEATH(eq.schedule(10, [] {}), "past");
}

TEST(EventQueueDeathTest, ThreadKeyBeyondSmtCeilingPanics)
{
    // thread == kMaxSmtWays would land in the next core's stride-8 run
    // (slot 0 is the agent, 1..kMaxSmtWays the hw threads); the packing
    // bound must trip, not silently collide.
    EXPECT_EQ(schedThreadKey(0, kMaxSmtWays - 1),
              8 + static_cast<uint64_t>(kMaxSmtWays));
    EXPECT_DEATH(schedThreadKey(0, kMaxSmtWays), "collide");
    EXPECT_DEATH(schedThreadKey(0, -2), "outside");
    EXPECT_DEATH(schedThreadKey(-2, 0), "below -1");
}

// --- request pool -------------------------------------------------------

TEST(RequestPoolTest, AllocGivesZeroedRequest)
{
    RequestPool pool;
    MemRequest *a = pool.alloc();
    a->lineAddr = 99;
    a->core = 3;
    pool.free(a);
    MemRequest *b = pool.alloc();
    EXPECT_EQ(b->lineAddr, 0u);
    EXPECT_EQ(b->core, -1);
    pool.free(b);
}

TEST(RequestPoolTest, ReallocatedRequestIsFullyRezeroed)
{
    // Regression: a freed request with stale routing pointers and a
    // dirty issue tick must come back indistinguishable from fresh —
    // a leaked origin would route a fill into a dead cache.
    RequestPool pool;
    MemRequest *a = pool.alloc();
    a->lineAddr = 0xdeadbeef;
    a->type = ReqType::Writeback;
    a->core = 7;
    a->thread = 3;
    a->issued = 123456789;
    a->origin = reinterpret_cast<Cache *>(0x1);
    a->requester = reinterpret_cast<ThreadContext *>(0x2);
    pool.free(a);

    MemRequest *b = pool.alloc();
    ASSERT_EQ(a, b) << "free list should hand the same storage back";
    EXPECT_EQ(b->lineAddr, 0u);
    EXPECT_EQ(b->type, ReqType::DemandLoad);
    EXPECT_EQ(b->core, -1);
    EXPECT_EQ(b->thread, -1);
    EXPECT_EQ(b->issued, 0u);
    EXPECT_EQ(b->origin, nullptr);
    EXPECT_EQ(b->requester, nullptr);
    pool.free(b);
}

TEST(RequestPoolTest, ReusesFreedRequests)
{
    RequestPool pool;
    MemRequest *a = pool.alloc();
    pool.free(a);
    MemRequest *b = pool.alloc();
    EXPECT_EQ(a, b);
    pool.free(b);
}

TEST(RequestPoolTest, OutstandingTracksBalance)
{
    RequestPool pool;
    EXPECT_EQ(pool.outstanding(), 0);
    MemRequest *a = pool.alloc();
    MemRequest *b = pool.alloc();
    EXPECT_EQ(pool.outstanding(), 2);
    pool.free(a);
    EXPECT_EQ(pool.outstanding(), 1);
    pool.free(b);
    EXPECT_EQ(pool.outstanding(), 0);
}

TEST(RequestTest, TypeNamesAndDemandPredicate)
{
    EXPECT_STREQ(reqTypeName(ReqType::DemandLoad), "DemandLoad");
    EXPECT_STREQ(reqTypeName(ReqType::Writeback), "Writeback");
    EXPECT_TRUE(isDemand(ReqType::DemandLoad));
    EXPECT_TRUE(isDemand(ReqType::DemandStore));
    EXPECT_FALSE(isDemand(ReqType::HwPrefetch));
    EXPECT_FALSE(isDemand(ReqType::SwPrefetch));
}

} // namespace
} // namespace lll::sim
