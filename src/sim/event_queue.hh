/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single global event queue orders callbacks by (tick, priority,
 * insertion sequence).  One tick is one picosecond (see util/stats.hh),
 * which comfortably expresses core clocks from 1.4 to 2.1 GHz without
 * rounding drift over the millisecond-scale windows this project
 * simulates.
 *
 * The priority pins every same-tick ordering the model's outcome is
 * allowed to depend on.  Handlers that touch shared state (MSHR slots,
 * the core's shared issue server, controller bank queues, cache LRU
 * state) must schedule with a priority that totally orders them against
 * every other handler they can interact with — see SchedBand below.
 * Two events left at the *same* (tick, priority) thereby assert that
 * their handlers commute; nothing about the outcome may depend on which
 * pops first.
 *
 * That assertion is checkable.  For the determinism checker
 * (analysis/determinism.hh) the residual tie-break among equal
 * (tick, priority) events can be permuted with a seed: instead of the
 * raw insertion sequence, ties compare a seeded bijective mix of it.
 * Event timing and all pinned ordering are unchanged — only the pop
 * order of events that *claim* to commute moves — so any simulation
 * whose results shift under a nonzero seed has a handler whose effect
 * depends on unspecified scheduling order: a simulator race.
 *
 * Implementation (DESIGN.md §16): this queue is the simulator's inner
 * loop, so it avoids the two classic costs of std::priority_queue +
 * std::function designs.  Callbacks are stored in EventFn — a
 * small-buffer callable with no heap fallback, sized for the
 * bound-member-plus-pointer closures every component schedules, and
 * constructed in place at its final resting spot so the schedule path
 * never shuffles type-erased closures around.  The ordering structure
 * is two-level, following the calendar-queue literature: events inside
 * a near-future window (kWheelTicks) drop into a per-tick bucket —
 * O(1), no comparisons — with an occupancy bitmap whose
 * count-trailing-zeros scan is what fast-forwards runUntil() straight
 * to the next busy tick; events beyond the window wait in a flat
 * 4-ary min-heap whose 32-byte nodes pack (tick, priority) into one
 * 128-bit word plus a slot index into a recycled callback arena, so a
 * sift moves small trivially-copyable keys instead of closures.  When
 * the window empties it jumps to the heap's earliest tick and drains
 * every now-in-window event back into buckets.  A tick holding more
 * than one event is sorted once, as 24-byte (priority, tie, index)
 * keys, and each closure runs where it sits; same-tick work scheduled
 * meanwhile goes to a small late-arrival heap, and dispatch always
 * runs the smaller of the two heads.
 */

#ifndef LLL_SIM_EVENT_QUEUE_HH
#define LLL_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/stats.hh"

#if !defined(__SIZEOF_INT128__)
#error "the overflow heap packs (tick, priority) into unsigned __int128"
#endif

namespace lll::sim
{

/**
 * Same-tick scheduling bands, popped in enum order within one tick.
 * Resources are released before anyone claims them: fills first, then
 * in-flight miss traffic, then thread issue slots, with bookkeeping
 * last so it observes the tick's final state.
 */
enum class SchedBand : uint64_t
{
    Fill = 1,         //!< fill delivery into a cache (frees MSHRs)
    Send = 2,         //!< miss traffic moving downstream (claims
                      //!< downstream MSHRs / controller banks)
    Thread = 3,       //!< per-thread compute-done and op-complete
    Default = 4,      //!< unclassified (plain two-argument schedule())
    Housekeeping = 5, //!< sampler and watchdog
};

/**
 * Compose a scheduling priority: the band orders event *kinds* within
 * a tick, the 56-bit key orders actors within a band (component ids,
 * thread ids, line-address hashes).  Events that may interact must end
 * up with distinct priorities; events sharing one assert commutativity.
 */
constexpr uint64_t
schedPrio(SchedBand band, uint64_t key = 0)
{
    return (static_cast<uint64_t>(band) << 56) |
           (key & ((uint64_t{1} << 56) - 1));
}

/**
 * The validator's SMT ceiling (sim/validator.cc): hardware thread ids
 * run 0..kMaxSmtWays-1, matching CoreModel::Params::smtCapacity whose
 * array has kMaxSmtWays+1 entries (index = active thread count).
 */
inline constexpr int kMaxSmtWays = 4;

/**
 * Arbitration key for events acting on behalf of one hardware thread
 * (lower key issues first at a tick: fixed-priority arbitration, like
 * a hardware arbiter).  thread -1 (a per-core agent such as the stream
 * prefetcher) sorts ahead of that core's threads.
 *
 * Packing invariant: each core owns a stride-8 run of keys and the
 * thread lands in slot thread+1 of that run, so slot 0 is the core's
 * agent (-1) and slots 1..kMaxSmtWays its hardware threads.  The
 * validator caps SMT at kMaxSmtWays ways, leaving slots 5..7 unused;
 * a wider config would silently collide with the *next* core's agent
 * slot and break pinned same-tick ordering, so the bound is asserted
 * here rather than assumed.
 */
constexpr uint64_t
schedThreadKey(int core, int thread)
{
    lll_assert(core >= -1, "schedThreadKey: core id %d below -1", core);
    lll_assert(thread >= -1 && thread < kMaxSmtWays,
               "schedThreadKey: thread id %d outside -1..%d — stride-8 "
               "packing would collide with the next core's agent slot",
               thread, kMaxSmtWays - 1);
    return (static_cast<uint64_t>(core) + 1) * 8 +
           static_cast<uint64_t>(thread + 1);
}

/**
 * splitmix64 finalizer: a bijection on uint64_t, so distinct inputs
 * keep distinct outputs while the relative order is effectively
 * random.  Used both for the determinism checker's tie-break
 * permutation and to spread line addresses across priority keys.
 */
constexpr uint64_t
schedMix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Type-erased void() callable with fixed inline storage and *no* heap
 * fallback: a closure that does not fit is a compile error, not a
 * silent allocation on the schedule hot path.
 *
 * Storage contract (DESIGN.md §16): kInlineBytes covers every closure
 * the simulator schedules — a bound member function is one object
 * pointer, the largest call sites capture two pointers, and the
 * std::function-typed chains some tests build still fit because
 * std::function itself is 32 bytes (what *it* may heap-allocate is the
 * caller's business).  Captures must be nothrow-move-constructible;
 * closures over raw pointers (the common case) are trivially copyable
 * and move as a memcpy with no destructor bookkeeping at all.
 */
class EventFn
{
  public:
    /** Inline capture budget; sized for two-pointer closures and a
     *  whole std::function, and checked by static_assert per type. */
    static constexpr size_t kInlineBytes = 32;

    EventFn() noexcept = default;

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                          std::is_invocable_r_v<void, D &>>>
    // NOLINTNEXTLINE(bugprone-forwarding-reference-overload)
    EventFn(F &&f)
    {
        static_assert(sizeof(D) <= kInlineBytes,
                      "closure exceeds EventFn inline storage: capture "
                      "pointers, not objects (or raise kInlineBytes)");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "closure over-aligned for EventFn inline storage");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "EventFn captures must be nothrow-movable");
        ::new (static_cast<void *>(buf_)) D(std::forward<F>(f));
        invoke_ = &invokeImpl<D>;
        // Trivial closures (raw-pointer captures) keep manage_ null:
        // moves degrade to memcpy and destruction to nothing.
        if constexpr (!std::is_trivially_copyable_v<D> ||
                      !std::is_trivially_destructible_v<D>) {
            manage_ = &manageImpl<D>;
        }
    }

    EventFn(EventFn &&o) noexcept { stealFrom(o); }

    EventFn &
    operator=(EventFn &&o) noexcept
    {
        if (this != &o) {
            destroy();
            stealFrom(o);
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { destroy(); }

    explicit operator bool() const noexcept { return invoke_ != nullptr; }

    void
    operator()()
    {
        lll_assert(invoke_ != nullptr, "invoking an empty EventFn");
        invoke_(buf_);
    }

  private:
    template <typename D>
    static void
    invokeImpl(void *p)
    {
        (*static_cast<D *>(p))();
    }

    /** dst != null: move-construct *dst from *src; always destroy *src. */
    template <typename D>
    static void
    manageImpl(void *dst, void *src)
    {
        D *s = static_cast<D *>(src);
        if (dst != nullptr)
            ::new (dst) D(std::move(*s));
        s->~D();
    }

    void
    stealFrom(EventFn &o) noexcept
    {
        invoke_ = o.invoke_;
        manage_ = o.manage_;
        if (manage_ != nullptr)
            manage_(buf_, o.buf_);
        else if (invoke_ != nullptr)
            std::memcpy(buf_, o.buf_, kInlineBytes);
        o.invoke_ = nullptr;
        o.manage_ = nullptr;
    }

    void
    destroy() noexcept
    {
        if (manage_ != nullptr)
            manage_(nullptr, buf_);
        invoke_ = nullptr;
        manage_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    void (*invoke_)(void *) = nullptr;
    void (*manage_)(void *dst, void *src) = nullptr;
};

/**
 * The event queue: schedule() callbacks in the future, then run().
 *
 * Not thread safe; a System owns exactly one queue and all components
 * attached to that System share it.
 */
class EventQueue
{
  public:
    using Callback = EventFn;

    /**
     * Near-future window: events fewer than this many ticks out take
     * the bucketed O(1) path; later ones overflow to the heap until
     * the window reaches them.  16384 ticks (~16 ns, a few dozen core
     * cycles) covers every cache-level access latency; only memory
     * responses and housekeeping ride the heap.
     */
    static constexpr Tick kWheelTicks = 16384;

    EventQueue() : buckets_(kWheelTicks) {}

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Permute the pop order of equal-(tick, priority) events.  Seed 0
     * (default) keeps insertion order; any other value orders ties by
     * splitmix64(seq ^ seed) — a bijection, so the order is still a
     * total, deterministic one, just a different one per seed.  Must be
     * set before the first event is scheduled.
     */
    void
    setTieBreakSeed(uint64_t seed)
    {
        lll_assert(pending() == 0 && processed_ == 0,
                   "tie-break seed must be set before any event");
        tieSeed_ = seed;
    }

    uint64_t tieBreakSeed() const { return tieSeed_; }

    /**
     * Schedule @p cb to run at absolute time @p when (>= now), ordered
     * among same-tick events by @p prio (see schedPrio()).
     *
     * A callback may schedule at the tick it is running in, but only
     * at a priority >= its own class: within a tick, bands progress
     * forward (a fill may queue thread work, never another fill ahead
     * of pending fills).  That discipline is what lets dispatch sort
     * a tick once, and it is asserted here.
     */
    template <typename F>
    void
    schedule(Tick when, uint64_t prio, F &&cb)
    {
        lll_assert(when >= now_, "scheduling in the past (%llu < %llu)",
                   static_cast<unsigned long long>(when),
                   static_cast<unsigned long long>(now_));
        lll_assert(!dispatching_ || when != now_ || prio >= batchPrio_,
                   "same-tick schedule below the running priority class "
                   "(prio %llu < %llu): bands must progress forward "
                   "within a tick",
                   static_cast<unsigned long long>(prio),
                   static_cast<unsigned long long>(batchPrio_));
        const uint64_t tie = tieKey(seq_++);
        if (when < epochBase_ + kWheelTicks) {
            // In-window: constant-time drop into the tick's bucket,
            // closure built in place.  now_ >= epochBase_ whenever
            // user code runs, so when is never below the window.
            const size_t slot = when & kWheelMask;
            buckets_[slot].emplace_back(prio, tie, std::forward<F>(cb));
            markOccupied(slot);
            ++wheelCount_;
        } else {
            pushNode(Node{packKey(when, prio), tie,
                          allocSlot(std::forward<F>(cb))});
        }
    }

    /** Schedule @p cb at @p when in the Default band. */
    template <typename F>
    void
    schedule(Tick when, F &&cb)
    {
        schedule(when, schedPrio(SchedBand::Default), std::forward<F>(cb));
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&cb)
    {
        schedule(now_ + delay, std::forward<F>(cb));
    }

    /** Schedule @p cb @p delay ticks from now with priority @p prio. */
    template <typename F>
    void
    scheduleIn(Tick delay, uint64_t prio, F &&cb)
    {
        schedule(now_ + delay, prio, std::forward<F>(cb));
    }

    /**
     * Run events until the queue is empty or simulated time would pass
     * @p limit.  Events scheduled exactly at @p limit are processed.
     *
     * now_ fast-forwards: the occupancy bitmap's count-trailing-zeros
     * scan jumps straight to the next busy tick, and an empty window
     * jumps straight to the heap's earliest event, so a sparse
     * schedule costs per *event*, never per idle tick.  Within one
     * tick, events run in strict (priority, tie) order, including
     * same-tick work scheduled while the tick is being dispatched.
     *
     * A stop latched by requestStop() — during a callback *or* between
     * runs — makes this return true immediately, once.
     *
     * @return true if stopped because the limit was reached or a stop
     *         was requested (events may remain), false if the queue
     *         drained.
     */
    bool
    runUntil(Tick limit)
    {
        if (stopRequested_) {
            // Latched while no run was in flight (e.g. a watchdog
            // between measurement windows): honour it now.
            stopRequested_ = false;
            return true;
        }
        lll_assert(!dispatching_, "runUntil is not reentrant");
        dispatching_ = true;
        for (;;) {
            if (wheelCount_ == 0) {
                if (heap_.empty()) {
                    now_ = std::max(now_, limit);
                    dispatching_ = false;
                    return false;
                }
                const Tick top = keyWhen(heap_.front().wp);
                if (top > limit) {
                    now_ = limit;
                    dispatching_ = false;
                    return true;
                }
                // Idle fast-forward: jump the window to the earliest
                // heap event and pull everything now in range.
                epochBase_ = top & ~kWheelMask;
                refillWheel();
            }
            const Tick from = now_ > epochBase_ ? now_ : epochBase_;
            const size_t slot = nextOccupied(from & kWheelMask);
            const Tick tick = epochBase_ | static_cast<Tick>(slot);
            if (tick > limit) {
                now_ = limit;
                dispatching_ = false;
                return true;
            }
            LLL_INVARIANT(tick >= now_,
                          "event-queue time ran backwards (%llu < %llu)",
                          static_cast<unsigned long long>(tick),
                          static_cast<unsigned long long>(now_));
            now_ = tick;
            if (dispatchBucket(slot)) {
                stopRequested_ = false;
                dispatching_ = false;
                return true;
            }
        }
    }

    /**
     * Ask runUntil() to return early (the watchdog uses this to abort a
     * wedged run without unwinding through event callbacks).  The stop
     * latches: issued with no run in flight, the *next* runUntil()
     * returns immediately instead of the request being dropped.
     */
    void requestStop() { stopRequested_ = true; }

    /** Number of events processed so far. */
    uint64_t processed() const { return processed_; }

    /** Number of events still pending. */
    size_t pending() const { return wheelCount_ + heap_.size(); }

  private:
    /** (when << 64) | prio: one wide compare orders time, then band. */
    using WhenPrio = unsigned __int128;

    static constexpr WhenPrio
    packKey(Tick when, uint64_t prio)
    {
        return (static_cast<WhenPrio>(when) << 64) | prio;
    }

    static constexpr Tick
    keyWhen(WhenPrio wp)
    {
        return static_cast<Tick>(wp >> 64);
    }

    static constexpr uint64_t
    keyPrio(WhenPrio wp)
    {
        return static_cast<uint64_t>(wp);
    }

    static constexpr Tick kWheelMask = kWheelTicks - 1;
    static_assert((kWheelTicks & kWheelMask) == 0,
                  "window size must be a power of two: bucket index is "
                  "when & kWheelMask and the window is tick-aligned");

    /**
     * One in-window event: ordering key (tick is the bucket) plus the
     * closure itself — buckets never sift, so the closure can live
     * where it will be invoked.
     */
    struct Pending
    {
        uint64_t prio;
        uint64_t tie; //!< tie-break: seq, or its seeded permutation
        EventFn fn;

        template <typename F>
        Pending(uint64_t p, uint64_t t, F &&f)
            : prio(p), tie(t), fn(std::forward<F>(f))
        {
        }
    };

    /** Sort key of one same-tick event: its order plus its index into
     *  batch_ (or, for a late arrival, into the tick's bucket). */
    struct Key
    {
        uint64_t prio;
        uint64_t tie;
        size_t index;
    };

    static bool
    keyBefore(const Key &a, const Key &b)
    {
        return a.prio != b.prio ? a.prio < b.prio : a.tie < b.tie;
    }

    /** Heap comparator: makes late_ a min-heap on (prio, tie). */
    static bool
    keyAfter(const Key &a, const Key &b)
    {
        return keyBefore(b, a);
    }

    /**
     * Flat-heap node: the full ordering key plus the index of the
     * callback's slot in slots_.  Trivially copyable and 32 bytes, so
     * a sift is a handful of register moves — the type-erased closure
     * never travels through the heap.
     */
    struct Node
    {
        WhenPrio wp;
        uint64_t tie; //!< tie-break: seq, or its seeded permutation
        uint32_t slot;
    };

    static bool
    nodeBefore(const Node &a, const Node &b)
    {
        if (a.wp != b.wp)
            return a.wp < b.wp;
        return a.tie < b.tie;
    }

    uint64_t
    tieKey(uint64_t seq) const
    {
        return tieSeed_ == 0 ? seq : schedMix64(seq ^ tieSeed_);
    }

    // 4-ary min-heap over heap_: children of i live at 4i+1..4i+4.
    // Half the depth of a binary heap and the four-way sibling compare
    // runs over one cache line of adjacent nodes.
    void
    pushNode(Node v)
    {
        size_t i = heap_.size();
        heap_.push_back(v);
        while (i > 0) {
            const size_t parent = (i - 1) / 4;
            if (!nodeBefore(v, heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = v;
    }

    void
    popTop()
    {
        const Node last = heap_.back();
        heap_.pop_back();
        if (heap_.empty())
            return;
        // Sift the former last element down from the root.
        const size_t n = heap_.size();
        size_t i = 0;
        for (;;) {
            size_t child = 4 * i + 1;
            if (child >= n)
                break;
            const size_t end = std::min(child + 4, n);
            size_t best = child;
            for (size_t k = child + 1; k < end; ++k) {
                if (nodeBefore(heap_[k], heap_[best]))
                    best = k;
            }
            if (!nodeBefore(heap_[best], last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }

    template <typename F>
    uint32_t
    allocSlot(F &&cb)
    {
        if (freeSlots_.empty()) {
            slots_.emplace_back(std::forward<F>(cb));
            return static_cast<uint32_t>(slots_.size() - 1);
        }
        const uint32_t slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = EventFn(std::forward<F>(cb));
        return slot;
    }

    void
    markOccupied(size_t slot)
    {
        bitmap_[slot >> 6] |= uint64_t{1} << (slot & 63);
    }

    void
    markEmpty(size_t slot)
    {
        bitmap_[slot >> 6] &= ~(uint64_t{1} << (slot & 63));
    }

    /** First occupied bucket at or after @p from (the window holds at
     *  least one event at a tick >= now_ when this is called). */
    size_t
    nextOccupied(size_t from) const
    {
        size_t word = from >> 6;
        uint64_t bits = bitmap_[word] & (~uint64_t{0} << (from & 63));
        while (bits == 0) {
            ++word;
            LLL_INVARIANT(word < kWords,
                          "occupancy bitmap disagrees with wheelCount_");
            bits = bitmap_[word];
        }
        return (word << 6) +
               static_cast<size_t>(__builtin_ctzll(bits));
    }

    /** Drain every heap event inside the (just-moved) window into its
     *  bucket; tie keys ride along, so total order is unaffected. */
    void
    refillWheel()
    {
        const Tick end = epochBase_ + kWheelTicks;
        while (!heap_.empty() && keyWhen(heap_.front().wp) < end) {
            const Node n = heap_.front();
            popTop();
            const size_t slot = keyWhen(n.wp) & kWheelMask;
            buckets_[slot].emplace_back(keyPrio(n.wp), n.tie,
                                        std::move(slots_[n.slot]));
            freeSlots_.push_back(n.slot);
            markOccupied(slot);
            ++wheelCount_;
        }
    }

    /**
     * Dispatch every event at the current tick in (prio, tie) order.
     * Returns true if a callback requested a stop; the uninvoked
     * remainder is back in the bucket.
     */
    bool
    dispatchBucket(size_t slot)
    {
        std::vector<Pending> &bucket = buckets_[slot];
        // Lone-event fast path (the common case): no sort, no batch
        // staging.  Moved out first because the callback may schedule
        // into this very bucket and reallocate it.
        while (bucket.size() == 1) {
            Pending p = std::move(bucket.back());
            bucket.pop_back();
            markEmpty(slot);
            --wheelCount_;
            batchPrio_ = p.prio;
            ++processed_;
            p.fn();
            if (stopRequested_)
                return true;
            if (bucket.empty())
                return false;
        }
        // Batch: sort small keys once; each closure runs where it sits
        // in batch_.  Same-tick arrivals land in the emptied bucket and
        // are keyed into late_ as soon as their scheduler returns.
        batch_.swap(bucket);
        keys_.clear();
        for (size_t i = 0; i < batch_.size(); ++i)
            keys_.push_back(Key{batch_[i].prio, batch_[i].tie, i});
        std::sort(keys_.begin(), keys_.end(), keyBefore);
        size_t next = 0;
        for (size_t seen = 0; !stopRequested_;) {
            for (; seen < bucket.size(); ++seen) {
                late_.push_back(Key{bucket[seen].prio, bucket[seen].tie, seen});
                std::push_heap(late_.begin(), late_.end(), keyAfter);
            }
            const bool batchDone = next == keys_.size();
            const bool late = !late_.empty() &&
                              (batchDone ||
                               keyBefore(late_.front(), keys_[next]));
            if (!late && batchDone)
                break;
            --wheelCount_;
            ++processed_;
            if (late) {
                std::pop_heap(late_.begin(), late_.end(), keyAfter);
                batchPrio_ = late_.back().prio;
                // Moved out: the callback may grow the bucket.
                EventFn fn = std::move(bucket[late_.back().index].fn);
                late_.pop_back();
                fn();
            } else {
                batchPrio_ = keys_[next].prio;
                batch_[keys_[next++].index].fn();
            }
        }
        const bool stopped = stopRequested_;
        if (stopped) {
            // Keep the uninvoked remainder (late arrivals not yet run
            // and the batch's tail) in the bucket; the next run sorts
            // it again and resumes at exactly the next event.
            std::erase_if(bucket, [](const Pending &p) { return !p.fn; });
            for (; next < keys_.size(); ++next)
                bucket.push_back(std::move(batch_[keys_[next].index]));
        } else {
            // The slot takes its own buffer back and batch_ its scratch
            // one: a buffer that wandered from slot to slot would make
            // each slot it left grow a new one.
            bucket.swap(batch_);
            bucket.clear();
        }
        batch_.clear();
        if (bucket.empty())
            markEmpty(slot);
        late_.clear();
        return stopped;
    }

    static constexpr size_t kWords = kWheelTicks / 64;

    std::vector<std::vector<Pending>> buckets_; //!< kWheelTicks entries
    uint64_t bitmap_[kWords] = {};   //!< bucket-occupancy bits
    size_t wheelCount_ = 0;          //!< events resident in the window
    Tick epochBase_ = 0;             //!< window covers [base, base+size)
    std::vector<Node> heap_;         //!< beyond-window overflow
    std::vector<EventFn> slots_;     //!< callback arena, indexed by Node
    std::vector<uint32_t> freeSlots_;
    std::vector<Pending> batch_;     //!< tick currently dispatching
    std::vector<Key> keys_;          //!< batch_ in (prio, tie) order
    std::vector<Key> late_;          //!< min-heap of same-tick arrivals
    Tick now_ = 0;
    uint64_t seq_ = 0;
    uint64_t tieSeed_ = 0;
    uint64_t processed_ = 0;
    uint64_t batchPrio_ = 0;         //!< class running (assert support)
    bool stopRequested_ = false;
    bool dispatching_ = false;
};

} // namespace lll::sim

#endif // LLL_SIM_EVENT_QUEUE_HH
