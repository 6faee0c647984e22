/**
 * @file
 * Unit tests for obs::Profiler: folding span-path aggregates into the
 * wall-clock attribution tree (inclusive/exclusive math, synthesized
 * parents, coverage, hot ranking) and the determinism contract — two
 * identical runs produce an identical tree shape — and the coverage
 * contract: work fanned out to worker threads is attributed inside the
 * span that waited for it, so coverage never exceeds 100%.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.hh"
#include "obs/span.hh"
#include "obs/timer.hh"
#include "test_common.hh"
#include "util/fanout.hh"
#include "xmem/xmem_harness.hh"

using namespace lll;

namespace
{

obs::SpanTracker::Stat
stat(const std::string &path, unsigned depth, uint64_t count,
     double wall_ns)
{
    obs::SpanTracker::Stat s;
    s.path = path;
    s.depth = depth;
    s.count = count;
    s.wallNs = wall_ns;
    return s;
}

/** Flatten the tree's paths in pre-order (the shape fingerprint). */
void
collectPaths(const obs::ProfileNode &node, std::vector<std::string> *out)
{
    out->push_back(node.path);
    for (const obs::ProfileNode &c : node.children)
        collectPaths(c, out);
}

const obs::ProfileNode *
findChild(const obs::ProfileNode &node, const std::string &name)
{
    for (const obs::ProfileNode &c : node.children) {
        if (c.name == name)
            return &c;
    }
    return nullptr;
}

} // namespace

TEST(Profiler, InclusiveExclusiveMath)
{
    std::vector<obs::SpanTracker::Stat> stats = {
        stat("run", 1, 1, 1000.0),
        stat("run/simulate", 2, 4, 700.0),
        stat("run/respond", 2, 4, 100.0),
    };
    obs::Profiler::Report r = obs::Profiler::build(stats, 1200.0);

    EXPECT_DOUBLE_EQ(r.wallNs, 1200.0);
    EXPECT_DOUBLE_EQ(r.attributedNs, 1000.0);
    EXPECT_NEAR(r.coverage(), 1000.0 / 1200.0, 1e-12);

    // Root: synthetic "total", exclusive = wall - attributed.
    EXPECT_EQ(r.root.name, "total");
    EXPECT_DOUBLE_EQ(r.root.inclusiveNs, 1200.0);
    EXPECT_DOUBLE_EQ(r.root.exclusiveNs, 200.0);

    const obs::ProfileNode *run = findChild(r.root, "run");
    ASSERT_NE(run, nullptr);
    EXPECT_EQ(run->count, 1u);
    EXPECT_DOUBLE_EQ(run->inclusiveNs, 1000.0);
    // run exclusive = 1000 - (700 + 100).
    EXPECT_DOUBLE_EQ(run->exclusiveNs, 200.0);
    ASSERT_EQ(run->children.size(), 2u);
    // Children ordered by path, not by time: respond < simulate.
    EXPECT_EQ(run->children[0].name, "respond");
    EXPECT_EQ(run->children[1].name, "simulate");
    EXPECT_DOUBLE_EQ(run->children[1].exclusiveNs, 700.0);
}

TEST(Profiler, SynthesizesMissingParents)
{
    // Only the leaf path was recorded; "a" and "a/b" must be
    // synthesized with zero count and their child's inclusive time.
    std::vector<obs::SpanTracker::Stat> stats = {
        stat("a/b/c", 3, 2, 500.0),
    };
    obs::Profiler::Report r = obs::Profiler::build(stats, 500.0);

    const obs::ProfileNode *a = findChild(r.root, "a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->count, 0u);
    EXPECT_DOUBLE_EQ(a->inclusiveNs, 500.0);
    EXPECT_DOUBLE_EQ(a->exclusiveNs, 0.0);
    const obs::ProfileNode *b = findChild(*a, "b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->count, 0u);
    const obs::ProfileNode *c = findChild(*b, "c");
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->count, 2u);
    EXPECT_DOUBLE_EQ(c->exclusiveNs, 500.0);
    EXPECT_DOUBLE_EQ(r.attributedNs, 500.0);
}

TEST(Profiler, ExclusiveClampsAtZero)
{
    // Children can aggregate more wall time than the parent measured
    // (clock granularity); exclusive clamps at zero instead of going
    // negative.
    std::vector<obs::SpanTracker::Stat> stats = {
        stat("p", 1, 1, 100.0),
        stat("p/q", 2, 1, 150.0),
    };
    obs::Profiler::Report r = obs::Profiler::build(stats, 100.0);
    const obs::ProfileNode *p = findChild(r.root, "p");
    ASSERT_NE(p, nullptr);
    EXPECT_DOUBLE_EQ(p->exclusiveNs, 0.0);
}

TEST(Profiler, HotPathsRankByExclusiveTime)
{
    std::vector<obs::SpanTracker::Stat> stats = {
        stat("fast", 1, 1, 10.0),
        stat("slow", 1, 1, 900.0),
        stat("slow/inner", 2, 3, 250.0),
    };
    obs::Profiler::Report r = obs::Profiler::build(stats, 1000.0);
    std::vector<const obs::ProfileNode *> hot = r.hotPaths(2);
    ASSERT_EQ(hot.size(), 2u);
    EXPECT_EQ(hot[0]->path, "slow");             // 650 exclusive
    EXPECT_DOUBLE_EQ(hot[0]->exclusiveNs, 650.0);
    EXPECT_EQ(hot[1]->path, "slow/inner");       // 250 exclusive
    // The limit is honored even though "fast" has exclusive time too.
    EXPECT_GE(r.hotPaths(10).size(), 3u);
}

TEST(Profiler, TreeShapeIsDeterministic)
{
    // The determinism contract: two runs that execute the same spans
    // produce an identical tree shape (paths, order, counts), however
    // much the measured wall times differ between the runs.
    auto run_once = [] {
        obs::SpanTracker t;
        for (int i = 0; i < 3; ++i) {
            obs::ScopedSpan outer("outer", t);
            obs::ScopedSpan mid("mid", t);
            obs::ScopedSpan inner("inner", t);
        }
        {
            obs::ScopedSpan outer("outer", t);
            obs::ScopedSpan other("zeta", t);
        }
        return t.stats();
    };

    obs::Profiler::Report a = obs::Profiler::build(run_once(), 1.0);
    obs::Profiler::Report b = obs::Profiler::build(run_once(), 2.0);

    std::vector<std::string> paths_a, paths_b;
    collectPaths(a.root, &paths_a);
    collectPaths(b.root, &paths_b);
    EXPECT_EQ(paths_a, paths_b);

    // Counts are part of the shape too.
    const obs::ProfileNode *outer_a = findChild(a.root, "outer");
    const obs::ProfileNode *outer_b = findChild(b.root, "outer");
    ASSERT_NE(outer_a, nullptr);
    ASSERT_NE(outer_b, nullptr);
    EXPECT_EQ(outer_a->count, outer_b->count);
    ASSERT_EQ(outer_a->children.size(), 2u);
    // Ordered by path: "mid" before "zeta" regardless of entry order.
    EXPECT_EQ(outer_a->children[0].name, "mid");
    EXPECT_EQ(outer_a->children[1].name, "zeta");
}

TEST(Profiler, BuildRecordsItsOwnCost)
{
    obs::CounterMetric self;
    std::vector<obs::SpanTracker::Stat> stats = {stat("x", 1, 1, 5.0)};
    obs::Profiler::Report r = obs::Profiler::build(stats, 10.0, &self);
    EXPECT_GE(r.buildNs, 0.0);
    // The build cost was charged to the self-overhead counter.
    EXPECT_GE(self.value(), static_cast<uint64_t>(r.buildNs));
}

TEST(Profiler, RenderersAreWellFormed)
{
    std::vector<obs::SpanTracker::Stat> stats = {
        stat("run", 1, 1, 1000.0),
        stat("run/simulate", 2, 4, 700.0),
    };
    obs::Profiler::Report r = obs::Profiler::build(stats, 1000.0);

    const std::string text = obs::Profiler::renderText(r, 5);
    EXPECT_NE(text.find("total"), std::string::npos);
    EXPECT_NE(text.find("run/simulate"), std::string::npos);
    EXPECT_NE(text.find("hot paths"), std::string::npos);

    const std::string json = obs::Profiler::renderJson(r, 5);
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"tree\""), std::string::npos);
    EXPECT_NE(json.find("\"hot\""), std::string::npos);
    // Balanced braces — renderJson output nests into the envelope.
    int depth = 0;
    for (char ch : json) {
        if (ch == '{')
            ++depth;
        if (ch == '}')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
}

TEST(Profiler, CaptureInsideAnOpenSpanLeavesItUntouched)
{
    // fanOut() runs a lone index on its caller, inside the caller's
    // open span: capture() must hand back only the task's spans and
    // restore the caller's stack and aggregates as they were.
    obs::SpanTracker &tracker = obs::SpanTracker::global();
    tracker.reset();
    {
        obs::ScopedSpan done("earlier");
    }
    {
        obs::ScopedSpan outer("serve.run");
        const std::vector<obs::SpanTracker::Stat> before = tracker.stats();

        const std::vector<obs::SpanTracker::Stat> task =
            obs::SpanTracker::capture([] {
                obs::ScopedSpan stage("stage[base]");
                obs::ScopedSpan sim("simulate");
            });

        ASSERT_EQ(task.size(), 2u);
        EXPECT_EQ(task[0].path, "stage[base]");
        EXPECT_EQ(task[0].depth, 1u);
        EXPECT_EQ(task[1].path, "stage[base]/simulate");
        EXPECT_EQ(tracker.depth(), 1u);
        const std::vector<obs::SpanTracker::Stat> after = tracker.stats();
        ASSERT_EQ(after.size(), before.size());
        for (size_t i = 0; i < after.size(); ++i) {
            EXPECT_EQ(after[i].path, before[i].path);
            EXPECT_EQ(after[i].count, before[i].count);
            EXPECT_EQ(after[i].wallNs, before[i].wallNs);
        }
        tracker.merge(task);
    }

    // The still-open span closed into the caller's own aggregate, with
    // the task merged beneath it.
    std::vector<std::string> paths;
    for (const obs::SpanTracker::Stat &st : tracker.stats()) {
        paths.push_back(st.path);
        EXPECT_EQ(st.count, 1u) << st.path;
    }
    tracker.reset();
    EXPECT_EQ(paths, (std::vector<std::string>{
                         "earlier", "serve.run", "serve.run/stage[base]",
                         "serve.run/stage[base]/simulate"}));
}

TEST(Profiler, ThreadedSweepCoverageStaysWithinWall)
{
    // The shape of `lll profile sweep --jobs 4`: eight units on four
    // workers under one command span.  The workers' summed time is
    // about twice the wall, so merged beside cmd.sweep it would read
    // as about 300% coverage.
    obs::SpanTracker::global().reset();
    obs::WallTimer wall;
    {
        obs::ScopedSpan cmd("cmd.sweep");
        std::vector<std::vector<obs::SpanTracker::Stat>> spans(8);
        util::fanOut(spans.size(), 4, [&](size_t i) {
            spans[i] = obs::SpanTracker::capture([] {
                obs::ScopedSpan stage("stage[base]");
                obs::ScopedSpan sim("simulate");
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
            });
        });
        for (const std::vector<obs::SpanTracker::Stat> &s : spans)
            obs::SpanTracker::global().merge(s);
    }
    obs::Profiler::Report r = obs::Profiler::build(
        obs::SpanTracker::global().stats(), wall.elapsedNs());
    obs::SpanTracker::global().reset();

    EXPECT_LE(r.coverage(), 1.0);
    ASSERT_EQ(r.root.children.size(), 1u);
    const obs::ProfileNode *cmd = findChild(r.root, "cmd.sweep");
    ASSERT_NE(cmd, nullptr);
    const obs::ProfileNode *stage = findChild(*cmd, "stage[base]");
    ASSERT_NE(stage, nullptr);
    EXPECT_EQ(stage->path, "cmd.sweep/stage[base]");
    EXPECT_EQ(stage->count, 8u);
    ASSERT_NE(findChild(*stage, "simulate"), nullptr);
}

TEST(Profiler, ParallelCharacterizationCoverageStaysWithinWall)
{
    // A cold characterization on four workers: the operating points
    // simulate on worker threads and their sim.* spans land under
    // xmem.characterize[...] inside the command span.
    xmem::XMemHarness::Params p;
    p.warmupUs = 2.0;
    p.measureUs = 4.0;
    p.windows = {1, 4, 8};
    p.delays = {64};
    p.jobs = 4;
    const platforms::Platform plat = test::tinyPlatform();

    obs::SpanTracker::global().reset();
    obs::WallTimer wall;
    {
        obs::ScopedSpan cmd("cmd.characterize");
        EXPECT_FALSE(xmem::XMemHarness(p).measure(plat).empty());
    }
    obs::Profiler::Report r = obs::Profiler::build(
        obs::SpanTracker::global().stats(), wall.elapsedNs());
    obs::SpanTracker::global().reset();

    EXPECT_LE(r.coverage(), 1.0);
    ASSERT_EQ(r.root.children.size(), 1u);
    const obs::ProfileNode *cmd = findChild(r.root, "cmd.characterize");
    ASSERT_NE(cmd, nullptr);
    const obs::ProfileNode *xm =
        findChild(*cmd, "xmem.characterize[" + plat.name + "]");
    ASSERT_NE(xm, nullptr);
    const obs::ProfileNode *measure = findChild(*xm, "sim.measure");
    ASSERT_NE(measure, nullptr);
    // 1 delay + 3 windows + 7 throttled + 2 windowed-streaming points.
    EXPECT_EQ(measure->count, 13u);
}
