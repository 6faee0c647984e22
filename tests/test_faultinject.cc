/**
 * @file
 * Tests for the fault-injection harness: the corruptors actually break
 * profile text in ways the parser rejects as CorruptData, and a full
 * harness run passes every scenario without aborting the process.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "faultinject/faultinject.hh"
#include "xmem/latency_profile.hh"

namespace lll::faultinject
{
namespace
{

std::string
goodText()
{
    return xmem::LatencyProfile(
               "tst", 100.0,
               {{10.0, 80.0}, {50.0, 120.0}, {90.0, 240.0}})
        .serialize();
}

TEST(CorruptorTest, TruncateMidLineBreaksParse)
{
    std::string bad = truncateMidLine(goodText());
    EXPECT_LT(bad.size(), goodText().size());
    util::Result<xmem::LatencyProfile> p = xmem::LatencyProfile::parse(bad);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), util::ErrorCode::CorruptData);
}

TEST(CorruptorTest, GarbageLineBreaksParse)
{
    Rng rng(99);
    std::string bad = injectGarbageLine(goodText(), rng);
    util::Result<xmem::LatencyProfile> p = xmem::LatencyProfile::parse(bad);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), util::ErrorCode::CorruptData);
}

TEST(CorruptorTest, NegatedPointBreaksParse)
{
    std::string bad = negatePoint(goodText());
    util::Result<xmem::LatencyProfile> p = xmem::LatencyProfile::parse(bad);
    ASSERT_FALSE(p.ok());
    EXPECT_EQ(p.status().code(), util::ErrorCode::CorruptData);
}

TEST(CorruptorTest, ByteFlipsNeverCrashTheParser)
{
    Rng rng(7);
    for (int i = 0; i < 64; ++i) {
        std::string bad = flipRandomBytes(goodText(), rng, 1 + (i % 8));
        // Some flips yield still-valid text; the contract is only
        // "structured result, no crash".
        (void)xmem::LatencyProfile::parse(bad);
    }
    SUCCEED();
}

/**
 * The listener scenarios send a full skl request; with no skl profile
 * under the cwd that request would characterize the platform first,
 * which under sanitizers outruns the scenarios' 30 s response deadline.
 * So the harness runs against a private copy of the committed profiles
 * (a copy, because a run may write characterizations back).
 */
class FaultInjectTest : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        namespace fs = std::filesystem;
        dir_ = fs::path(::testing::TempDir()) /
                ("faultinject-profiles-" + std::to_string(getpid()));
        fs::create_directories(dir_);
        for (const fs::directory_entry &e :
             fs::directory_iterator(LLL_TEST_PROFILE_DIR)) {
            if (e.path().extension() == ".profile")
                fs::copy_file(e.path(), dir_ / e.path().filename());
        }
        setenv("LLL_PROFILE_DIR", dir_.c_str(), 1);
    }

    static void
    TearDownTestSuite()
    {
        unsetenv("LLL_PROFILE_DIR");
        std::filesystem::remove_all(dir_);
    }

    static inline std::filesystem::path dir_;
};

TEST_F(FaultInjectTest, AllScenariosPass)
{
    Options opts;
    opts.seed = 42;
    opts.fuzzIterations = 5; // keep the unit-test run fast
    Report report = runAll(opts);
    EXPECT_FALSE(report.entries.empty());
    EXPECT_EQ(report.failures(), 0) << report.render(true);
    EXPECT_TRUE(report.allPassed());
}

TEST_F(FaultInjectTest, ReportRenderListsScenarios)
{
    Options opts;
    opts.seed = 42;
    opts.fuzzIterations = 2;
    Report report = runAll(opts);
    std::string text = report.render(false);
    EXPECT_NE(text.find("PASS"), std::string::npos);
    EXPECT_NE(text.find("watchdog"), std::string::npos);
    EXPECT_NE(text.find("config-fuzz"), std::string::npos);
}

TEST_F(FaultInjectTest, DeterministicForFixedSeed)
{
    Options opts;
    opts.seed = 7;
    opts.fuzzIterations = 2;
    Report a = runAll(opts);
    Report b = runAll(opts);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    for (size_t i = 0; i < a.entries.size(); ++i) {
        EXPECT_EQ(a.entries[i].scenario, b.entries[i].scenario);
        EXPECT_EQ(a.entries[i].passed, b.entries[i].passed);
    }
}

} // namespace
} // namespace lll::faultinject
