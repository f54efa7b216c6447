/**
 * @file
 * Every workload must (a) run to completion and match its host
 * reference on the bare simulator and (b) be untouched semantically
 * by full SASSI instrumentation (the tool's central transparency
 * guarantee).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "core/sassi.h"
#include "workloads/suite.h"

using namespace sassi;
using namespace sassi::workloads;

namespace {

class WorkloadSuite : public ::testing::TestWithParam<size_t>
{
};

const std::vector<SuiteEntry> &
suite()
{
    static const std::vector<SuiteEntry> s = fullSuite();
    return s;
}

TEST_P(WorkloadSuite, RunsAndVerifies)
{
    const SuiteEntry &e = suite()[GetParam()];
    auto w = e.make();
    simt::Device dev;
    w->setup(dev);
    simt::LaunchResult r = w->run(dev);
    ASSERT_TRUE(r.ok()) << e.name << ": " << r.message;
    EXPECT_TRUE(w->verify(dev)) << e.name << " output mismatch";
    EXPECT_GT(dev.totalStats().warpInstrs, 0u);
}

TEST_P(WorkloadSuite, InstrumentationIsTransparent)
{
    const SuiteEntry &e = suite()[GetParam()];
    auto w = e.make();
    simt::Device dev;
    w->setup(dev);

    core::SassiRuntime rt(dev);
    core::InstrumentOptions opts;
    opts.beforeMem = true;
    opts.beforeCondBranch = true;
    opts.afterRegWrites = true;
    opts.memoryInfo = true;
    opts.branchInfo = true;
    opts.registerInfo = true;
    rt.instrument(opts);

    uint64_t handler_calls = 0;
    rt.setBeforeHandler(
        [&](const core::HandlerEnv &) { ++handler_calls; });
    rt.setAfterHandler(
        [&](const core::HandlerEnv &) { ++handler_calls; });

    simt::LaunchResult r = w->run(dev);
    ASSERT_TRUE(r.ok()) << e.name << ": " << r.message;
    EXPECT_TRUE(w->verify(dev))
        << e.name << " corrupted by instrumentation";
    EXPECT_GT(handler_calls, 0u) << e.name;
    EXPECT_GT(dev.totalStats().syntheticWarpInstrs, 0u);
}

std::string
nameOf(const ::testing::TestParamInfo<size_t> &info)
{
    std::string n = suite()[info.param].name;
    std::string out;
    for (char c : n) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += c;
        else
            out += '_';
    }
    return out;
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSuite,
                         ::testing::Range<size_t>(0, fullSuite().size()),
                         nameOf);

} // namespace

namespace {

TEST_P(WorkloadSuite, OutputHashIsDeterministic)
{
    // The error-injection study treats any hash difference as an
    // SDC, so bare re-runs must hash identically.
    const SuiteEntry &e = suite()[GetParam()];
    uint64_t hashes[2];
    for (int trial = 0; trial < 2; ++trial) {
        auto w = e.make();
        simt::Device dev;
        w->setup(dev);
        ASSERT_TRUE(w->run(dev).ok());
        hashes[trial] = w->outputHash(dev);
    }
    EXPECT_EQ(hashes[0], hashes[1]) << e.name;
}

/** Sets one environment variable for a scope and restores the
 *  caller's value afterwards. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        setenv(name, value, 1);
    }

    ~ScopedEnv()
    {
        if (saved_)
            setenv(name_, saved_->c_str(), 1);
        else
            unsetenv(name_);
    }

  private:
    const char *name_;
    std::optional<std::string> saved_;
};

TEST_P(WorkloadSuite, OutputHashIsThreadCountInvariant)
{
    // A workload whose CTAs communicate through global memory in an
    // order-dependent way (check-then-increment, work queues) hashes
    // differently depending on how workers interleave its CTAs.
    // One-CTA chunks spread the grid over the workers as finely as
    // possible, so such a workload fails here reliably instead of
    // flaking elsewhere. The worker count goes through the
    // environment, so a workload that pins numThreads = 1 for
    // exactly this reason still runs serially.
    const SuiteEntry &e = suite()[GetParam()];
    ScopedEnv chunk("SASSI_SIM_CHUNK_CTAS", "1");
    const char *workers[2] = {"1", "4"};
    uint64_t hashes[2];
    for (int i = 0; i < 2; ++i) {
        ScopedEnv threads("SASSI_SIM_THREADS", workers[i]);
        auto w = e.make();
        simt::Device dev;
        w->setup(dev);
        ASSERT_TRUE(w->run(dev).ok()) << e.name;
        hashes[i] = w->outputHash(dev);
    }
    EXPECT_EQ(hashes[0], hashes[1])
        << e.name << ": output differs between 1 and 4 workers";
}

} // namespace
