/**
 * @file
 * Error-injector determinism across execution configurations: the
 * same campaign seed must select the same injection sites, and one
 * armed site must flip the same bit of the same register and
 * manifest identically — outcome class and output hash — whether the
 * simulator runs serial or parallel, interpreted or superblocked.
 * Injection campaigns (paper §8) sweep thousands of runs; if the
 * execution configuration leaked into site selection or outcome
 * classification, campaign statistics would be irreproducible.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sassi.h"
#include "handlers/error_injector.h"
#include "workloads/suite.h"

using namespace sassi;
using namespace sassi::simt;
using namespace sassi::handlers;

namespace {

std::vector<ErrorInjectionProfiler::LaunchProfile>
profileWorkload()
{
    auto w = workloads::makeHeartwall(256, 32);
    Device dev;
    w->setup(dev);
    core::SassiRuntime rt(dev);
    rt.instrument(ErrorInjectionProfiler::options());
    ErrorInjectionProfiler profiler(dev, rt);
    EXPECT_TRUE(w->run(dev).ok());
    return profiler.profiles();
}

TEST(InjectionDeterminism, SameSeedSelectsSameSites)
{
    auto profiles = profileWorkload();
    Rng a(77), b(77), c(78);
    auto sa = selectInjectionSites(profiles, 8, a);
    auto sb = selectInjectionSites(profiles, 8, b);
    auto sc = selectInjectionSites(profiles, 8, c);
    ASSERT_EQ(sa.size(), 8u);
    ASSERT_EQ(sb.size(), 8u);
    bool differs = false;
    for (size_t i = 0; i < sa.size(); ++i) {
        EXPECT_EQ(sa[i].kernelName, sb[i].kernelName);
        EXPECT_EQ(sa[i].invocation, sb[i].invocation);
        EXPECT_EQ(sa[i].thread, sb[i].thread);
        EXPECT_EQ(sa[i].instrIndex, sb[i].instrIndex);
        EXPECT_EQ(sa[i].dstSeed, sb[i].dstSeed);
        EXPECT_EQ(sa[i].bitSeed, sb[i].bitSeed);
        if (sa[i].thread != sc[i].thread ||
            sa[i].instrIndex != sc[i].instrIndex)
            differs = true;
    }
    EXPECT_TRUE(differs) << "different seeds picked identical sites";
}

TEST(InjectionDeterminism, OutcomeInvariantAcrossThreadsAndSuperblocks)
{
    auto profiles = profileWorkload();
    Rng rng(101);
    auto sites = selectInjectionSites(profiles, 3, rng);
    ASSERT_EQ(sites.size(), 3u);

    for (const auto &site : sites) {
        std::string golden_desc;
        Outcome golden_outcome{};
        uint64_t golden_hash = 0;
        bool first = true;
        for (ExecMode mode : {ExecMode::Generic, kDefaultExecMode}) {
            for (int threads : {1, 2, 8}) {
                auto w = workloads::makeHeartwall(256, 32);
                w->launchOptions.numThreads = threads;
                w->launchOptions.exec = mode;
                Device dev;
                w->setup(dev);
                core::SassiRuntime rt(dev);
                rt.instrument(ErrorInjector::options());
                ErrorInjector injector(dev, rt, site);
                LaunchResult r = w->run(dev);
                EXPECT_TRUE(injector.injected())
                    << "threads=" << threads
                    << " mode=" << execModeName(mode);
                uint64_t hash = r.ok() ? w->outputHash(dev) : 0;
                if (first) {
                    golden_desc = injector.description();
                    golden_outcome = r.outcome;
                    golden_hash = hash;
                    first = false;
                    continue;
                }
                EXPECT_EQ(injector.description(), golden_desc)
                    << "threads=" << threads
                    << " mode=" << execModeName(mode);
                EXPECT_EQ(r.outcome, golden_outcome)
                    << "threads=" << threads
                    << " mode=" << execModeName(mode);
                EXPECT_EQ(hash, golden_hash)
                    << "threads=" << threads
                    << " mode=" << execModeName(mode);
            }
        }
    }
}

} // namespace
