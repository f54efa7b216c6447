/**
 * @file
 * Minimizer invariance: ddmin output must reproduce the *same*
 * failure as its input — same oracle divergence, same triage bucket
 * — and the bucket must be stable across oracle worker-thread
 * sweeps, since OracleReport::bucket() deliberately excludes the
 * thread count. Without this, minimization could "drift" onto a
 * different (easier) bug and the committed reproducer would pin the
 * wrong regression.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/minimizer.h"
#include "fuzz/oracle.h"
#include "sassir/builder.h"

using namespace sassi;
using namespace sassi::fuzz;
using namespace sassi::sass;
using sassi::ir::KernelBuilder;

namespace {

/** A straight-line program with a marker instruction the tweak
 *  corrupts, padded so the minimizer has real work to do. */
FuzzProgram
markedProgram()
{
    KernelBuilder kb("fuzz");
    kb.s2r(4, SpecialReg::TidX);
    kb.s2r(5, SpecialReg::CtaIdX);
    kb.s2r(6, SpecialReg::NTidX);
    kb.imad(7, 5, 6, 4);
    kb.iaddi(16, RZ, 11);
    for (int i = 0; i < 24; ++i)
        kb.iaddi(static_cast<RegId>(17 + (i % 3)), 16, i);
    kb.iaddi(16, 16, 0x777); // The marker.
    kb.ldc(8, 0, 8);         // c[0x0][0x0]: output base.
    kb.imuli(10, 7, 32);
    kb.iaddcc(8, 8, 10);
    kb.iaddx(9, 9, RZ);
    kb.stg(8, 0, 16);
    kb.exit();
    FuzzProgram p;
    p.module.kernels.push_back(kb.finish());
    return p;
}

/** Mis-compile the marker, but only under superblocks. */
void
breakMarkerUnderSuperblocks(ir::Module &m, const OracleConfig &cfg)
{
    if (!simt::execConfigOf(cfg.mode).superblocks)
        return;
    for (auto &k : m.kernels)
        for (auto &ins : k.code)
            if (ins.bIsImm && ins.imm == 0x777) {
                ins.imm = 0x778;
                return;
            }
}

TEST(MinimizerInvariance, MinimizedFailureKeepsItsBucket)
{
    // Sweep shapes a campaign actually uses: serial-only and a
    // mixed serial/parallel oracle. The bucket — and therefore the
    // failure identity the reproducer pins — must be byte-identical
    // before and after minimization, and across the two sweeps.
    std::vector<std::string> buckets;
    for (const std::vector<int> &threads :
         {std::vector<int>{1}, std::vector<int>{1, 8}}) {
        OracleOptions opt;
        opt.withTools = false;
        opt.threadCounts = threads;
        opt.moduleTweak = breakMarkerUnderSuperblocks;

        FuzzProgram p = markedProgram();
        OracleReport original = runOracle(p, opt);
        ASSERT_EQ(original.status, OracleStatus::Mismatch)
            << original.message;
        ASSERT_FALSE(original.bucket().empty());

        MinimizeResult m = minimizeProgram(p, opt);
        EXPECT_LT(m.program.kernel()->code.size(),
                  p.kernel()->code.size());

        OracleReport shrunk = runOracle(m.program, opt);
        // Same divergence: still a mismatch, same violated
        // invariant, same offending tool/dispatch mode.
        EXPECT_EQ(shrunk.status, OracleStatus::Mismatch)
            << shrunk.message;
        EXPECT_EQ(shrunk.kind, original.kind);
        EXPECT_EQ(shrunk.bucket(), original.bucket());
        buckets.push_back(shrunk.bucket());
    }
    ASSERT_EQ(buckets.size(), 2u);
    // bucket() excludes the thread count, so the 1-thread and
    // 8-thread discoveries of this bug triage identically.
    EXPECT_EQ(buckets[0], buckets[1]);
}

TEST(MinimizerInvariance, MinimizerRefusesToDriftBuckets)
{
    // Force a scenario where a *different* failure is strictly
    // easier to keep alive than the original: the tweak corrupts the
    // marker under superblocks, and additionally corrupts any
    // program lacking the marker in every non-baseline config. A
    // bucket-blind minimizer would happily delete the marker (the
    // failure "still reproduces" — as a different bug in a different
    // config). The bucket guard must keep the marker alive.
    auto tweak = [](ir::Module &m, const OracleConfig &cfg) {
        const simt::ExecConfig exec = simt::execConfigOf(cfg.mode);
        bool marker = false;
        for (auto &k : m.kernels)
            for (auto &ins : k.code)
                if (ins.bIsImm && ins.imm == 0x777)
                    marker = true;
        for (auto &k : m.kernels)
            for (auto &ins : k.code) {
                if (marker && exec.superblocks && ins.bIsImm &&
                    ins.imm == 0x777) {
                    ins.imm = 0x778;
                    return;
                }
                if (!marker && exec.simd && ins.bIsImm &&
                    !ins.synthetic) {
                    ++ins.imm;
                    return;
                }
            }
    };
    OracleOptions opt;
    opt.withTools = false;
    opt.threadCounts = {1};
    opt.moduleTweak = tweak;

    FuzzProgram p = markedProgram();
    OracleReport original = runOracle(p, opt);
    ASSERT_EQ(original.status, OracleStatus::Mismatch);

    MinimizeResult m = minimizeProgram(p, opt);
    bool marker = false;
    for (const auto &ins : m.program.kernel()->code)
        if (ins.bIsImm && ins.imm == 0x777)
            marker = true;
    EXPECT_TRUE(marker);
    OracleReport shrunk = runOracle(m.program, opt);
    EXPECT_EQ(shrunk.bucket(), original.bucket());
}

} // namespace
