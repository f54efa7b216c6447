/**
 * @file
 * Tests of the differential fuzzing subsystem itself: generator
 * determinism and stream independence, corpus round-tripping, a
 * bounded smoke campaign through the full oracle, and an end-to-end
 * proof that the oracle catches an intentionally mis-compiled op and
 * that the minimizer shrinks the failure to a tiny reproducer.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "fuzz/minimizer.h"
#include "fuzz/oracle.h"
#include "sassir/builder.h"
#include "util/rng.h"

using namespace sassi;
using namespace sassi::fuzz;
using namespace sassi::sass;
using sassi::ir::KernelBuilder;

namespace {

TEST(FuzzRng, SplitStreamsAreDeterministicAndIndependent)
{
    Rng root(42);
    Rng a1 = root.split(3);
    Rng a2 = root.split(3);
    Rng b = root.split(4);
    std::vector<uint64_t> sa1, sa2, sb;
    for (int i = 0; i < 16; ++i) {
        sa1.push_back(a1.next());
        sa2.push_back(a2.next());
        sb.push_back(b.next());
    }
    EXPECT_EQ(sa1, sa2);
    EXPECT_NE(sa1, sb);
    // split() must not advance the parent stream.
    Rng fresh(42);
    EXPECT_EQ(root.next(), fresh.next());
}

TEST(FuzzGenerator, SameSeedAndIndexYieldsIdenticalProgram)
{
    for (uint64_t idx : {0u, 3u, 17u}) {
        FuzzProgram a = generateProgram(9, idx);
        FuzzProgram b = generateProgram(9, idx);
        EXPECT_EQ(formatProgram(a), formatProgram(b)) << "index " << idx;
    }
}

TEST(FuzzGenerator, DistinctIndicesYieldDistinctPrograms)
{
    // Streams are split per index, so neighbouring programs differ.
    std::set<std::string> texts;
    for (uint64_t idx = 0; idx < 8; ++idx)
        texts.insert(formatProgram(generateProgram(5, idx)));
    EXPECT_EQ(texts.size(), 8u);
}

TEST(FuzzGenerator, ProgramsAreWellFormed)
{
    GeneratorConfig cfg;
    for (uint64_t idx = 0; idx < 8; ++idx) {
        FuzzProgram p = generateProgram(11, idx);
        ASSERT_NE(p.kernel(), nullptr);
        const auto &code = p.kernel()->code;
        EXPECT_FALSE(code.empty());
        // The soft cap plus the bounded epilogue.
        EXPECT_LT(static_cast<int>(code.size()), cfg.maxInstrs + 32);
        bool has_exit = false;
        for (const auto &ins : code)
            if (ins.op == Opcode::EXIT)
                has_exit = true;
        EXPECT_TRUE(has_exit);
    }
}

TEST(FuzzCorpus, RoundTripsThroughText)
{
    FuzzProgram p = generateProgram(13, 2);
    std::string text = formatProgram(p);
    FuzzProgram q = parseProgram(text);
    EXPECT_EQ(q.gridX, p.gridX);
    EXPECT_EQ(q.blockX, p.blockX);
    EXPECT_EQ(q.inWords, p.inWords);
    EXPECT_EQ(q.outWordsPerThread, p.outWordsPerThread);
    EXPECT_EQ(q.accWords, p.accWords);
    EXPECT_EQ(q.inputSeed, p.inputSeed);
    EXPECT_EQ(q.seed, p.seed);
    EXPECT_EQ(q.index, p.index);
    // Text is a fixpoint: format(parse(format(p))) == format(p).
    EXPECT_EQ(formatProgram(q), text);
    // And the reparsed program behaves identically.
    OracleConfig cfg;
    EXPECT_EQ(runConfig(q, cfg).digest, runConfig(p, cfg).digest);
}

TEST(FuzzOracle, SmokeCampaignPasses)
{
    // A bounded fixed-seed campaign through the full matrix; part of
    // tier-1, so it must stay fast (a handful of programs).
    for (uint64_t idx = 0; idx < 4; ++idx) {
        FuzzProgram p = generateProgram(1, idx);
        OracleReport r = runOracle(p);
        EXPECT_EQ(r.status, OracleStatus::Pass)
            << "seed=1 index=" << idx << ": " << r.message;
    }
}

TEST(FuzzOracle, UninstrumentedSweepIsCheaperAndPasses)
{
    OracleOptions opt;
    opt.withTools = false;
    FuzzProgram p = generateProgram(2, 0);
    OracleReport r = runOracle(p, opt);
    EXPECT_EQ(r.status, OracleStatus::Pass) << r.message;
    // kExecModes (3 modes) x {1,2,8 threads}, no tools.
    EXPECT_EQ(r.configsRun, 9);
}

/** A straight-line program with a marker instruction the broken-op
 *  tests corrupt, padded so the minimizer has real work to do. */
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

/** Mis-compile the marker instruction, but only when the superblock
 *  fast path is on — a stand-in for a real interpreter bug. */
void
breakMarkerUnderSuperblocks(ir::Module &m, const OracleConfig &cfg)
{
    if (!simt::execConfigOf(cfg.mode).fused)
        return;
    for (auto &k : m.kernels)
        for (auto &ins : k.code)
            if (ins.bIsImm && ins.imm == 0x777) {
                ins.imm = 0x778;
                return;
            }
}

TEST(FuzzOracle, CatchesAnIntentionallyBrokenOp)
{
    OracleOptions opt;
    opt.moduleTweak = breakMarkerUnderSuperblocks;
    OracleReport r = runOracle(markedProgram(), opt);
    EXPECT_EQ(r.status, OracleStatus::Mismatch);
    EXPECT_NE(r.message.find("superblocks=1"), std::string::npos)
        << r.message;

    // The untweaked program sails through.
    OracleReport clean = runOracle(markedProgram());
    EXPECT_EQ(clean.status, OracleStatus::Pass) << clean.message;
}

TEST(FuzzOracle, CatchesAFastpathOnlyBrokenOp)
{
    // Same marker corruption, keyed to the switch that turns on the
    // compiled-handler fast path (and superblocks with it): the
    // report must name the failing plane's fastpath field too.
    OracleOptions opt;
    opt.moduleTweak = [](ir::Module &m, const OracleConfig &cfg) {
        if (!simt::execConfigOf(cfg.mode).fused)
            return;
        for (auto &k : m.kernels)
            for (auto &ins : k.code)
                if (ins.bIsImm && ins.imm == 0x777) {
                    ins.imm = 0x778;
                    return;
                }
    };
    OracleReport r = runOracle(markedProgram(), opt);
    EXPECT_EQ(r.status, OracleStatus::Mismatch);
    EXPECT_NE(r.message.find("fastpath=1"), std::string::npos)
        << r.message;
}

TEST(FuzzOracle, CatchesASimdOnlyBrokenOp)
{
    // Same marker corruption, keyed to the SIMD tier: only the
    // simd=1 plane misbehaves, so a matrix without the simd
    // dimension would miss it. The corruption edits program text
    // before launch, so it reproduces even on hosts where simd=1
    // runs the scalar tier (no AVX2) — the mismatch is against the
    // simd=0 plane either way.
    OracleOptions opt;
    opt.moduleTweak = [](ir::Module &m, const OracleConfig &cfg) {
        if (!simt::execConfigOf(cfg.mode).simd)
            return;
        for (auto &k : m.kernels)
            for (auto &ins : k.code)
                if (ins.bIsImm && ins.imm == 0x777) {
                    ins.imm = 0x778;
                    return;
                }
    };
    OracleReport r = runOracle(markedProgram(), opt);
    EXPECT_EQ(r.status, OracleStatus::Mismatch);
    EXPECT_NE(r.message.find("simd=1"), std::string::npos)
        << r.message;
}

TEST(FuzzMinimizer, ShrinksBrokenOpToTinyReproducer)
{
    OracleOptions opt;
    opt.moduleTweak = breakMarkerUnderSuperblocks;
    FuzzProgram p = markedProgram();
    size_t before = p.kernel()->code.size();
    MinimizeResult m = minimizeProgram(p, opt);
    const auto &code = m.program.kernel()->code;
    EXPECT_LT(code.size(), before);
    EXPECT_LE(code.size(), 10u);
    // The marker must have survived (it is what reproduces the bug)...
    bool marker = false;
    for (const auto &ins : code)
        if (ins.bIsImm && ins.imm == 0x777)
            marker = true;
    EXPECT_TRUE(marker);
    // ...and the shrunk program still reproduces the mismatch.
    OracleReport r = runOracle(m.program, opt);
    EXPECT_EQ(r.status, OracleStatus::Mismatch);
}

TEST(FuzzMinimizer, GeometryShrinksWhenFailureAllows)
{
    // The marker bug is geometry-independent, so the minimizer should
    // take the launch down to a single warp.
    OracleOptions opt;
    opt.moduleTweak = breakMarkerUnderSuperblocks;
    MinimizeResult m = minimizeProgram(markedProgram(), opt);
    EXPECT_EQ(m.program.gridX, 1u);
    EXPECT_EQ(m.program.blockX, 32u);
}

} // namespace
