/**
 * @file
 * Unit tests for the micro-op compiler (simt/decode.h): every
 * ALU-class op gets an exec function; kernels naming registers
 * outside their budget compile to an error; superblock formation
 * respects basic-block leaders, predication, and the eligibility
 * rules; the process-wide UopCache shares compiled programs by
 * content fingerprint, one per kernel version whatever the mode;
 * every ExecMode name parses back to its mode;
 * and the launch-time mode resolves option > environment > default.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "core/sassi.h"
#include "handlers/instr_counter.h"
#include "sassir/builder.h"
#include "simt/decode.h"
#include "simt/simd/simd_exec.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

uint64_t
counterOf(const Metrics &m, const std::string &name)
{
    for (const auto &[n, v] : m.counters())
        if (n == name)
            return v;
    return 0;
}

/** mov; iadd; imul; lop; exit — one maximal straight-line run. */
ir::Kernel
straightKernel(const char *name = "straight", int32_t seed = 7)
{
    KernelBuilder kb(name);
    kb.mov32i(4, seed);
    kb.iadd(5, 4, 4);
    kb.imul(6, 5, 4);
    kb.lop(LogicOp::Xor, 7, 6, 5);
    kb.exit();
    return kb.finish();
}

TEST(MicroProgram, StraightLineFormsOneSuperblock)
{
    ir::Kernel k = straightKernel();
    MicroProgram prog(k);
    ASSERT_EQ(prog.size(), k.code.size());

    ASSERT_EQ(prog.superblocks().size(), 1u);
    const Superblock &sb = prog.superblock(1);
    EXPECT_EQ(sb.start, 0u);
    EXPECT_EQ(sb.len, 4u);
    EXPECT_EQ(sb.syntheticInstrs, 0u);
    EXPECT_EQ(prog.superblockInstrs(), 4u);

    // Only the head instruction carries the superblock id.
    EXPECT_EQ(prog.at(0).sb, 1u);
    for (uint32_t pc = 1; pc < 4; ++pc)
        EXPECT_EQ(prog.at(pc).sb, 0u) << "pc " << pc;

    // Pre-aggregated opcode counts cover exactly one pass.
    uint32_t total = 0;
    for (const auto &[op, count] : sb.opcodeCounts)
        total += count;
    EXPECT_EQ(total, sb.len);

    // Every run member has an exec function; EXIT does not.
    for (uint32_t pc = 0; pc < 4; ++pc) {
        EXPECT_EQ(prog.at(pc).cls, ExecClass::Alu);
        EXPECT_EQ(prog.at(pc).guard, GuardKind::AlwaysOn);
        EXPECT_NE(prog.at(pc).alu, nullptr);
    }
    EXPECT_EQ(prog.at(4).cls, ExecClass::Exit);
    EXPECT_EQ(prog.at(4).alu, nullptr);
}

TEST(MicroProgram, BranchTargetLeaderSplitsRun)
{
    // pc0..1 ALU | pc2 (branch target = block leader) pc3..4 ALU |
    // pc5 predicated BRA | pc6 EXIT. Without the leader at pc2 this
    // would be one 5-op run; the CFG boundary must split it.
    KernelBuilder kb("split");
    Label back = kb.newLabel();
    kb.mov32i(4, 1);
    kb.iadd(5, 4, 4);
    kb.bind(back);
    kb.iadd(6, 5, 4);
    kb.iadd(7, 6, 5);
    kb.isetpi(0, CmpOp::LT, 7, 100);
    kb.onP(0).bra(back);
    kb.exit();
    ir::Kernel k = kb.finish();

    MicroProgram prog(k);
    ASSERT_EQ(prog.superblocks().size(), 2u);
    EXPECT_EQ(prog.superblock(1).start, 0u);
    EXPECT_EQ(prog.superblock(1).len, 2u);
    EXPECT_EQ(prog.superblock(2).start, 2u);
    EXPECT_EQ(prog.superblock(2).len, 3u);
    EXPECT_EQ(prog.at(0).sb, 1u);
    EXPECT_EQ(prog.at(2).sb, 2u);

    // The predicated branch is never part of a run.
    EXPECT_EQ(prog.at(5).cls, ExecClass::Bra);
    EXPECT_EQ(prog.at(5).guard, GuardKind::PerLane);
    EXPECT_EQ(prog.at(5).sb, 0u);
}

TEST(MicroProgram, PredicatedOpSplitsRun)
{
    // pc0 mov, pc1 isetp | pc2 @P0 iadd | pc3 iadd, pc4 iadd | exit.
    KernelBuilder kb("pred_split");
    kb.mov32i(4, 3);
    kb.isetpi(0, CmpOp::EQ, 4, 3);
    kb.onP(0).iadd(5, 4, 4);
    kb.iadd(6, 4, 4);
    kb.iadd(7, 6, 4);
    kb.exit();
    ir::Kernel k = kb.finish();

    MicroProgram prog(k);
    EXPECT_EQ(prog.at(2).guard, GuardKind::PerLane);
    ASSERT_EQ(prog.superblocks().size(), 2u);
    EXPECT_EQ(prog.superblock(1).start, 0u);
    EXPECT_EQ(prog.superblock(1).len, 2u);
    EXPECT_EQ(prog.superblock(2).start, 3u);
    EXPECT_EQ(prog.superblock(2).len, 2u);
}

TEST(MicroProgram, SingleOpRunsAreNotFormed)
{
    // One eligible ALU op between non-eligible neighbours: below
    // MinSuperblockLen, so no superblock forms.
    KernelBuilder kb("short");
    kb.mov32i(4, 1);
    kb.bar();
    kb.mov32i(5, 2);
    kb.exit();
    ir::Kernel k = kb.finish();

    MicroProgram prog(k);
    EXPECT_TRUE(prog.superblocks().empty());
    EXPECT_EQ(prog.superblockInstrs(), 0u);
    EXPECT_EQ(prog.at(0).sb, 0u);
    EXPECT_EQ(prog.at(2).sb, 0u);
}

TEST(MicroProgram, ClassificationAndMemFlag)
{
    KernelBuilder kb("classes");
    Label out = kb.newLabel();
    kb.ssy(out);
    kb.mov32i(8, 0x1000);
    kb.ldg(4, 8);
    kb.voteAll(0, 7);
    kb.stg(8, 0, 4);
    kb.sync();
    kb.bind(out);
    kb.exit();
    ir::Kernel k = kb.finish();

    MicroProgram prog(k);
    EXPECT_EQ(prog.at(0).cls, ExecClass::Ssy);
    EXPECT_EQ(prog.at(1).cls, ExecClass::Alu);
    EXPECT_EQ(prog.at(2).cls, ExecClass::Mem);
    EXPECT_TRUE(prog.at(2).countsAsMem);
    EXPECT_EQ(prog.at(3).cls, ExecClass::WarpOp);
    EXPECT_EQ(prog.at(4).cls, ExecClass::Mem);
    EXPECT_TRUE(prog.at(4).countsAsMem);
    EXPECT_EQ(prog.at(5).cls, ExecClass::Sync);
    EXPECT_EQ(prog.at(6).cls, ExecClass::Exit);
    EXPECT_FALSE(prog.at(1).countsAsMem);
}

TEST(MicroProgram, ClockReadHasNoFastPath)
{
    // S2R %clock observes mid-launch statistics, so batching any run
    // of a kernel that reads it could change the value: the read
    // has an exec function like every ALU op, but the kernel forms
    // no superblocks.
    KernelBuilder kb("clocked");
    kb.mov32i(4, 1);
    kb.s2r(5, SpecialReg::Clock);
    kb.iadd(6, 4, 4);
    kb.iadd(7, 6, 4);
    kb.exit();
    ir::Kernel k = kb.finish();

    MicroProgram prog(k);
    EXPECT_EQ(prog.at(1).cls, ExecClass::Alu);
    EXPECT_NE(prog.at(1).alu, nullptr);
    EXPECT_TRUE(prog.superblocks().empty());

    // A plain S2R, by contrast, is fast-path eligible.
    KernelBuilder kb2("tid");
    kb2.s2r(4, SpecialReg::TidX);
    kb2.iadd(5, 4, 4);
    kb2.exit();
    MicroProgram prog2(kb2.finish());
    EXPECT_NE(prog2.at(0).alu, nullptr);
    ASSERT_EQ(prog2.superblocks().size(), 1u);
    EXPECT_EQ(prog2.superblock(1).len, 2u);
}

TEST(MicroProgram, SpillTaggedAluOpFormsNoSuperblock)
{
    // Spill/fill-tagged ops feed metrics the batched run does not
    // update: the tagged op keeps its exec function but splits the
    // run around it.
    KernelBuilder kb("spilled");
    kb.mov32i(4, 1);
    kb.iadd(5, 4, 4); // Tagged below.
    kb.iadd(6, 5, 4);
    kb.iadd(7, 6, 5);
    kb.exit();
    ir::Kernel k = kb.finish();
    k.code[1].spillFill = true;

    MicroProgram prog(k);
    EXPECT_EQ(prog.at(1).cls, ExecClass::Alu);
    EXPECT_NE(prog.at(1).alu, nullptr);
    ASSERT_EQ(prog.superblocks().size(), 1u);
    EXPECT_EQ(prog.superblock(1).start, 2u);
    EXPECT_EQ(prog.superblock(1).len, 2u);
}

TEST(MicroProgram, EveryAluClassOpHasAnExecFunction)
{
    // Sweep every opcode over the operand facts exec functions are
    // specialized on; whatever classifies as ALU must be executable.
    ir::Kernel k;
    k.name = "every_op";
    for (int op = 0; op < NumOpcodes; ++op) {
        for (int v = 0; v < 16; ++v) {
            Instruction ins;
            ins.op = static_cast<Opcode>(op);
            ins.bIsImm = v & 1;
            ins.useCC = v & 2;
            ins.setCC = v & 4;
            ins.sExt = v & 8;
            ins.cmp = static_cast<CmpOp>(v % 6);
            ins.logic = static_cast<LogicOp>(v % 5);
            ins.mufu = static_cast<MufuOp>(v % 7);
            ins.sreg = static_cast<SpecialReg>(v % 15);
            k.code.push_back(ins);
        }
    }
    k.code.push_back(Instruction{});
    k.code.back().op = Opcode::EXIT;

    MicroProgram prog(k);
    ASSERT_TRUE(prog.error().empty()) << prog.error();
    size_t alu = 0;
    for (uint32_t pc = 0; pc < prog.size(); ++pc) {
        if (prog.at(pc).cls != ExecClass::Alu)
            continue;
        ++alu;
        EXPECT_NE(prog.at(pc).alu, nullptr)
            << opName(k.code[pc].op) << " at pc " << pc;
    }
    EXPECT_GT(alu, 0u);
}

TEST(MicroProgram, OutOfBudgetRegisterIsAnError)
{
    ir::Kernel k = straightKernel("over_budget");
    EXPECT_TRUE(MicroProgram(k).error().empty());

    // straightKernel writes R7 at pc 3.
    k.numRegs = 7;
    MicroProgram prog(k);
    EXPECT_NE(prog.error().find("kernel over_budget"), std::string::npos)
        << prog.error();
    EXPECT_NE(prog.error().find("pc 3 (LOP) names R7,"),
              std::string::npos)
        << prog.error();
    EXPECT_EQ(prog.size(), 0u);
    EXPECT_TRUE(prog.superblocks().empty());
}

TEST(UopCache, HitSharesCompiledProgram)
{
    UopCache &cache = UopCache::global();
    cache.clear();

    ir::Kernel k = straightKernel("cache_a");
    auto p1 = cache.get(k);
    auto p2 = cache.get(k);
    ASSERT_NE(p1, nullptr);
    EXPECT_EQ(p1.get(), p2.get());
    EXPECT_EQ(cache.size(), 1u);

    Metrics m = cache.snapshot();
    EXPECT_EQ(counterOf(m, "uop/cache/compiles"), 1u);
    EXPECT_EQ(counterOf(m, "uop/cache/hits"), 1u);
    EXPECT_EQ(counterOf(m, "uop/cache/entries"), 1u);
    EXPECT_EQ(counterOf(m, "uop/static/instrs"), k.code.size());
    cache.clear();
}

TEST(UopCache, OneProgramServesEveryMode)
{
    // An instrumented kernel has site runs to fuse, yet every mode
    // runs the one program compiled for it: generic and fused only
    // differ in which parts of it the executor uses.
    Device dev;
    ir::Module mod;
    mod.kernels.push_back(straightKernel("one_program"));
    dev.loadModule(std::move(mod));
    core::SassiRuntime rt(dev);
    rt.instrument(handlers::InstrCounter::options());
    handlers::InstrCounter tool(dev, rt);

    UopCache &cache = UopCache::global();
    cache.clear();
    for (ExecMode m : kExecModes) {
        LaunchOptions opts;
        opts.numThreads = 1;
        opts.exec = m;
        LaunchResult r = dev.launch("one_program", Dim3(1), Dim3(32),
                                    KernelArgs(), opts);
        ASSERT_TRUE(r.ok()) << execModeName(m) << ": " << r.message;
    }
    Metrics m = cache.snapshot();
    EXPECT_EQ(counterOf(m, "uop/cache/compiles"), 1u);
    EXPECT_EQ(counterOf(m, "uop/cache/hits"), std::size(kExecModes) - 1);
    EXPECT_GT(counterOf(m, "uop/static/site_runs"), 0u);
    cache.clear();
}

TEST(UopCache, FingerprintIsContentSensitive)
{
    ir::Kernel a = straightKernel("fp", 7);
    ir::Kernel b = straightKernel("fp", 7);
    EXPECT_EQ(UopCache::fingerprint(a), UopCache::fingerprint(b));

    // Any instruction-field change must change the key.
    ir::Kernel c = straightKernel("fp", 8);
    EXPECT_NE(UopCache::fingerprint(a), UopCache::fingerprint(c));

    // So must a metadata change with identical code.
    ir::Kernel d = straightKernel("fp", 7);
    d.numRegs += 1;
    EXPECT_NE(UopCache::fingerprint(a), UopCache::fingerprint(d));
}

TEST(UopCache, RewrittenKernelRecompilesAndInvalidates)
{
    UopCache &cache = UopCache::global();
    cache.clear();

    ir::Kernel orig = straightKernel("rewritten", 1);
    cache.get(orig);

    // An instrumented rewrite keeps the name but changes the code:
    // the lookup must miss (new fingerprint) and compile fresh.
    ir::Kernel rewritten = straightKernel("rewritten", 2);
    auto p2 = cache.get(rewritten);
    ASSERT_NE(p2, nullptr);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(counterOf(cache.snapshot(), "uop/cache/compiles"), 2u);

    // Invalidating by name drops every generation of that kernel.
    EXPECT_EQ(cache.invalidate("rewritten"), 2u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_EQ(counterOf(cache.snapshot(), "uop/cache/invalidated"),
              2u);
    EXPECT_EQ(cache.invalidate("rewritten"), 0u);
    cache.clear();
}

/** Sets SASSI_SIM_EXEC (or unsets it, for null) for one scope and
 *  restores the caller's value afterwards. */
class ScopedExecEnv
{
  public:
    explicit ScopedExecEnv(const char *value)
    {
        if (const char *old = std::getenv("SASSI_SIM_EXEC"))
            saved_ = old;
        if (value)
            setenv("SASSI_SIM_EXEC", value, 1);
        else
            unsetenv("SASSI_SIM_EXEC");
    }

    ~ScopedExecEnv()
    {
        if (saved_)
            setenv("SASSI_SIM_EXEC", saved_->c_str(), 1);
        else
            unsetenv("SASSI_SIM_EXEC");
    }

  private:
    std::optional<std::string> saved_;
};

TEST(ExecMode, EveryNameRoundTrips)
{
    for (ExecMode m : kExecModes)
        EXPECT_EQ(parseExecMode(execModeName(m)), m) << execModeName(m);
}

TEST(ExecMode, UnknownOrEmptyNameIsRejected)
{
    EXPECT_EQ(parseExecMode(""), std::nullopt);
    EXPECT_EQ(parseExecMode("0"), std::nullopt);
    EXPECT_EQ(parseExecMode("Generic"), std::nullopt);
    EXPECT_EQ(parseExecMode("fused-simd "), std::nullopt);
    // Retired mode names are as unknown as any other string.
    EXPECT_EQ(parseExecMode("superblock"), std::nullopt);
    EXPECT_EQ(parseExecMode("superblock-simd"), std::nullopt);
}

TEST(ResolveExecConfig, OptionBeatsEnvironmentBeatsDefault)
{
    const ExecConfig fused = execConfigOf(ExecMode::Fused);
    const ExecConfig generic = execConfigOf(ExecMode::Generic);
    {
        ScopedExecEnv env(nullptr);
        EXPECT_EQ(resolveExecConfig(std::nullopt),
                  resolveExecConfig(kDefaultExecMode));
        EXPECT_EQ(resolveExecConfig(ExecMode::Fused), fused);
    }
    {
        ScopedExecEnv env("generic");
        EXPECT_EQ(resolveExecConfig(std::nullopt), generic);
        EXPECT_EQ(resolveExecConfig(ExecMode::Fused), fused);
    }
    {
        // An empty value is the same as no value.
        ScopedExecEnv env("");
        EXPECT_EQ(resolveExecConfig(std::nullopt),
                  resolveExecConfig(kDefaultExecMode));
    }
}

TEST(ResolveExecConfig, UnknownEnvironmentValueWarnsOnceAndKeepsDefault)
{
    // "0" used to switch a tier off; it must not quietly mean that
    // (or anything but the default) now.
    ScopedExecEnv env("0");
    ::testing::internal::CaptureStderr();
    const ExecConfig cfg = resolveExecConfig(std::nullopt);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(cfg, resolveExecConfig(kDefaultExecMode));
    EXPECT_NE(err.find("SASSI_SIM_EXEC value '0'"), std::string::npos)
        << err;
    for (ExecMode m : kExecModes)
        EXPECT_NE(err.find(execModeName(m)), std::string::npos)
            << "warning does not list " << execModeName(m) << ": "
            << err;

    ::testing::internal::CaptureStderr();
    EXPECT_EQ(resolveExecConfig(std::nullopt), cfg);
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "")
        << "the same bad value was reported twice";
}

TEST(ResolveExecConfig, ModesResolveToDistinctConfigs)
{
    EXPECT_EQ(resolveExecConfig(ExecMode::Generic), ExecConfig{});
    for (ExecMode m : kExecModes) {
        ExecConfig want = execConfigOf(m);
        want.simd = want.simd && simd::cpuHasAvx2();
        EXPECT_EQ(resolveExecConfig(m), want) << execModeName(m);
    }
    if (!simd::cpuHasAvx2())
        return; // The SIMD modes fold onto their scalar twins.
    for (ExecMode a : kExecModes) {
        for (ExecMode b : kExecModes) {
            if (a != b) {
                EXPECT_NE(resolveExecConfig(a), resolveExecConfig(b))
                    << execModeName(a) << " vs " << execModeName(b);
            }
        }
    }
}

} // namespace
