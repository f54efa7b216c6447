/**
 * @file
 * Observational-equivalence tests for the inline handler dispatch:
 * the warp-level tools that left the fiber path (ValueProfiler's and
 * MemTracer's warp bodies run via the devirtualized inline call, no
 * per-lane fiber group) must produce the same results with the
 * handler fast path off (ExecMode::Generic: per-instruction
 * stepping, fiber dispatch) and on (ExecMode::FusedSimd: fused
 * sites, SIMD frame materialization, inline call). Both modes are
 * pinned, so the environment cannot collapse the two sides onto one
 * path. This is
 * the contract that lets reentrantSafe tools default onto the fast
 * path — any divergence in aggregates, traces, stats, or device
 * memory is a bug in site fusion or the inline dispatcher.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/sassi.h"
#include "handlers/instr_counter.h"
#include "handlers/mem_tracer.h"
#include "handlers/value_profiler.h"
#include "sassir/builder.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;
using sassi::ir::Label;

namespace {

constexpr int kCtas = 8;
constexpr int kBlock = 64;

/** The two modes every comparison here runs, fast path off then on. */
constexpr ExecMode kSides[2] = {ExecMode::Generic,
                                ExecMode::FusedSimd};

/**
 * Same site mix as the superblock handler sweep: a data-dependent
 * trip-count loop of ALU work, a divergent diamond, and strided
 * global traffic, so value-profile and memory-trace sites all fire
 * under partial masks. Takes one u32[kCtas*kBlock] buffer argument.
 */
ir::Kernel
stressKernel()
{
    KernelBuilder kb("istress");
    kb.s2r(4, SpecialReg::TidX);
    kb.s2r(5, SpecialReg::CtaIdX);
    kb.s2r(6, SpecialReg::NTidX);
    kb.imad(7, 5, 6, 4); // gid

    // &buf[gid]
    kb.ldc(16, 0, 8);
    kb.shl(10, 7, 2);
    kb.iaddcc(16, 16, 10);
    kb.iaddx(17, 17, RZ);
    kb.ldg(12, 16);

    // Loop (tid & 3) + 1 times over an 8-op ALU run.
    kb.lopi(LogicOp::And, 8, 4, 3);
    kb.iaddi(8, 8, 1);
    kb.mov32i(9, 0);
    Label top = kb.newLabel();
    Label done = kb.newLabel();
    Label out = kb.newLabel();
    kb.ssy(out);
    kb.bind(top);
    kb.isetp(0, CmpOp::GE, 9, 8);
    kb.onP(0).bra(done);
    kb.iadd(12, 12, 7);
    kb.shl(13, 12, 3);
    kb.lop(LogicOp::Xor, 12, 12, 13);
    kb.imad(12, 12, 9, 4);
    kb.shr(13, 12, 7);
    kb.lopi(LogicOp::And, 13, 13, 0xff);
    kb.iadd(12, 12, 13);
    kb.iaddi(9, 9, 1);
    kb.bra(top);
    kb.bind(done);
    kb.sync();
    kb.bind(out);

    // Divergent diamond on tid parity.
    Label else_ = kb.newLabel();
    Label join = kb.newLabel();
    kb.lopi(LogicOp::And, 14, 4, 1);
    kb.isetpi(1, CmpOp::EQ, 14, 0);
    kb.ssy(join);
    kb.onP(1).bra(else_);
    kb.iaddi(12, 12, 1000);
    kb.sync();
    kb.bind(else_);
    kb.lopi(LogicOp::Xor, 12, 12, 0x33);
    kb.sync();
    kb.bind(join);

    kb.stg(16, 0, 12);
    kb.exit();
    return kb.finish();
}

struct ToolEnv
{
    std::unique_ptr<Device> dev;
    std::unique_ptr<core::SassiRuntime> rt;
    uint64_t buf = 0;
};

ToolEnv
makeToolEnv(const core::InstrumentOptions &opts)
{
    ToolEnv env;
    env.dev = std::make_unique<Device>();
    ir::Module mod;
    mod.kernels.push_back(stressKernel());
    env.dev->loadModule(std::move(mod));
    env.rt = std::make_unique<core::SassiRuntime>(*env.dev);
    env.rt->instrument(opts);

    const size_t n = kCtas * kBlock;
    env.buf = env.dev->malloc(n * 4);
    std::vector<uint32_t> init(n);
    for (size_t i = 0; i < n; ++i)
        init[i] = static_cast<uint32_t>(i * 2654435761u);
    env.dev->memcpyHtoD(env.buf, init.data(), n * 4);
    return env;
}

LaunchResult
launchTool(ToolEnv &env, int threads, ExecMode mode)
{
    KernelArgs args;
    args.addU64(env.buf);
    LaunchOptions opts;
    opts.numThreads = threads;
    opts.exec = mode;
    return env.dev->launch("istress", Dim3(kCtas), Dim3(kBlock), args,
                           opts);
}

std::vector<uint32_t>
readBuf(ToolEnv &env)
{
    std::vector<uint32_t> out(kCtas * kBlock);
    env.dev->memcpyDtoH(out.data(), env.buf, out.size() * 4);
    return out;
}

/**
 * ValueProfiler aggregates are commutative (bit-AND/OR merges and
 * saturating counts), so both fast-path modes must agree bit for bit
 * at every thread count, not just serially.
 */
TEST(HandlerInlineDiff, ValueProfiler)
{
    for (int threads : {1, 8}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::vector<handlers::ValueStats> profiles[2];
        std::vector<uint32_t> out[2];
        LaunchResult results[2];
        for (int fp = 0; fp < 2; ++fp) {
            ToolEnv env =
                makeToolEnv(handlers::ValueProfiler::options());
            handlers::ValueProfiler tool(*env.dev, *env.rt);
            results[fp] = launchTool(env, threads, kSides[fp]);
            ASSERT_TRUE(results[fp].ok()) << results[fp].message;
            profiles[fp] = tool.results();
            out[fp] = readBuf(env);
        }
        EXPECT_EQ(results[0].stats.warpInstrs,
                  results[1].stats.warpInstrs);
        EXPECT_EQ(results[0].stats.threadInstrs,
                  results[1].stats.threadInstrs);
        EXPECT_EQ(results[0].stats.handlerCalls,
                  results[1].stats.handlerCalls);
        EXPECT_EQ(out[0], out[1]) << "output buffer differs";
        ASSERT_EQ(profiles[0].size(), profiles[1].size());
        for (size_t i = 0; i < profiles[0].size(); ++i) {
            const auto &a = profiles[0][i];
            const auto &b = profiles[1][i];
            EXPECT_EQ(a.insAddr, b.insAddr);
            EXPECT_EQ(a.weight, b.weight) << "insAddr " << a.insAddr;
            EXPECT_EQ(a.numDsts, b.numDsts);
            for (int d = 0; d < 4; ++d) {
                EXPECT_EQ(a.regNum[d], b.regNum[d]);
                EXPECT_EQ(a.constantOnes[d], b.constantOnes[d]);
                EXPECT_EQ(a.constantZeros[d], b.constantZeros[d]);
                EXPECT_EQ(a.isScalar[d], b.isScalar[d]);
            }
        }
    }
}

using TraceKey =
    std::tuple<int32_t, uint64_t, uint32_t, uint8_t, bool>;

TraceKey
keyOf(const handlers::TraceRecord &r)
{
    return {r.insAddr, r.address, r.warpEvent, r.width, r.isStore};
}

/**
 * MemTracer appends to a shared trace: serially the record order is
 * part of the contract (bit-identical between modes); at 8 workers
 * CTA interleaving legitimately reorders records across warps, so
 * the comparison canonicalizes by sorting — the multiset of records
 * must still match exactly.
 */
TEST(HandlerInlineDiff, MemTracerSerial)
{
    std::vector<handlers::TraceRecord> traces[2];
    std::vector<uint32_t> out[2];
    for (int fp = 0; fp < 2; ++fp) {
        ToolEnv env = makeToolEnv(handlers::MemTracer::options());
        handlers::MemTracer tool(*env.dev, *env.rt);
        LaunchResult r = launchTool(env, 1, kSides[fp]);
        ASSERT_TRUE(r.ok()) << r.message;
        traces[fp] = tool.trace();
        out[fp] = readBuf(env);
    }
    EXPECT_EQ(out[0], out[1]) << "output buffer differs";
    ASSERT_EQ(traces[0].size(), traces[1].size());
    for (size_t i = 0; i < traces[0].size(); ++i)
        EXPECT_EQ(keyOf(traces[0][i]), keyOf(traces[1][i]))
            << "record " << i;
}

TEST(HandlerInlineDiff, MemTracerParallelCanonicalized)
{
    // warpEvent ids are assigned in global dispatch order, so their
    // raw values differ whenever worker interleaving does; what the
    // modes must agree on is the *grouping* — which accesses were
    // coalesced into one warp event. Canonicalize each event to its
    // sorted record group and compare the multiset of groups.
    using Access = std::tuple<int32_t, uint64_t, uint8_t, bool>;
    std::vector<std::vector<Access>> groups[2];
    std::vector<uint32_t> out[2];
    for (int fp = 0; fp < 2; ++fp) {
        ToolEnv env = makeToolEnv(handlers::MemTracer::options());
        handlers::MemTracer tool(*env.dev, *env.rt);
        LaunchResult r = launchTool(env, 8, kSides[fp]);
        ASSERT_TRUE(r.ok()) << r.message;
        std::map<uint32_t, std::vector<Access>> byEvent;
        for (const auto &rec : tool.trace())
            byEvent[rec.warpEvent].push_back(
                {rec.insAddr, rec.address, rec.width, rec.isStore});
        for (auto &[event, accesses] : byEvent) {
            std::sort(accesses.begin(), accesses.end());
            groups[fp].push_back(std::move(accesses));
        }
        std::sort(groups[fp].begin(), groups[fp].end());
        out[fp] = readBuf(env);
    }
    EXPECT_EQ(out[0], out[1]) << "output buffer differs";
    EXPECT_EQ(groups[0], groups[1])
        << "coalesced trace groups differ between fast-path modes";
}

/**
 * Regression guard for the per-(site, warp) handler-environment
 * arenas: interleaved sites and warps must each see their own bound
 * environments (a shared arena would serve stale frame pointers).
 * InstrCounter's warp handler rides the same arena path, so a
 * drifting count here means arena keying broke.
 */
TEST(HandlerInlineDiff, InstrCounterArenaStability)
{
    std::string serialized[2];
    for (int fp = 0; fp < 2; ++fp) {
        ToolEnv env = makeToolEnv(handlers::InstrCounter::options());
        handlers::InstrCounter tool(*env.dev, *env.rt);
        LaunchResult r = launchTool(env, 1, kSides[fp]);
        ASSERT_TRUE(r.ok()) << r.message;
        Metrics m;
        tool.publish(m);
        serialized[fp] = m.serialize();
    }
    EXPECT_EQ(serialized[0], serialized[1])
        << "InstrCounter aggregates differ between fast-path modes";
}

} // namespace
