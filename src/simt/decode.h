/**
 * @file
 * Per-kernel micro-op compiler for the interpreter hot path.
 *
 * The executor's step() used to re-derive, for every dynamic warp
 * instruction, facts that are static per Instruction: which
 * execution class handles it, whether its guard needs per-lane
 * evaluation, and whether it counts as a memory instruction. The
 * paper's §5 overhead discussion shows the overwhelmingly common
 * case is an unpredicated ALU instruction on a fully converged
 * warp; this module compiles each kernel once into micro-ops that
 * exploit exactly that case:
 *
 *  - Every kernel is checked once, before anything else: every
 *    register an instruction names must be RZ or inside the
 *    kernel's .regs budget, and a kernel with a stack keeps R1 in
 *    it. A kernel that fails compiles to a program whose error()
 *    the executor reports as Outcome::InvalidKernel before any CTA
 *    runs; a kernel that passes never needs a register bounds check
 *    at run time.
 *  - Every instruction becomes a MicroOp carrying its ExecClass,
 *    resolved guard kind, and — for ALU-class ops — a direct
 *    exec-function pointer specialized at compile time on the
 *    operand facts (immediate vs register srcB, CC use, signedness,
 *    logic op). These functions are the simulator's only definition
 *    of the scalar ALU semantics: step() calls them under any exec
 *    mask, superblock runs under the full active mask.
 *  - Maximal straight-line runs of unpredicated ALU micro-ops
 *    inside one basic block (leaders from sassir/cfg) become
 *    *superblocks*: the executor runs a whole superblock for a
 *    converged warp in one tight loop, batching warpInstrs /
 *    threadInstrs / opcodeCounts and watchdog charging per run.
 *  - Recognized SASSI instrumentation-site bundles (site_fuse.h)
 *    become *site runs*: the executor materializes the site's frame
 *    template with direct stores, calls the handler inline when the
 *    dispatcher marks it reentrant-safe, and applies the epilogue's
 *    register effects — eliding the per-site fiber round-trip.
 *  - Compiled MicroPrograms are cached per kernel *content* in a
 *    process-wide thread-safe registry (UopCache), shared across
 *    launches and CTA-worker shards, with compile/hit counters and
 *    superblock-length histograms published through util/metrics.
 *    The cache key includes the fused-sites bit, so programs
 *    compiled with and without site fusing coexist.
 *
 * The per-instruction step() path is the whole interpreter in
 * ExecMode::Generic (SASSI_SIM_EXEC=generic) and handles every site
 * in the modes without fused sites, so instrumentation sites,
 * divergence, faults, and statistics are observationally identical
 * in every ExecMode (simt/launch.h).
 */

#ifndef SASSI_SIMT_DECODE_H
#define SASSI_SIMT_DECODE_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sassir/module.h"
#include "simt/dim3.h"
#include "simt/launch.h"
#include "simt/site_fuse.h"
#include "util/metrics.h"

namespace sassi::simt {

struct Warp;

/** Top-level dispatch class of an instruction in step(). */
enum class ExecClass : uint8_t {
    Exit,
    Bra,
    Ssy,
    Sync,
    Jcal,
    Ret,
    Bar,
    Bpt,
    WarpOp, //!< VOTE / SHFL.
    Mem,    //!< Loads, stores, atomics.
    Alu,    //!< Everything else.
};

/** How the guard predicate resolves, decided at decode time. */
enum class GuardKind : uint8_t {
    AlwaysOn,  //!< @PT: every active lane executes.
    AlwaysOff, //!< @!PT: statically nullified.
    PerLane,   //!< A real predicate: evaluate per lane.
};

/**
 * Context a micro-op exec function may need beyond the warp itself:
 * the current CTA coordinates (S2R), the local-memory window
 * geometry (L2G), and the executing worker's live issue count
 * (S2R %clock). Rebuilt per CTA by the executor; everything else an
 * exec function touches lives in Warp.
 */
struct UopCtx
{
    Dim3 cta;
    Dim3 block;
    Dim3 grid;
    uint64_t ctaLinear = 0;
    uint32_t localBytes = 0;

    /** Warp instructions issued so far by this worker, the one
     *  executing included (LaunchStats::warpInstrs). */
    const uint64_t *issued = nullptr;
};

/**
 * Exec function of one ALU-class micro-op: applies the instruction
 * to every lane set in exec (possibly none). Specialized per
 * (opcode, operand facts) at compile time. Every register the
 * instruction names was checked against the kernel's budget when
 * the program was compiled, so implementations index the register
 * file directly.
 */
using AluFn = void (*)(const UopCtx &ctx, Warp &warp,
                       const sass::Instruction &ins, uint32_t exec);

/** One flattened micro-op: statically resolved per-instruction facts. */
struct MicroOp
{
    /** Exec function of an ALU-class op; null for every other
     *  class. */
    AluFn alu = nullptr;

    /** Lane-vectorized exec function (simt/simd/), same semantics
     *  as alu; null when the op stays on the scalar tier. Which of
     *  the two a superblock run calls is a per-launch decision
     *  (resolveExecConfig), so programs are shared across the SIMD
     *  and scalar modes. */
    AluFn simd = nullptr;

    ExecClass cls = ExecClass::Alu;
    GuardKind guard = GuardKind::PerLane;
    bool countsAsMem = false; //!< Feeds LaunchStats::memWarpInstrs.

    /** 1-based id of the superblock headed here, 0 otherwise. */
    uint16_t sb = 0;

    /** 1-based id of the site run headed here, 0 otherwise. */
    uint16_t site = 0;
};

/**
 * A maximal straight-line run of unpredicated ALU micro-ops within
 * one basic block, with its statistics contributions pre-aggregated
 * so the executor charges them once per run instead of once per
 * instruction.
 */
struct Superblock
{
    uint32_t start = 0; //!< First instruction index of the run.
    uint32_t len = 0;   //!< Number of instructions in the run.

    /** How many of the run's instructions are SASSI-injected. */
    uint32_t syntheticInstrs = 0;

    /** How many of the run's uops have a vectorized exec function
     *  (pre-counted so runs charge the uop/simd dispatch counters
     *  without a per-instruction test). */
    uint32_t simdUops = 0;

    /** Per-opcode issue counts of one pass over the run. */
    std::vector<std::pair<sass::Opcode, uint32_t>> opcodeCounts;
};

/** The compiled micro-program of one kernel. */
class MicroProgram
{
  public:
    /** Shortest instruction run worth forming a superblock for. */
    static constexpr uint32_t MinSuperblockLen = 2;

    /** Compile a kernel; `fuseSites` also compiles its
     *  instrumentation-site bundles into SiteRuns. */
    explicit MicroProgram(const ir::Kernel &kernel,
                          bool fuseSites = false);

    /** @return why the kernel cannot run (naming the kernel, the pc
     *  and the register), or empty when it passed the register
     *  budget check. A failing kernel compiles to no micro-ops. */
    const std::string &error() const { return error_; }

    /** @return the micro-op at an instruction index. */
    const MicroOp &
    at(uint32_t pc) const
    {
        return uops_[pc];
    }

    /** @return the superblock with a MicroOp::sb id (1-based). */
    const Superblock &
    superblock(uint16_t id) const
    {
        return superblocks_[static_cast<size_t>(id) - 1];
    }

    /** @return number of micro-ops (== kernel instructions). */
    size_t size() const { return uops_.size(); }

    /** @return all superblocks, in program order. */
    const std::vector<Superblock> &
    superblocks() const
    {
        return superblocks_;
    }

    /** @return total instructions covered by superblocks. */
    size_t superblockInstrs() const;

    /** @return the site run with a MicroOp::site id (1-based). */
    const SiteRun &
    siteRun(uint16_t id) const
    {
        return site_runs_[static_cast<size_t>(id) - 1];
    }

    /** @return all compiled site runs, in program order. */
    const std::vector<SiteRun> &
    siteRuns() const
    {
        return site_runs_;
    }

    /** @return total instructions covered by site runs. */
    size_t siteRunInstrs() const;

  private:
    std::string error_;
    std::vector<MicroOp> uops_;
    std::vector<Superblock> superblocks_;
    std::vector<SiteRun> site_runs_;
};

/**
 * Process-wide registry of compiled micro-programs, keyed by a
 * content fingerprint of the kernel (name, register/local budget,
 * and every instruction field), so the same kernel compiled once is
 * shared across launches, Devices, and CTA-worker shards — and an
 * instrumented rewrite of a kernel (same name, new code) naturally
 * misses and recompiles. All entry points are thread-safe.
 */
class UopCache
{
  public:
    /** The process-wide cache instance. */
    static UopCache &global();

    /** Look up (or compile and insert) a kernel's micro-program,
     *  with or without fused sites. */
    std::shared_ptr<const MicroProgram> get(const ir::Kernel &kernel,
                                            bool fuseSites = false);

    /** Drop every entry compiled from a kernel with this name.
     *  Called when a pass rewrites a kernel in place; lookups would
     *  miss anyway (the fingerprint changed), so this only bounds
     *  stale-entry growth. @return entries dropped. */
    size_t invalidate(std::string_view kernel_name);

    /** Drop every entry and reset the counters (tests). */
    void clear();

    /** Credit dynamic superblock executions from a finished launch. */
    void noteRuns(uint64_t runs, uint64_t instrs);

    /** Credit uop dispatches from a finished launch that ran with
     *  the SIMD tier enabled: uops executed lane-vectorized vs uops
     *  that fell back to their scalar exec function. */
    void noteSimd(uint64_t vector_uops, uint64_t scalar_uops);

    /** Credit handler dispatches from a finished launch: inline
     *  (fused) calls, fiber-path calls, sites that hit a fused head
     *  but fell back, and frame-template bytes written inline. */
    void noteHandlerCalls(uint64_t inline_calls, uint64_t fiber_calls,
                          uint64_t fallbacks,
                          uint64_t inline_spill_bytes);

    /** @return a copy of the cache's metrics: compile/hit/entry
     *  counters, superblock-length histogram, and dynamic run
     *  totals, under "uop/...". Process-wide (not launch-scoped),
     *  so the per-launch registry stays identical whether
     *  superblocks are on or off. */
    Metrics snapshot() const;

    /** @return number of cached programs. */
    size_t size() const;

    /** Content fingerprint a kernel is cached under (the final key
     *  additionally mixes in the fused-sites bit). */
    static uint64_t fingerprint(const ir::Kernel &kernel);

  private:
    struct Entry
    {
        std::string name;
        std::shared_ptr<const MicroProgram> prog;
    };

    mutable std::mutex mutex_;
    std::map<uint64_t, Entry> entries_;
    Metrics metrics_;
};

/**
 * Resolve one launch's dispatch mode into the switches the executor
 * runs with: a set LaunchOptions::exec wins; otherwise the
 * SASSI_SIM_EXEC environment variable when it names a mode (an
 * unknown name is reported once on stderr, with the accepted names,
 * and ignored); otherwise kDefaultExecMode. SIMD additionally
 * requires simd::cpuHasAvx2().
 */
ExecConfig resolveExecConfig(std::optional<ExecMode> requested);

} // namespace sassi::simt

#endif // SASSI_SIMT_DECODE_H
