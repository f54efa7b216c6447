/**
 * @file
 * Launch configuration, argument packing, statistics, and results.
 */

#ifndef SASSI_SIMT_LAUNCH_H
#define SASSI_SIMT_LAUNCH_H

#include <array>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sass/opcode.h"
#include "simt/dim3.h"
#include "util/metrics.h"

namespace sassi::simt {

/**
 * Packs kernel parameters into the constant bank the kernel reads
 * with LDC, mirroring CUDA's parameter space c[0x0][...]. Arguments
 * are appended with natural alignment.
 */
class KernelArgs
{
  public:
    /** Append a 32-bit value. @return its byte offset. */
    size_t
    addU32(uint32_t v)
    {
        return append(&v, 4, 4);
    }

    /** Append a 32-bit float. @return its byte offset. */
    size_t
    addF32(float v)
    {
        return append(&v, 4, 4);
    }

    /** Append a 64-bit value (e.g.\ a device pointer). */
    size_t
    addU64(uint64_t v)
    {
        return append(&v, 8, 8);
    }

    /** @return the packed parameter bytes. */
    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    size_t
    append(const void *src, size_t n, size_t align)
    {
        size_t off = (bytes_.size() + align - 1) & ~(align - 1);
        bytes_.resize(off + n);
        std::memcpy(bytes_.data() + off, src, n);
        return off;
    }

    std::vector<uint8_t> bytes_;
};

/** Why a launch stopped. */
enum class Outcome {
    Ok,         //!< Ran to completion.
    MemFault,   //!< Out-of-bounds or unmapped access.
    InvalidPC,  //!< Control transferred outside the kernel.
    Hang,       //!< Watchdog expired or barrier deadlock.
    Trap,       //!< BPT executed.
    InvalidKernel, //!< Failed the decode-time check; no CTA ran.
};

/** @return a printable name for an outcome. */
const char *outcomeName(Outcome o);

/** Dynamic execution statistics of one launch. */
struct LaunchStats
{
    /** Warp-level instructions issued (one per warp per issue). */
    uint64_t warpInstrs = 0;

    /** Thread-level instructions (weighted by active lanes). */
    uint64_t threadInstrs = 0;

    /** Warp-level instructions that SASSI injected. */
    uint64_t syntheticWarpInstrs = 0;

    /** Instrumentation-handler invocations (one per warp per site). */
    uint64_t handlerCalls = 0;

    /** Modeled cost of handler bodies, in warp instructions. */
    uint64_t handlerCostInstrs = 0;

    /** Warp-level memory instructions. */
    uint64_t memWarpInstrs = 0;

    /** CTAs executed. */
    uint64_t ctas = 0;

    /** Per-opcode warp-instruction histogram. */
    std::array<uint64_t, sass::NumOpcodes> opcodeCounts{};

    /** Accumulate another launch's statistics. */
    void
    add(const LaunchStats &o)
    {
        warpInstrs += o.warpInstrs;
        threadInstrs += o.threadInstrs;
        syntheticWarpInstrs += o.syntheticWarpInstrs;
        handlerCalls += o.handlerCalls;
        handlerCostInstrs += o.handlerCostInstrs;
        memWarpInstrs += o.memWarpInstrs;
        ctas += o.ctas;
        for (size_t i = 0; i < opcodeCounts.size(); ++i)
            opcodeCounts[i] += o.opcodeCounts[i];
    }

    /**
     * Device-side "kernel time" proxy: issued warp instructions plus
     * the modeled handler cost. Table 3's K column is the ratio of
     * this between instrumented and baseline runs.
     */
    uint64_t
    kernelTimeProxy() const
    {
        return warpInstrs + handlerCostInstrs;
    }
};

/**
 * How the interpreter dispatches a launch. Every mode is
 * observationally equivalent to Generic, the reference: same
 * LaunchStats, metrics registry, tool aggregates and memory. The
 * differential suites and the fuzz oracle run each program in every
 * mode of kExecModes to hold them to that.
 *
 *  - Generic: per-instruction step() everywhere, and every
 *    instrumentation site through the fiber dispatch.
 *  - Superblock: straight-line runs of unpredicated ALU micro-ops
 *    execute in one batched loop (simt/decode.h), one lane at a
 *    time through the scalar exec functions.
 *  - SuperblockSimd: the same runs on the AVX2 lane-vectorized tier
 *    (simt/simd/simd_exec.h).
 *  - Fused: superblocks plus compiled instrumentation sites: frame
 *    templates written with direct stores, reentrant-safe handlers
 *    called inline instead of through a fiber (simt/site_fuse.h).
 *  - FusedSimd: fused sites on the SIMD tier; the default.
 *
 * On a host without AVX2 the SIMD modes run the scalar tier. The
 * fiber path always remains for warp-synchronous handlers and sites
 * that do not fuse.
 */
enum class ExecMode : uint8_t {
    Generic,
    Superblock,
    SuperblockSimd,
    Fused,
    FusedSimd,
};

/** Every mode, reference first. */
inline constexpr ExecMode kExecModes[] = {
    ExecMode::Generic, ExecMode::Superblock, ExecMode::SuperblockSimd,
    ExecMode::Fused, ExecMode::FusedSimd};

/** The mode a launch runs in unless told otherwise. */
inline constexpr ExecMode kDefaultExecMode = ExecMode::FusedSimd;

/** The interpreter switches an ExecMode turns on. */
struct ExecConfig
{
    bool superblocks = false; //!< Batched superblock runs.
    bool fuseSites = false;   //!< Compiled instrumentation sites.
    bool simd = false;        //!< AVX2 lane-vectorized uops.

    bool operator==(const ExecConfig &) const = default;
};

/** Each ExecMode's name and switches, indexed by its value. */
struct ExecModeRow
{
    const char *name;
    ExecConfig config;
};
inline constexpr ExecModeRow kExecModeRows[] = {
    {"generic", {false, false, false}},
    {"superblock", {true, false, false}},
    {"superblock-simd", {true, false, true}},
    {"fused", {true, true, false}},
    {"fused-simd", {true, true, true}},
};
static_assert(std::size(kExecModeRows) == std::size(kExecModes));

/** @return the switches a mode requests, before the host check
 *  that resolveExecConfig() (simt/decode.h) adds for SIMD. */
constexpr ExecConfig
execConfigOf(ExecMode m)
{
    return kExecModeRows[static_cast<size_t>(m)].config;
}

/** @return the mode's name, as SASSI_SIM_EXEC and sassi_prof
 *  --exec spell it. */
constexpr const char *
execModeName(ExecMode m)
{
    return kExecModeRows[static_cast<size_t>(m)].name;
}

/** @return the mode named `name`, or nullopt for any other string
 *  (the empty one included). */
constexpr std::optional<ExecMode>
parseExecMode(std::string_view name)
{
    for (ExecMode m : kExecModes)
        if (name == execModeName(m))
            return m;
    return std::nullopt;
}

/** Options modifying a single launch. */
struct LaunchOptions
{
    /** Dynamic shared memory bytes (added to the kernel's static). */
    uint32_t dynamicShared = 0;

    /** Warp-instruction budget before declaring a hang. In a
     *  parallel launch each worker gets the full budget (the serial
     *  path is unchanged). */
    uint64_t watchdog = 400'000'000;

    /**
     * Worker threads executing the CTA grid. CTAs are independent up
     * to global atomics, so they shard across workers; per-worker
     * statistics are merged in worker order, keeping all LaunchStats
     * counters thread-count-invariant. 1 preserves the historical
     * strictly-serial execution byte for byte; 0 means auto — the
     * SASSI_SIM_THREADS environment variable when set, otherwise
     * hardware concurrency. Launches whose output depends on the
     * cross-CTA ordering of atomics (CAS/EXCH work queues, trace
     * collection) should pin this to 1.
     */
    int numThreads = 0;

    /**
     * Interpreter dispatch mode (see ExecMode). Unset defers to the
     * SASSI_SIM_EXEC environment variable (a mode name), then to
     * kDefaultExecMode. Launches that must run one particular path —
     * the differential suites, the fuzz oracle, bench_interp — set
     * it explicitly.
     */
    std::optional<ExecMode> exec;
};

/**
 * Which dispatch planes one launch actually ran through, as raw
 * dynamic counts. These are the same totals the executor credits to
 * the process-wide UopCache metrics ("uop/dynamic/...",
 * "uop/simd/...", "uop/handler/..."), exported per launch so
 * observers with concurrent launches in flight — the fuzz campaign's
 * coverage tracker foremost — can attribute them to a single run
 * without racing on the global registry. Deliberately NOT part of
 * LaunchResult::metrics: the per-launch registry is documented to be
 * identical across dispatch modes, which is exactly what these
 * counts are not.
 */
struct DispatchUsage
{
    uint64_t superblockRuns = 0;  //!< Batched superblock executions.
    uint64_t superblockInstrs = 0;//!< Warp instructions inside them.
    uint64_t vectorUops = 0;      //!< Uops executed lane-vectorized.
    uint64_t scalarUops = 0;      //!< SIMD-tier scalar fallbacks.
    uint64_t inlineHandlerCalls = 0; //!< Fused-site inline dispatches.
    uint64_t fiberHandlerCalls = 0;  //!< Fiber-path dispatches.
};

/** The result of one kernel launch. */
struct LaunchResult
{
    Outcome outcome = Outcome::Ok;
    std::string message;
    LaunchStats stats;

    /** Dynamic dispatch-plane usage of this launch (see above). */
    DispatchUsage dispatch;

    /**
     * The launch's metrics registry: LaunchStats republished under
     * "simt/...", the interpreter's histograms (divergence-stack
     * depth, per-CTA warp instructions), spill/fill traffic, and
     * whatever the installed dispatcher recorded under "core/..."
     * during the launch. Worker shards merge in worker order, so
     * the registry is thread-count-invariant like LaunchStats.
     */
    Metrics metrics;

    /** @return true when the kernel completed without fault. */
    bool ok() const { return outcome == Outcome::Ok; }
};

} // namespace sassi::simt

#endif // SASSI_SIMT_LAUNCH_H
