/**
 * @file
 * The SIMT interpreter: executes one kernel launch.
 *
 * Semantics follow NVIDIA's Fermi/Kepler execution model as the
 * paper describes it (§2.1, §5): 32-lane warps fetch from a single
 * PC, conditional control flow pushes deferred paths onto a
 * divergence stack (SSY pushes the reconvergence token, divergent
 * branches push the not-taken side, SYNC pops), and predication
 * nullifies guarded-false lanes. Warps within a CTA interleave
 * round-robin, one instruction at a time; CTAs are independent up
 * to global atomics, so the grid is split into contiguous CTA
 * chunks scheduled work-stealing across a worker pool
 * (LaunchOptions::numThreads, simt/chunk_sched.h). Each worker is
 * an executor of its own with private warp state, shared memory,
 * statistics, and a deferred-counter shard; per-chunk statistics
 * are merged in chunk (i.e.\ ascending CTA) order and everything
 * per-worker is commutative, so results are bit-identical at any
 * thread count no matter which worker ran which chunk. With one
 * worker the historical strictly-serial execution is preserved
 * byte for byte.
 *
 * JCALs whose target is >= HandlerBase are SASSI handler
 * trampolines and are forwarded to the installed HandlerDispatcher.
 */

#ifndef SASSI_SIMT_EXECUTOR_H
#define SASSI_SIMT_EXECUTOR_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "sassir/module.h"
#include "simt/chunk_sched.h"
#include "simt/counter_shard.h"
#include "simt/decode.h"
#include "simt/device.h"
#include "simt/launch.h"
#include "simt/warp.h"
#include "util/metrics.h"

namespace sassi::simt {

/** Internal fault signal; run() converts it into a LaunchResult. */
struct SimFault
{
    Outcome outcome;
    std::string message;
};

/** Executes one launch of one kernel. */
class Executor
{
  public:
    /**
     * @param dev The device (memory, dispatcher).
     * @param kernel The kernel to run.
     * @param grid Grid dimensions.
     * @param block Block dimensions.
     * @param params Packed kernel parameters (LDC space).
     * @param opts Launch options.
     */
    Executor(Device &dev, const ir::Kernel &kernel, Dim3 grid, Dim3 block,
             std::vector<uint8_t> params, const LaunchOptions &opts);

    /**
     * Run the whole grid to completion, scheduling CTA chunks
     * work-stealing across the worker pool when the options allow
     * more than one thread. LaunchStats are accumulated per chunk
     * and merged in chunk order, so completed launches report
     * thread-count-invariant statistics. On a fault, the reported
     * fault — outcome, message, *and* statistics — comes from the
     * globally lowest faulting CTA-linear id: workers abandon CTAs
     * above the published fault bound but finish everything below
     * it, and chunks past the faulting one are dropped from the
     * merge, reproducing exactly what the serial path would have
     * executed and reported.
     */
    LaunchResult run();

    /// @name Introspection for handler dispatch
    /// @{

    Device &device() { return dev_; }
    const ir::Kernel &kernel() const { return kernel_; }
    Dim3 gridDim() const { return grid_; }
    Dim3 blockDim() const { return block_; }

    /** Coordinates of the CTA currently executing. */
    Dim3 ctaId() const { return cta_; }

    /** Linear id of the CTA currently executing. */
    uint64_t ctaLinear() const { return cta_linear_; }

    /**
     * Process-unique id of this executor instance. Caches keyed by
     * executor pointer alone could alias across launches (a later
     * Executor at the same address); keying by (pointer, launchSeq)
     * cannot.
     */
    uint64_t launchSeq() const { return launch_seq_; }

    /** Thread index (x,y,z) of a lane in the current CTA. Inline —
     *  handler dispatch builds a threadIdx per lane per site. */
    Dim3
    threadIdx(const Warp &warp, int lane) const
    {
        uint32_t linear =
            static_cast<uint32_t>(threadLinearInCta(warp, lane));
        // 1-D blocks (the overwhelmingly common case) skip the
        // div/mod chain.
        if (block_.y == 1 && block_.z == 1)
            return Dim3(linear, 0, 0);
        Dim3 t;
        t.x = linear % block_.x;
        t.y = (linear / block_.x) % block_.y;
        t.z = linear / (block_.x * block_.y);
        return t;
    }

    /** Flat thread index of a lane within its CTA. */
    int
    threadLinearInCta(const Warp &warp, int lane) const
    {
        return warp.rank * sass::WarpSize + lane;
    }

    /** Grid-wide flat thread index of a lane. */
    uint64_t
    globalThreadLinear(const Warp &warp, int lane) const
    {
        return cta_linear_ * block_.count() +
               static_cast<uint64_t>(threadLinearInCta(warp, lane));
    }

    /** Generic-window address of a thread's local byte 0. */
    uint64_t
    localWindowAddr(const Warp &warp, int lane) const
    {
        return Device::LocalWindowBase +
               globalThreadLinear(warp, lane) * kernel_.localBytes;
    }

    /**
     * Read up to 8 bytes through a generic address (global heap or
     * the local window of a thread in the current CTA). Throws
     * SimFault on a bad address — callers on fiber stacks must
     * catch before unwinding across the fiber boundary.
     */
    uint64_t readGeneric(uint64_t addr, int width);

    /** Write up to 8 bytes through a generic address. */
    void writeGeneric(uint64_t addr, uint64_t value, int width);

    /** Mutable statistics of the in-flight launch. In a parallel
     *  launch this is the calling worker's private accumulator. */
    LaunchStats &stats() { return stats_; }

    /**
     * The in-flight launch's metrics registry shard. Like stats(),
     * this is worker-private during a parallel launch and merged in
     * worker order at the end, so anything handlers record here must
     * be a sum/histogram for the registry to stay thread-count-
     * invariant.
     */
    Metrics &metrics() { return metrics_; }

    /**
     * Worker-private buffer for deferred blind counter adds
     * (cuda::countAdd64). Shards merge after the workers join and
     * the coordinator applies the summed deltas once; addition
     * commutes, so flushed counter values are bit-identical to
     * contended atomics at any thread count.
     */
    CounterShard &counterShard() { return counter_shard_; }

    /** Timeline track (worker index) of this executor's events. */
    int traceTid() const { return trace_tid_; }

    /**
     * Opaque per-launch scratch slot owned by the installed
     * dispatcher (e.g.\ cached registry handles into metrics()).
     * Worker-private like stats(); dies with the executor, so
     * cached pointers can never outlive the registry they index.
     */
    std::shared_ptr<void> &dispatcherScratch()
    {
        return dispatcher_scratch_;
    }

    /** Charge modeled handler-body cost, in warp instructions. */
    void
    chargeHandlerCost(uint64_t warp_instrs)
    {
        stats_.handlerCostInstrs += warp_instrs;
    }

    /// @}

  private:
    /** Outcome and statistics of one CTA chunk. */
    struct ChunkOutcome
    {
        LaunchStats stats;
        Outcome outcome = Outcome::Ok;
        std::string message;
        uint64_t faultCta = ~0ull;
    };

    /** Pull chunks from the scheduler until none remain. */
    void runWorker(int worker, ChunkScheduler &sched,
                   std::vector<ChunkOutcome> &out);
    /** Run one chunk's CTAs (ascending), honoring the fault bound. */
    void runChunk(const CtaChunk &chunk, ChunkOutcome &out);
    /** Run one CTA by linear id (trace + per-CTA bookkeeping). */
    void runOneCta(uint64_t linear);
    /** Apply the merged deferred-counter deltas to device memory. */
    void flushCounterShard();
    /** Republish final stats into metrics_ and attach the registry. */
    void finalizeMetrics(LaunchResult &result);
    /** Export this launch's dispatch-plane totals (post-merge). */
    void exportDispatchUsage(LaunchResult &result) const;
    void runCta();
    void step(Warp &warp);
    void unwindStack(Warp &warp);
    [[noreturn]] void
    fault(Outcome outcome, const std::string &message) const;

    /** Resolve a lane's memory operand to a host pointer. */
    uint8_t *resolveAddr(Warp &warp, int lane,
                         const sass::Instruction &ins, uint64_t addr,
                         int width);
    uint8_t *resolveGeneric(uint64_t addr, int width);

    /** Execute a whole superblock run for a converged warp. */
    void execSuperblock(Warp &warp, const Superblock &sb);

    /**
     * Try to enter a fused instrumentation site: materialize the
     * site's parameter frame from its compiled template and park the
     * warp on the round its JCAL would execute in. Returns false —
     * and leaves the warp untouched — when the site must take the
     * generic per-instruction path (handler not inline-dispatchable,
     * watchdog budget too tight, or a frame address the generic path
     * would fault on).
     */
    bool enterSiteRun(Warp &warp, uint16_t id);

    /** Dispatch the parked site's handler inline and replay the
     *  epilogue's register effects from the compiled template. */
    void completeSiteRun(Warp &warp);

    void execMem(Warp &warp, const sass::Instruction &ins, uint32_t exec);
    void execWarpOp(Warp &warp, const sass::Instruction &ins,
                    uint32_t exec);

    Device &dev_;
    const ir::Kernel &kernel_;
    Dim3 grid_;
    Dim3 block_;
    std::vector<uint8_t> params_;
    LaunchOptions opts_;

    // --- Hot per-worker accumulators, written on every interpreted
    // instruction. Shard executors are separate allocations but the
    // allocator packs them; starting this block on its own cache
    // line keeps neighboring shards from false-sharing the fields
    // the inner loop hammers. ---
    alignas(64) LaunchStats stats_;
    Metrics metrics_;

    // Registry handles cached at construction so the interpreter's
    // hot loop bumps plain uint64s instead of doing map lookups.
    uint64_t *m_spill_instrs_ = nullptr;
    uint64_t *m_spill_bytes_ = nullptr;
    MetricHistogram *m_div_depth_ = nullptr;
    MetricHistogram *m_cta_warp_instrs_ = nullptr;
    int trace_tid_ = 0;
    uint64_t launch_seq_ = 0;
    std::shared_ptr<void> dispatcher_scratch_;

    // The kernel's compiled micro-program: fetched from the
    // process-wide UopCache by the coordinating executor and shared
    // read-only with its shards.
    std::shared_ptr<const MicroProgram> prog_;

    // This launch's dispatch switches: resolved once per launch
    // from opts_.exec / SASSI_SIM_EXEC by the coordinating executor
    // and copied to its shards.
    ExecConfig exec_;

    // Dynamic compiled-handler dispatch counts of this worker,
    // flushed to the UopCache once per launch alongside sb_runs_
    // (never into the launch registry, which must serialize
    // identically with the fast path on and off).
    uint64_t hs_inline_ = 0;
    uint64_t hs_fiber_ = 0;
    uint64_t hs_fallback_ = 0;
    uint64_t hs_inline_spill_bytes_ = 0;

    // Context the micro-op exec functions need beyond the warp;
    // refreshed per CTA.
    UopCtx uop_ctx_;

    // Dynamic superblock executions of this worker, flushed to the
    // UopCache once per launch (not into the launch registry, which
    // must serialize identically in every ExecMode).
    uint64_t sb_runs_ = 0;
    uint64_t sb_instrs_ = 0;

    // Uop dispatch counts of this worker while the SIMD tier was
    // on: executed vectorized vs fell back to the scalar exec
    // function. Flushed with sb_runs_ (same launch-registry
    // invariance rule).
    uint64_t simd_vec_uops_ = 0;
    uint64_t simd_scalar_uops_ = 0;

    // Lowest faulting CTA-linear id published so far (fetch-min),
    // pointing into run()'s frame. Workers skip CTAs above the
    // bound at CTA boundaries but still finish everything below it,
    // so the final bound is deterministically the CTA the serial
    // path would have faulted on.
    std::atomic<uint64_t> *fault_bound_ = nullptr;

    // Deferred blind counter adds of this worker (cache-line-
    // aligned: the counterShard() add path runs once per handler
    // category bump).
    alignas(64) CounterShard counter_shard_;

    // Current CTA context (worker-private).
    std::vector<Warp> warps_;
    std::vector<uint8_t> shared_;
    Dim3 cta_;
    uint64_t cta_linear_ = 0;
    uint64_t watchdog_count_ = 0;
};

} // namespace sassi::simt

#endif // SASSI_SIMT_EXECUTOR_H
