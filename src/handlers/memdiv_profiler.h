/**
 * @file
 * Case study II: memory address divergence profiling (paper §6).
 *
 * Implements the Figure 6 handler: for every global-memory warp
 * instruction, iteratively elect leaders and count the number of
 * unique cache lines requested, recording into a 32x32 matrix of
 * (active threads) x (unique lines) counters — the data behind the
 * paper's Figures 7 and 8.
 */

#ifndef SASSI_HANDLERS_MEMDIV_PROFILER_H
#define SASSI_HANDLERS_MEMDIV_PROFILER_H

#include <array>
#include <cstdint>
#include <vector>

#include "core/runtime.h"

namespace sassi::handlers {

/** The 32x32 occupancy-by-divergence counter matrix. */
using DivergenceMatrix = std::array<std::array<uint64_t, 32>, 32>;

/** PMF over unique-lines-per-warp-instruction, N = 1..32. */
struct DivergencePmf
{
    /** pmf[N-1]: fraction of thread-level accesses issued from warp
     *  instructions requesting N unique lines (Figure 7's metric). */
    std::array<double, 32> byThreadAccesses{};

    /** Same, weighting each warp instruction equally. */
    std::array<double, 32> byWarpInstructions{};

    /** Mean unique lines per warp instruction. */
    double meanUniqueLines = 0.0;

    /** Fraction of thread accesses from fully diverged (N=32) warps. */
    double fullyDivergedShare = 0.0;
};

/** The memory-divergence tool (paper §6.1). */
class MemDivProfiler
{
  public:
    /** Cache-line size used to coalesce (paper uses 32B lines). */
    static constexpr int LineBytes = 32;
    static constexpr int OffsetBits = 5;

    MemDivProfiler(simt::Device &dev, core::SassiRuntime &rt);

    /** The installed warp handler holds `this`, so the tool stays
     *  put. */
    MemDivProfiler(const MemDivProfiler &) = delete;
    MemDivProfiler &operator=(const MemDivProfiler &) = delete;

    /** Host-side: copy the counter matrix off the device. */
    DivergenceMatrix matrix() const;

    /** Host-side: derive the Figure 7 PMF from the matrix. */
    DivergencePmf pmf() const;

    /** Publish matrix aggregates under "handlers/memdiv/...". */
    void publish(Metrics &m) const;

    /** Host-side: zero the counters. */
    void reset();

    /** @return the InstrumentOptions this tool requires. */
    static core::InstrumentOptions
    options()
    {
        core::InstrumentOptions o;
        o.beforeMem = true;
        o.memoryInfo = true;
        return o;
    }

  private:
    simt::Device &dev_;
    uint64_t counters_; //!< 32*32 u64 device matrix, row = active-1.
};

} // namespace sassi::handlers

#endif // SASSI_HANDLERS_MEMDIV_PROFILER_H
