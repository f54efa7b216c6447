/**
 * @file
 * The paper's pedagogical instrumentation library (Figure 3):
 * categorize every executed instruction into overlapping classes
 * with device-side counters, collected via CUPTI-style callbacks.
 */

#ifndef SASSI_HANDLERS_INSTR_COUNTER_H
#define SASSI_HANDLERS_INSTR_COUNTER_H

#include <array>
#include <cstdint>

#include "core/runtime.h"

namespace sassi::handlers {

/**
 * Counts dynamic thread-level instructions in the categories of the
 * paper's Figure 3 handler: [memory, extended memory (>4B),
 * control transfer, sync, numeric, texture, total executed].
 *
 * Attach to a runtime whose module was instrumented with
 * beforeAll + memoryInfo.
 */
class InstrCounter
{
  public:
    /** Category indices into counts(). */
    enum Category {
        Memory = 0,
        ExtendedMemory,
        ControlXfer,
        Sync,
        Numeric,
        Texture,
        TotalExecuted,
        NumCategories,
    };

    /** Allocate device counters and install the handler. */
    InstrCounter(simt::Device &dev, core::SassiRuntime &rt);

    /** The installed warp handler holds `this`, so the tool stays
     *  put. */
    InstrCounter(const InstrCounter &) = delete;
    InstrCounter &operator=(const InstrCounter &) = delete;

    /** Host-side: copy the counters off the device. */
    std::array<uint64_t, NumCategories> counts() const;

    /** Publish the counters under "handlers/instr_counter/...". */
    void publish(Metrics &m) const;

    /** Host-side: zero the counters. */
    void reset();

    /** @return suggested InstrumentOptions for this tool. */
    static core::InstrumentOptions
    options()
    {
        core::InstrumentOptions o;
        o.beforeAll = true;
        o.memoryInfo = true;
        return o;
    }

  private:
    simt::Device &dev_;
    uint64_t counters_;
};

} // namespace sassi::handlers

#endif // SASSI_HANDLERS_INSTR_COUNTER_H
