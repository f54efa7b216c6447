#include "handlers/instr_counter.h"

#include "core/intrinsics.h"

namespace sassi::handlers {

InstrCounter::InstrCounter(simt::Device &dev, core::SassiRuntime &rt)
    : dev_(dev)
{
    counters_ = dev_.malloc(NumCategories * 8);
    reset();

    uint64_t counters = counters_;
    core::HandlerTraits traits;
    traits.warpSynchronous = false; // Figure 3 uses only atomics.
    traits.reentrantSafe = true;    // ...so it can run inline, too.
    // Warp-level body for the fused fast path: every category test
    // reads only the (lane-invariant) instruction encoding, so the
    // 32 per-lane +1 atomics collapse to one +num_active per
    // category. Same final counter values, observationally.
    traits.warpCtx = this;
    traits.warpFn = [](const void *ctx, const core::WarpHandlerEnv &we) {
        const uint64_t counters =
            static_cast<const InstrCounter *>(ctx)->counters_;
        auto n =
            static_cast<uint64_t>(cuda::popc(we.activeMask));
        const core::HandlerEnv &lead =
            we.envs[static_cast<size_t>(cuda::ffs(we.activeMask) - 1)];
        const auto &bp = lead.bp;
        if (bp.IsMem()) {
            cuda::countAdd64(counters + Memory * 8, n);
            if (lead.mp.GetWidth() > 4 /*bytes*/)
                cuda::countAdd64(counters + ExtendedMemory * 8, n);
        }
        if (bp.IsControlXfer())
            cuda::countAdd64(counters + ControlXfer * 8, n);
        if (bp.IsSync())
            cuda::countAdd64(counters + Sync * 8, n);
        if (bp.IsNumeric())
            cuda::countAdd64(counters + Numeric * 8, n);
        if (bp.IsTexture())
            cuda::countAdd64(counters + Texture * 8, n);
        cuda::countAdd64(counters + TotalExecuted * 8, n);
    };
    rt.setBeforeHandler([counters](const core::HandlerEnv &env) {
        // Figure 3, verbatim logic: overlapping category counters
        // bumped with blind adds (countAdd64 defers visibility to
        // launch end — the host only reads them after the launch,
        // and sharded adds commute to the same totals).
        const auto &bp = env.bp;
        const auto &mp = env.mp;
        if (bp.IsMem()) {
            cuda::countAdd64(counters + Memory * 8, 1);
            if (mp.GetWidth() > 4 /*bytes*/)
                cuda::countAdd64(counters + ExtendedMemory * 8, 1);
        }
        if (bp.IsControlXfer())
            cuda::countAdd64(counters + ControlXfer * 8, 1);
        if (bp.IsSync())
            cuda::countAdd64(counters + Sync * 8, 1);
        if (bp.IsNumeric())
            cuda::countAdd64(counters + Numeric * 8, 1);
        if (bp.IsTexture())
            cuda::countAdd64(counters + Texture * 8, 1);
        cuda::countAdd64(counters + TotalExecuted * 8, 1);
    }, traits);
}

std::array<uint64_t, InstrCounter::NumCategories>
InstrCounter::counts() const
{
    std::array<uint64_t, NumCategories> out{};
    dev_.memcpyDtoH(out.data(), counters_, sizeof(out));
    return out;
}

void
InstrCounter::publish(Metrics &m) const
{
    static const char *const names[NumCategories] = {
        "memory",  "extended_memory", "control_xfer",   "sync",
        "numeric", "texture",         "total_executed",
    };
    std::array<uint64_t, NumCategories> c = counts();
    for (int i = 0; i < NumCategories; ++i)
        m.counter(std::string("handlers/instr_counter/") + names[i]) +=
            c[static_cast<size_t>(i)];
}

void
InstrCounter::reset()
{
    dev_.memset(counters_, 0, NumCategories * 8);
}

} // namespace sassi::handlers
