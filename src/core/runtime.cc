#include "core/runtime.h"

#include <array>
#include <memory>

#include "util/bitops.h"
#include "util/logging.h"
#include "util/trace.h"

namespace sassi::core {

namespace {
thread_local DispatchState *tl_dispatch = nullptr;

const char *
flavorName(SiteFlavor f)
{
    switch (f) {
      case SiteFlavor::Before: return "before";
      case SiteFlavor::After: return "after";
      case SiteFlavor::KernelEntry: return "kernel_entry";
      case SiteFlavor::KernelExit: return "kernel_exit";
      case SiteFlavor::BlockHeader: return "block_header";
    }
    return "unknown";
}

/**
 * Registry handles for the per-dispatch bookkeeping, cached in the
 * executor's dispatcher-scratch slot so the hot path bumps plain
 * uint64s instead of hashing key strings on every handler call.
 * The slot is worker-private and dies with the executor, so the
 * cached pointers cannot outlive the registry shard they index.
 */
struct SiteMetricsCache
{
    uint64_t *calls = nullptr;
    MetricHistogram *lanes = nullptr;
    uint64_t *flavor[8] = {};        //!< Indexed by SiteFlavor.
    std::vector<uint64_t *> site;    //!< Indexed by site key (lazy).
};

SiteMetricsCache &
metricsCache(simt::Executor &exec, size_t num_sites)
{
    std::shared_ptr<void> &slot = exec.dispatcherScratch();
    if (!slot) {
        auto cache = std::make_shared<SiteMetricsCache>();
        Metrics &m = exec.metrics();
        cache->calls = &m.counter("core/dispatch/calls");
        cache->lanes = &m.histogram("core/dispatch/lanes");
        cache->site.assign(num_sites, nullptr);
        slot = std::move(cache);
    }
    return *static_cast<SiteMetricsCache *>(slot.get());
}

/** Per-dispatch counter bumps, shared by both dispatch paths. */
void
noteDispatch(simt::Executor &exec, SiteMetricsCache &cache,
             const SiteInfo &site, int32_t site_key,
             uint32_t active_mask)
{
    ++*cache.calls;
    uint64_t *&fl = cache.flavor[static_cast<size_t>(site.flavor)];
    if (!fl)
        fl = &exec.metrics().counter(site.metricFlavor);
    ++*fl;
    uint64_t *&sc = cache.site[static_cast<size_t>(site_key)];
    if (!sc)
        sc = &exec.metrics().counter(site.metricCalls);
    ++*sc;
    cache.lanes->observe(static_cast<uint64_t>(popc(active_mask)));
}

/**
 * Per-worker environment arena for the inline dispatch path. The
 * expensive parts of a HandlerEnv — four param-view constructors and
 * four Dim3 copies per lane — are invariant across every dispatch of
 * one (site, executor, warp, CTA); only the frame location moves.
 * So the arena keeps 32 fully-bound environments keyed by that
 * tuple: a key hit refreshes just the frame pointers (two stores per
 * view), a miss rebinds lazily, lane by lane, as lanes first appear
 * in an active mask.
 */
struct EnvArena
{
    std::array<HandlerEnv, sass::WarpSize> envs;
    const SiteInfo *site = nullptr;
    simt::Executor *exec = nullptr;
    simt::Warp *warp = nullptr;
    uint64_t seq = 0; //!< exec->launchSeq(): no cross-launch alias.
    uint64_t cta = ~0ull;
    uint32_t boundMask = 0; //!< Lanes fully bound under this key.
    /**
     * Frame address each bound lane's views point at. Within one
     * arena key the host pointer is a pure function of the generic
     * address (same executor, warp, and local window), so a matching
     * address means the lane's views are already current and even
     * the two-store-per-view refresh can be skipped — the common
     * case for a site re-dispatched in a loop with a stable R1.
     */
    std::array<uint64_t, sass::WarpSize> frames;
};

/**
 * The per-worker arena pool: one EnvArena per (site key, warp rank),
 * allocated lazily as dispatches touch each combination. A single
 * arena would thrash — a kernel's sites dispatch round-robin across
 * the CTA's warps, so consecutive inline dispatches almost never
 * share a (site, warp) pair. With the pool, each site's per-warp
 * invariants survive the whole launch and a dispatch is a key check
 * plus frame-address compares.
 */
struct ArenaPool
{
    std::vector<std::vector<std::unique_ptr<EnvArena>>> bySite;

    EnvArena &
    at(size_t site_key, size_t rank)
    {
        if (bySite.size() <= site_key)
            bySite.resize(site_key + 1);
        auto &ranks = bySite[site_key];
        if (ranks.size() <= rank)
            ranks.resize(rank + 1);
        if (!ranks[rank])
            ranks[rank] = std::make_unique<EnvArena>();
        return *ranks[rank];
    }
};
} // namespace

DispatchState *
currentDispatch()
{
    return tl_dispatch;
}

SassiRuntime::SassiRuntime(simt::Device &dev)
    : dev_(dev)
{
    panic_if(dev_.dispatcher() != nullptr,
             "device already has a SASSI runtime installed");
    dev_.setDispatcher(this);
}

SassiRuntime::~SassiRuntime()
{
    if (dev_.dispatcher() == this)
        dev_.setDispatcher(nullptr);
}

int32_t
SassiRuntime::addSite(SiteInfo site)
{
    site.metricCalls =
        detail::strFormat("core/site/%s@%d/calls",
                          site.kernelName.c_str(), site.origPc);
    site.metricFlavor =
        std::string("core/dispatch/flavor/") + flavorName(site.flavor);
    sites_.push_back(std::move(site));
    records_dirty_ = true; // sites_ may have reallocated.
    return static_cast<int32_t>(sites_.size()) - 1;
}

void
SassiRuntime::prepareLaunch()
{
    if (!records_dirty_ && records_.size() == sites_.size())
        return;
    records_.clear();
    records_.reserve(sites_.size());
    for (const SiteInfo &site : sites_) {
        SiteDispatchRecord r;
        r.site = &site;
        bool is_after = site.flavor == SiteFlavor::After;
        const Handler &handler = is_after ? after_ : before_;
        const HandlerTraits &traits =
            is_after ? after_traits_ : before_traits_;
        r.handler = handler ? &handler : nullptr;
        r.traits = &traits;
        r.hasFilter = static_cast<bool>(traits.warpFilter);
        r.warpSynchronous = traits.warpSynchronous;
        r.warpFn = traits.warpFn;
        r.warpCtx = traits.warpCtx;
        // A null handler (metrics-only dispatch) always qualifies;
        // otherwise the handler must be reentrant-safe and, when
        // warp-synchronous, supply a warp-level body (there are no
        // fibers to rendezvous through inline).
        r.inlineOk = !r.handler ||
                     (traits.reentrantSafe &&
                      (!traits.warpSynchronous || r.warpFn != nullptr));
        records_.push_back(r);
    }
    records_dirty_ = false;
}

const SiteDispatchRecord &
SassiRuntime::record(int32_t site_key)
{
    // Dirty only between registration and the next launch; launches
    // are serialized, so a rebuild here never races a worker.
    if (records_dirty_ || records_.size() != sites_.size())
        prepareLaunch();
    return records_.at(static_cast<size_t>(site_key));
}

void
SassiRuntime::instrument(const InstrumentOptions &opts)
{
    panic_if(instrumented_, "module instrumented twice through the same "
             "runtime");
    instrumented_ = true;
    opts_ = opts;
    instrumentModule(dev_.module(), opts, *this);

    static_metrics_.counter("core/sites/total") = sites_.size();
    for (const SiteInfo &s : sites_) {
        static_metrics_.inc(std::string("core/sites/") +
                            flavorName(s.flavor));
        uint64_t slots = static_cast<uint64_t>(popc(s.spillMask));
        static_metrics_.counter("core/static/spill_slots") += slots;
        static_metrics_.counter("core/static/spill_bytes") +=
            slots * 4;
        if (s.persistentSpills)
            static_metrics_.inc("core/static/persistent_spill_sites");
    }
}

void
SassiRuntime::dispatch(simt::Executor &exec, simt::Warp &warp,
                       int32_t site_key)
{
    const SiteDispatchRecord &rec = record(site_key);
    const SiteInfo &site = *rec.site;
    exec.chargeHandlerCost(opts_.handlerCostInstrs);

    // Dynamic per-site counts go into the worker's launch-registry
    // shard, so they merge deterministically like everything else.
    noteDispatch(exec, metricsCache(exec, sites_.size()), site,
                 site_key, warp.activeMask);

    if (!rec.handler)
        return;
    const Handler &handler = *rec.handler;
    const HandlerTraits &traits = *rec.traits;
    if (rec.hasFilter && !traits.warpFilter(exec, warp, site))
        return;

    // The dispatch state is thread-local so its 32 lane
    // environments (and the lane list) are allocated once per
    // thread, not once per site call; dispatches never nest
    // (handlers are host closures).
    static thread_local DispatchState ds_storage;
    static thread_local std::vector<int> lanes_storage;

    DispatchState &ds = ds_storage;
    ds.exec = &exec;
    ds.warp = &warp;
    ds.site = &site;
    ds.activeMask = warp.activeMask;
    ds.fibers = nullptr; // Set below for warp-synchronous handlers.
    ds.faulted = false;
    if (ds.envs.size() != static_cast<size_t>(sass::WarpSize))
        ds.envs.resize(sass::WarpSize); // Sized once per thread.

    std::vector<int> &lanes = lanes_storage;
    lanes.clear();
    for (int lane = 0; lane < sass::WarpSize; ++lane) {
        if (!(warp.activeMask & (1u << lane)))
            continue;
        lanes.push_back(lane);

        // The injected ABI sequence passed the bp pointer in R4:R5
        // (second pointer, aux block, in R6:R7 — it is bp + 0x60, so
        // the frame base is all the views need).
        uint64_t frame =
            makeU64(warp.reg(lane, sass::abi::Arg0Lo),
                    warp.reg(lane, sass::abi::Arg0Lo + 1));

        ds.envs[static_cast<size_t>(lane)].bind(exec, warp, lane, site,
                                                frame, nullptr);
    }

    // Handler wall-clock goes to the timeline only — never into the
    // registry, which must stay thread-count-invariant.
    Trace &trace = Trace::global();
    const bool traced = trace.enabled();
    const uint64_t t0 = traced ? trace.nowNs() : 0;

    tl_dispatch = &ds;
    if (traits.warpSynchronous) {
        // One fiber group per OS thread: parallel CTA workers
        // dispatch concurrently, and ucontext fiber state must never
        // be shared (or migrated) across threads. Built on a
        // thread's first warp-synchronous dispatch only, so workers
        // that only run lane-loop handlers never touch its stacks.
        static thread_local FiberGroup fibers;
        ds.fibers = &fibers;
        fibers.run(lanes, [&](int lane) {
            try {
                handler(ds.envs[static_cast<size_t>(lane)]);
            } catch (const simt::SimFault &f) {
                // Never unwind across the fiber boundary; rethrow
                // after the fiber group drains.
                if (!ds.faulted) {
                    ds.faulted = true;
                    ds.fault = f;
                }
            }
        });
    } else {
        // Fast path for handlers with no warp-wide intrinsics:
        // iterate the lanes directly.
        try {
            for (int lane : lanes)
                handler(ds.envs[static_cast<size_t>(lane)]);
        } catch (const simt::SimFault &f) {
            ds.faulted = true;
            ds.fault = f;
        }
    }
    tl_dispatch = nullptr;

    if (traced) {
        trace.complete(
            detail::strFormat("%s@%d %s", site.kernelName.c_str(),
                              site.origPc, flavorName(site.flavor)),
            "handler", exec.traceTid(), t0, trace.nowNs() - t0,
            {{"site", static_cast<uint64_t>(site_key)},
             {"lanes", static_cast<uint64_t>(lanes.size())}});
    }

    if (ds.faulted)
        throw ds.fault;
}

bool
SassiRuntime::inlineDispatchable(int32_t site_key)
{
    return record(site_key).inlineOk;
}

bool
SassiRuntime::dispatchInline(simt::Executor &exec, simt::Warp &warp,
                             int32_t site_key,
                             const uint64_t *frame_addr,
                             uint8_t *const *frame_host)
{
    // Mirrors dispatch() observationally: identical handler cost,
    // identical registry updates (same precomputed keys), identical
    // handler effects and fault surfacing — minus the fiber group,
    // which is the entire point. The executor's fused-site path only
    // calls this after inlineDispatchable() said yes.
    const SiteDispatchRecord &rec = record(site_key);
    const SiteInfo &site = *rec.site;
    exec.chargeHandlerCost(opts_.handlerCostInstrs);

    noteDispatch(exec, metricsCache(exec, sites_.size()), site,
                 site_key, warp.activeMask);

    if (!rec.handler)
        return false;
    const Handler &handler = *rec.handler;
    if (rec.hasFilter &&
        !rec.traits->warpFilter(exec, warp, site))
        return false;

    static thread_local DispatchState ds_storage;
    static thread_local ArenaPool arena_pool;
    DispatchState &ds = ds_storage;
    EnvArena &arena =
        arena_pool.at(static_cast<size_t>(site_key),
                      static_cast<size_t>(warp.rank));
    ds.exec = &exec;
    ds.warp = &warp;
    ds.site = &site;
    ds.activeMask = warp.activeMask;
    ds.fibers = nullptr; // Inline: warp intrinsics must not be used.
    ds.frameWritten = false;
    ds.faulted = false;

    if (arena.site != &site || arena.exec != &exec ||
        arena.warp != &warp || arena.seq != exec.launchSeq() ||
        arena.cta != exec.ctaLinear()) {
        arena.site = &site;
        arena.exec = &exec;
        arena.warp = &warp;
        arena.seq = exec.launchSeq();
        arena.cta = exec.ctaLinear();
        arena.boundMask = 0;
    }
    for (int lane = 0; lane < sass::WarpSize; ++lane) {
        uint32_t bit = 1u << lane;
        if (!(warp.activeMask & bit))
            continue;
        // The fused path hands the frame's generic address and host
        // pointer directly — the ABI argument registers have not
        // been written (their L2G is replayed with the rest of the
        // epilogue effects after the handler returns).
        HandlerEnv &env = arena.envs[static_cast<size_t>(lane)];
        if (arena.boundMask & bit) {
            if (arena.frames[static_cast<size_t>(lane)] !=
                frame_addr[lane]) {
                env.rebindFrame(frame_addr[lane], frame_host[lane]);
                arena.frames[static_cast<size_t>(lane)] =
                    frame_addr[lane];
            }
        } else {
            env.bind(exec, warp, lane, site, frame_addr[lane],
                     frame_host[lane]);
            arena.frames[static_cast<size_t>(lane)] =
                frame_addr[lane];
            arena.boundMask |= bit;
        }
    }

    Trace &trace = Trace::global();
    const bool traced = trace.enabled();
    const uint64_t t0 = traced ? trace.nowNs() : 0;

    tl_dispatch = &ds;
    try {
        // Prefer the warp-level body whenever one is provided (even
        // for lane-iterating handlers): its contract is observational
        // identity, and one call per warp beats 32.
        if (rec.warpFn) {
            WarpHandlerEnv we;
            we.envs = arena.envs.data();
            we.activeMask = ds.activeMask;
            rec.warpFn(rec.warpCtx, we);
        } else {
            for (int lane = 0; lane < sass::WarpSize; ++lane) {
                if (warp.activeMask & (1u << lane))
                    handler(arena.envs[static_cast<size_t>(lane)]);
            }
        }
    } catch (const simt::SimFault &f) {
        ds.faulted = true;
        ds.fault = f;
    }
    tl_dispatch = nullptr;

    if (traced) {
        trace.complete(
            detail::strFormat("%s@%d %s", site.kernelName.c_str(),
                              site.origPc, flavorName(site.flavor)),
            "handler", exec.traceTid(), t0, trace.nowNs() - t0,
            {{"site", static_cast<uint64_t>(site_key)},
             {"lanes", static_cast<uint64_t>(popc(warp.activeMask))}});
    }

    if (ds.faulted)
        throw ds.fault;
    return ds.frameWritten;
}

} // namespace sassi::core
