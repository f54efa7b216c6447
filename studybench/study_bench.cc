/**
 * @file
 * The study benchmark program: runs the paper's architecture studies
 * through the library's public API, one application run at a time,
 * and reports end-to-end and per-layer metrics as JSON.
 *
 * One application run is: a fresh simt::Device, Workload::setup,
 * (instrumented only) SassiRuntime + instrument() + the tool's
 * constructor, Workload::run, verify/outputHash, and the tool's
 * host-side result collection. Runs are issued by one client in a
 * closed loop; each launch shards its CTAs over
 * W = min(4, nproc) workers through SASSI_SIM_THREADS.
 *
 * Workloads (README.md says why each exists):
 *   inject    Figure 10 over fig10Suite(): census run, site
 *             selection, K ErrorInjector runs per app.
 *   profile   Table 3 CS1-CS3 over fullSuite(): one run per
 *             (app, tool) for the branch, memory-divergence and
 *             value profilers.
 *   baseline  Uninstrumented fullSuite().
 *
 * Usage:
 *   study_bench --workload <inject|profile|baseline> [--seed N]
 *               [--seconds S] [--trace 0|1] [--trace-out FILE]
 *               [--smoke]
 *
 * The timed phase runs whole rounds (every app of the workload's
 * suite, visited in a seed-shuffled order) until --seconds have
 * passed. Round r's plan depends only on (seed, r), so every
 * simulated count of a round repeats exactly for a fixed seed.
 * The last stdout line is the result object
 * {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sassi.h"
#include "handlers/branch_profiler.h"
#include "handlers/error_injector.h"
#include "handlers/memdiv_profiler.h"
#include "handlers/value_profiler.h"
#include "simt/decode.h"
#include "util/logging.h"
#include "util/rng.h"
#include "workloads/suite.h"

using namespace sassi;
using handlers::InjectionOutcome;
using handlers::InjectionSite;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

// ---------------------------------------------------------------
// Command line
// ---------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
    bool smoke = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "study_bench: " << why << "\n"
              << "usage: study_bench --workload inject|profile|baseline"
                 " [--seed N] [--seconds S] [--trace 0|1]"
                 " [--trace-out FILE] [--smoke]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        if (k == "--workload") {
            a.workload = value();
        } else if (k == "--seed") {
            a.seed = std::strtoull(value().c_str(), nullptr, 10);
        } else if (k == "--seconds") {
            a.seconds = std::atof(value().c_str());
        } else if (k == "--trace") {
            a.trace = value() != "0";
        } else if (k == "--trace-out") {
            a.traceOut = value();
        } else if (k == "--smoke") {
            a.smoke = true;
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (a.workload != "inject" && a.workload != "profile" &&
        a.workload != "baseline")
        usage("--workload must be inject, profile or baseline");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

// ---------------------------------------------------------------
// Tracing: spans recorded by this program around each public call,
// kept in memory and written out at the end.
// ---------------------------------------------------------------

struct Span
{
    const char *name;
    int64_t startNs;
    int64_t endNs;
    int32_t parent; //!< Index into the span list, -1 for a root.
    uint32_t run;   //!< Application-run id shared by its spans.
};

class Tracer
{
  public:
    bool on = false;

    void beginRun(uint32_t run) { run_ = run; }

    int32_t
    open(const char *name)
    {
        int32_t parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back({name, now(), 0, parent, run_});
        stack_.push_back(static_cast<int32_t>(spans_.size() - 1));
        return stack_.back();
    }

    void
    close(int32_t idx)
    {
        spans_[static_cast<size_t>(idx)].endNs = now();
        // Pop idx and anything still open inside it.
        while (!stack_.empty() && stack_.back() >= idx)
            stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    static int64_t
    now()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
    uint32_t run_ = 0;
};

/** RAII span; a no-op while tracing is off. */
class Scope
{
  public:
    Scope(Tracer &t, const char *name)
        : t_(t), idx_(t.on ? t.open(name) : -1)
    {}
    ~Scope()
    {
        if (idx_ >= 0)
            t_.close(idx_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &t_;
    int32_t idx_;
};

// ---------------------------------------------------------------
// Application runs
// ---------------------------------------------------------------

enum class Tool { None, Branch, MemDiv, Value, Census, Inject };

const char *
toolName(Tool t)
{
    switch (t) {
      case Tool::None: return "none";
      case Tool::Branch: return "branch";
      case Tool::MemDiv: return "memdiv";
      case Tool::Value: return "value";
      case Tool::Census: return "census";
      case Tool::Inject: return "inject";
    }
    return "?";
}

/** Counts read from public results after a run. */
struct RunCounts
{
    uint64_t warpInstrs = 0;
    uint64_t syntheticWarpInstrs = 0;
    uint64_t memWarpInstrs = 0;
    uint64_t handlerCalls = 0;
    uint64_t ctas = 0;
    uint64_t launches = 0;
    uint64_t sites = 0;

    bool operator==(const RunCounts &) const = default;
};

/** Process-wide UopCache counters, differenced around a run. */
struct UopCounts
{
    uint64_t compiles = 0, hits = 0;
    uint64_t superblockInstrs = 0;
    uint64_t vectorUops = 0, scalarUops = 0;
    uint64_t inlineCalls = 0, fiberCalls = 0, inlineFallbacks = 0;

    static UopCounts
    read()
    {
        Metrics m = simt::UopCache::global().snapshot();
        UopCounts u;
        u.compiles = m.counterValue("uop/cache/compiles");
        u.hits = m.counterValue("uop/cache/hits");
        u.superblockInstrs =
            m.counterValue("uop/dynamic/superblock_instrs");
        u.vectorUops = m.counterValue("uop/simd/vector_uops");
        u.scalarUops = m.counterValue("uop/simd/scalar_uops");
        u.inlineCalls = m.counterValue("uop/handler/inline_calls");
        u.fiberCalls = m.counterValue("uop/handler/fiber_calls");
        u.inlineFallbacks =
            m.counterValue("uop/handler/inline_fallbacks");
        return u;
    }

    UopCounts
    operator-(const UopCounts &o) const
    {
        return {compiles - o.compiles,
                hits - o.hits,
                superblockInstrs - o.superblockInstrs,
                vectorUops - o.vectorUops,
                scalarUops - o.scalarUops,
                inlineCalls - o.inlineCalls,
                fiberCalls - o.fiberCalls,
                inlineFallbacks - o.inlineFallbacks};
    }

    void
    add(const UopCounts &o)
    {
        compiles += o.compiles;
        hits += o.hits;
        superblockInstrs += o.superblockInstrs;
        vectorUops += o.vectorUops;
        scalarUops += o.scalarUops;
        inlineCalls += o.inlineCalls;
        fiberCalls += o.fiberCalls;
        inlineFallbacks += o.inlineFallbacks;
    }
};

struct RunRecord
{
    size_t app = 0;
    Tool tool = Tool::None;
    double ms = 0;
    bool failed = false;
    bool drift = false;
    simt::Outcome outcome = simt::Outcome::Ok;
    InjectionOutcome injection = InjectionOutcome::Masked;
    bool fired = false;
    uint64_t outputHash = 0;
    uint64_t summaryHash = 0; //!< Digest of the tool's host result.
    RunCounts counts;
    UopCounts uop;            //!< Traced runs only.
};

/** What a census run hands to the injection runs of its app. */
struct Census
{
    uint64_t goldenHash = 0;
    std::vector<InjectionSite> sites;
};

uint64_t
mix(uint64_t h, uint64_t v)
{
    return workloads::hashCombine(h, v);
}

uint64_t
mixDouble(uint64_t h, double d)
{
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    return mix(h, bits);
}

InjectionOutcome
classify(const simt::LaunchResult &last, bool hash_equal)
{
    if (!last.ok()) {
        switch (last.outcome) {
          case simt::Outcome::Hang:
            return InjectionOutcome::Hang;
          case simt::Outcome::Trap:
            return InjectionOutcome::FailureSymptom;
          default:
            return InjectionOutcome::Crash;
        }
    }
    return hash_equal ? InjectionOutcome::Masked : InjectionOutcome::SDC;
}

core::InstrumentOptions
toolOptions(Tool t)
{
    switch (t) {
      case Tool::Branch: return handlers::BranchProfiler::options();
      case Tool::MemDiv: return handlers::MemDivProfiler::options();
      case Tool::Value: return handlers::ValueProfiler::options();
      case Tool::Census: return handlers::ErrorInjectionProfiler::options();
      default: return handlers::ErrorInjector::options();
    }
}

/** Injection-run device settings, as fig10_error_injection uses. */
constexpr size_t kInjectSlackBytes = 24u << 20;
constexpr uint64_t kInjectWatchdog = 4'000'000;

/**
 * One application run. census is filled by a Census run; golden is
 * the census hash an Inject run classifies against; k is the number
 * of sites a Census run selects with rng.
 */
RunRecord
runApp(const workloads::SuiteEntry &entry, size_t app, Tool tool,
       Tracer &tr, uint32_t run_id, const InjectionSite *site = nullptr,
       uint64_t golden = 0, Census *census = nullptr, size_t k = 0,
       Rng *rng = nullptr)
{
    RunRecord r;
    r.app = app;
    r.tool = tool;
    tr.beginRun(run_id);
    UopCounts uop0;
    if (tr.on)
        uop0 = UopCounts::read();
    auto t0 = Clock::now();
    {
        Scope run_span(tr, "run");
        int32_t launch_span = -1;
        std::unique_ptr<simt::Device> dev;
        {
            Scope s(tr, "simt.device");
            dev = std::make_unique<simt::Device>();
        }
        // Launch spans: subscribed before any tool so KernelLaunch
        // opens the span before the tool's own launch callback.
        if (tr.on) {
            dev->callbacks().subscribe(
                [&tr, &launch_span](cupti::CallbackSite cb,
                                    const cupti::CallbackData &) {
                    if (cb == cupti::CallbackSite::KernelLaunch)
                        launch_span = tr.open("simt.launch");
                    else
                        tr.close(launch_span);
                });
        }
        std::unique_ptr<workloads::Workload> w;
        {
            Scope s(tr, "workloads.setup");
            w = entry.make();
            w->setup(*dev);
        }
        if (tool == Tool::Inject) {
            dev->mapSlack(kInjectSlackBytes);
            w->launchOptions.watchdog = kInjectWatchdog;
        }

        std::unique_ptr<core::SassiRuntime> rt;
        std::unique_ptr<handlers::BranchProfiler> branch;
        std::unique_ptr<handlers::MemDivProfiler> memdiv;
        std::unique_ptr<handlers::ValueProfiler> value;
        std::unique_ptr<handlers::ErrorInjectionProfiler> profiler;
        std::unique_ptr<handlers::ErrorInjector> injector;
        if (tool != Tool::None) {
            {
                Scope s(tr, "core.runtime");
                rt = std::make_unique<core::SassiRuntime>(*dev);
                rt->instrument(toolOptions(tool));
            }
            Scope s(tr, "handlers.tool");
            switch (tool) {
              case Tool::Branch:
                branch = std::make_unique<handlers::BranchProfiler>(
                    *dev, *rt);
                break;
              case Tool::MemDiv:
                memdiv = std::make_unique<handlers::MemDivProfiler>(
                    *dev, *rt);
                break;
              case Tool::Value:
                value = std::make_unique<handlers::ValueProfiler>(
                    *dev, *rt);
                break;
              case Tool::Census:
                profiler =
                    std::make_unique<handlers::ErrorInjectionProfiler>(
                        *dev, *rt);
                break;
              default:
                injector = std::make_unique<handlers::ErrorInjector>(
                    *dev, *rt, *site);
                break;
            }
        }

        simt::LaunchResult last;
        {
            Scope s(tr, "workloads.run");
            dev->resetStats();
            last = w->run(*dev);
        }
        r.outcome = last.outcome;
        const simt::LaunchStats &st = dev->totalStats();
        r.counts.warpInstrs = st.warpInstrs;
        r.counts.syntheticWarpInstrs = st.syntheticWarpInstrs;
        r.counts.memWarpInstrs = st.memWarpInstrs;
        r.counts.handlerCalls = st.handlerCalls;
        r.counts.ctas = st.ctas;
        r.counts.launches = dev->launches();
        r.counts.sites = rt ? rt->numSites() : 0;

        bool verified = false;
        if (tool != Tool::Inject) {
            Scope s(tr, "workloads.verify");
            verified = last.ok() && w->verify(*dev);
        }
        if (last.ok()) {
            Scope s(tr, "workloads.hash");
            r.outputHash = w->outputHash(*dev);
        }

        {
            Scope s(tr, "handlers.collect");
            uint64_t h = 0;
            switch (tool) {
              case Tool::None:
                break;
              case Tool::Branch: {
                auto sum = branch->summarize(
                    handlers::countStaticCondBranches(dev->module()));
                h = mix(mix(mix(h, sum.staticDivergent),
                            sum.dynamicBranches),
                        sum.dynamicDivergent);
                break;
              }
              case Tool::MemDiv: {
                auto pmf = memdiv->pmf();
                h = mixDouble(mixDouble(h, pmf.meanUniqueLines),
                              pmf.fullyDivergedShare);
                break;
              }
              case Tool::Value: {
                auto sum = value->summarize();
                h = mixDouble(mixDouble(h, sum.dynamicConstBitsPct),
                              sum.dynamicScalarPct);
                break;
              }
              case Tool::Census:
                census->goldenHash = r.outputHash;
                census->sites = handlers::selectInjectionSites(
                    profiler->profiles(), k, *rng);
                for (const auto &p : profiler->profiles())
                    h = mix(h, p.total);
                break;
              case Tool::Inject:
                // injected() reads device memory: before ~Device.
                r.fired = injector->injected();
                h = r.fired;
                break;
            }
            r.summaryHash = h;
        }

        switch (tool) {
          case Tool::Inject:
            r.injection =
                classify(last, last.ok() && r.outputHash == golden);
            r.failed = !r.fired;
            break;
          case Tool::Census:
            r.failed = !verified || census->sites.empty();
            break;
          default:
            r.failed = !verified;
            break;
        }

        injector.reset();
        profiler.reset();
        value.reset();
        memdiv.reset();
        branch.reset();
        rt.reset();
        w.reset();
        Scope s(tr, "simt.device");
        dev.reset();
    }
    r.ms = msSince(t0);
    if (tr.on)
        r.uop = UopCounts::read() - uop0;
    return r;
}

// ---------------------------------------------------------------
// Workload plans
// ---------------------------------------------------------------

/** Seed-stream tags, so no two uses of the seed share a stream. */
enum Stream : uint64_t {
    OrderStream = 1,
    SiteStream = 2,
};

struct Bench
{
    Args args;
    std::vector<workloads::SuiteEntry> suite;
    std::vector<Tool> tools;  //!< Per-app tool runs, in order.
    /**
     * Inject only: simulated work each app gets per round, in census
     * warp instructions. K_app = round(injectWork / census warp
     * instructions), clamped to [1, kMaxInjections], so every app
     * costs about the same per round; 0 means one site per app (the
     * warm-up pass and smoke mode).
     */
    uint64_t injectWork = 0;
    std::vector<size_t> injections; //!< K_app, from the warm-up census.
    static constexpr size_t kMaxInjections = 64;
    Tracer tracer;
    uint32_t nextRunId = 0;

    /** Warm-up reference per (app, tool): hash and counts. */
    std::map<std::pair<size_t, Tool>, RunRecord> reference;

    /** App visiting order of round r: a seeded shuffle. */
    std::vector<size_t>
    order(uint64_t round) const
    {
        std::vector<size_t> idx(suite.size());
        for (size_t i = 0; i < idx.size(); ++i)
            idx[i] = i;
        Rng rng = Rng(args.seed).split(OrderStream).split(round);
        for (size_t i = idx.size(); i > 1; --i)
            std::swap(idx[i - 1], idx[rng.nextBelow(i)]);
        return idx;
    }

    /** Site-selection stream of (app, round); the warm-up pass is
     *  round ~0. */
    Rng
    siteRng(size_t app, uint64_t round) const
    {
        return Rng(args.seed).split(SiteStream).split(app).split(round);
    }

    /** Size K_app from the warm-up pass's census runs. */
    void
    sizeInjections(const std::vector<RunRecord> &warm)
    {
        injections.assign(suite.size(), 1);
        for (const auto &r : warm) {
            if (r.tool != Tool::Census || injectWork == 0)
                continue;
            double k = std::round(static_cast<double>(injectWork) /
                                  static_cast<double>(std::max<uint64_t>(
                                      r.counts.warpInstrs, 1)));
            injections[r.app] = static_cast<size_t>(std::clamp(
                k, 1.0, static_cast<double>(kMaxInjections)));
        }
    }

    /**
     * Run round r of the plan and append its records. The warm-up
     * pass visits each (app, tool) pair once.
     */
    void
    runRound(uint64_t round, bool warmup, std::vector<RunRecord> &out)
    {
        for (size_t app : order(round)) {
            const auto &entry = suite[app];
            if (args.workload != "inject") {
                for (Tool t : tools)
                    out.push_back(runApp(entry, app, t, tracer,
                                         nextRunId++));
                continue;
            }
            Census census;
            Rng rng = siteRng(app, round);
            size_t k = warmup ? 1 : injections[app];
            out.push_back(runApp(entry, app, Tool::Census, tracer,
                                 nextRunId++, nullptr, 0, &census, k,
                                 &rng));
            if (out.back().failed)
                continue;
            for (const auto &site : census.sites)
                out.push_back(runApp(entry, app, Tool::Inject, tracer,
                                     nextRunId++, &site,
                                     census.goldenHash));
        }
    }

    /** Mark runs whose output, summary or counts differ from the
     *  warm-up run of the same (app, tool). */
    void
    markDrift(std::vector<RunRecord> &runs) const
    {
        for (auto &r : runs) {
            if (r.tool == Tool::Inject)
                continue;
            auto it = reference.find({r.app, r.tool});
            if (it == reference.end())
                continue;
            r.drift |= r.outputHash != it->second.outputHash ||
                       r.summaryHash != it->second.summaryHash ||
                       !(r.counts == it->second.counts);
        }
    }
};

// ---------------------------------------------------------------
// Statistics and reporting
// ---------------------------------------------------------------

/** Linear-interpolated quantile of an unsorted sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
fmtNumber(double v)
{
    if (!std::isfinite(v))
        v = 0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << fmtNumber(metrics[i].value)
           << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos) {
                auto s = line.substr(colon + 1);
                s.erase(0, s.find_first_not_of(' '));
                return s;
            }
        }
    }
    return "unknown";
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Per-layer self time of every span name, summed. */
std::map<std::string, double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<int64_t> child(spans.size(), 0);
    for (const auto &s : spans) {
        if (s.parent >= 0)
            child[static_cast<size_t>(s.parent)] += s.endNs - s.startNs;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < spans.size(); ++i) {
        double ns = static_cast<double>(spans[i].endNs -
                                        spans[i].startNs - child[i]);
        self[spans[i].name] += ns / 1e6;
    }
    return self;
}

/** Chrome trace_event JSON of the spans (load in Perfetto). */
void
writeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "study_bench: cannot write " << path << "\n";
        return;
    }
    int64_t base = spans.empty() ? 0 : spans.front().startNs;
    out << "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans.size(); ++i) {
        const auto &s = spans[i];
        out << (i ? ",\n" : "") << "{\"name\": \"" << s.name
            << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
            << fmtNumber(static_cast<double>(s.startNs - base) / 1e3)
            << ", \"dur\": "
            << fmtNumber(static_cast<double>(s.endNs - s.startNs) / 1e3)
            << ", \"args\": {\"run\": " << s.run
            << ", \"span\": " << i << ", \"parent\": " << s.parent
            << "}}";
    }
    out << "\n]}\n";
}

/** Digest of one run: its outcome, hashes and counts. */
uint64_t
runDigest(const RunRecord &r)
{
    uint64_t h = 0;
    {
        h = mix(h, r.app);
        h = mix(h, static_cast<uint64_t>(r.tool));
        h = mix(h, static_cast<uint64_t>(r.outcome));
        h = mix(h, static_cast<uint64_t>(r.injection));
        h = mix(h, r.fired);
        h = mix(h, r.failed);
        h = mix(h, r.outputHash);
        h = mix(h, r.summaryHash);
        h = mix(h, r.counts.warpInstrs);
        h = mix(h, r.counts.syntheticWarpInstrs);
        h = mix(h, r.counts.memWarpInstrs);
        h = mix(h, r.counts.handlerCalls);
        h = mix(h, r.counts.ctas);
        h = mix(h, r.counts.launches);
        h = mix(h, r.counts.sites);
    }
    return h;
}

/** Digest of a round: every run's digest, in order. */
uint64_t
roundDigest(const std::vector<RunRecord> &runs)
{
    uint64_t h = 0;
    for (const auto &r : runs)
        h = mix(h, runDigest(r));
    return h;
}

/** Per-(app, tool) lines of a round, so drifting apps can be named. */
void
printRoundTable(const Bench &b, const std::vector<RunRecord> &runs)
{
    struct Row
    {
        uint64_t runs = 0, failed = 0, warp = 0, synthetic = 0;
        uint64_t launches = 0, ctas = 0, hash = 0;
        uint64_t outcomes[5] = {0, 0, 0, 0, 0};
        double ms = 0;
    };
    std::map<std::pair<size_t, Tool>, Row> rows;
    for (const auto &r : runs) {
        Row &row = rows[{r.app, r.tool}];
        ++row.runs;
        row.ms += r.ms;
        row.failed += r.failed;
        row.warp += r.counts.warpInstrs;
        row.synthetic += r.counts.syntheticWarpInstrs;
        row.launches += r.counts.launches;
        row.ctas += r.counts.ctas;
        row.hash = mix(mix(row.hash, r.outputHash), r.summaryHash);
        if (r.tool == Tool::Inject)
            ++row.outcomes[static_cast<int>(r.injection)];
    }
    for (const auto &[key, row] : rows) {
        std::printf("  %-16s %-7s runs %3llu ms/run %9.3f failed %llu "
                    "launches %5llu ctas %6llu warp_instrs %10llu "
                    "synthetic %10llu",
                    b.suite[key.first].name.c_str(), toolName(key.second),
                    (unsigned long long)row.runs,
                    row.ms / static_cast<double>(row.runs),
                    (unsigned long long)row.failed,
                    (unsigned long long)row.launches,
                    (unsigned long long)row.ctas,
                    (unsigned long long)row.warp,
                    (unsigned long long)row.synthetic);
        if (key.second == Tool::Inject) {
            std::printf(" masked %llu crash %llu hang %llu symptom %llu "
                        "sdc %llu",
                        (unsigned long long)row.outcomes[0],
                        (unsigned long long)row.outcomes[1],
                        (unsigned long long)row.outcomes[2],
                        (unsigned long long)row.outcomes[3],
                        (unsigned long long)row.outcomes[4]);
        } else {
            std::printf(" hash %016llx", (unsigned long long)row.hash);
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    setVerbose(false);

    // W = min(4, nproc) workers per launch; launches that pin
    // numThreads = 1 keep their pin.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    const int workers = static_cast<int>(std::min(4u, hw));
    setenv("SASSI_SIM_THREADS", std::to_string(workers).c_str(), 1);

    Bench b;
    b.args = args;
    if (args.workload == "inject") {
        b.suite = workloads::fig10Suite();
        b.injectWork = 2'000'000;
    } else {
        b.suite = workloads::fullSuite();
        if (args.workload == "profile")
            b.tools = {Tool::Branch, Tool::MemDiv, Tool::Value};
        else
            b.tools = {Tool::None};
    }
    if (args.smoke) {
        // Tiny size: the first apps of each suite, one site each.
        b.suite.resize(std::min<size_t>(b.suite.size(), 3));
        b.injectWork = 0;
    }

    std::printf("{\"config\": {\"workload\": %s, \"seed\": %llu, "
                "\"nproc\": %u, \"cpu\": %s, \"avx2\": %s, \"W\": %d, "
                "\"build_type\": %s, \"seconds\": %s, \"trace\": %d, "
                "\"smoke\": %d, \"apps\": %zu, \"inject_work\": "
                "%llu}}\n",
                jsonString(args.workload).c_str(),
                (unsigned long long)args.seed, hw,
                jsonString(cpuModel()).c_str(),
                __builtin_cpu_supports("avx2") ? "true" : "false",
                workers, jsonString(STUDY_BENCH_BUILD_TYPE).c_str(),
                fmtNumber(args.seconds).c_str(), args.trace ? 1 : 0,
                args.smoke ? 1 : 0, b.suite.size(),
                (unsigned long long)b.injectWork);

    // ---- Set-up: plan + warm-up pass over every (app, tool) pair,
    // from a cold UopCache, repeated; the median is setup_s.
    const int setups = args.smoke ? 1 : 3;
    std::vector<double> setup_s;
    uint64_t setup_compiles = 0;
    std::vector<RunRecord> warm;
    for (int i = 0; i < setups; ++i) {
        simt::UopCache::global().clear();
        auto t0 = Clock::now();
        warm.clear();
        b.runRound(~0ull, true, warm);
        b.reference.clear();
        for (const auto &r : warm)
            b.reference.emplace(std::make_pair(r.app, r.tool), r);
        setup_s.push_back(msSince(t0) / 1e3);
        if (i == 0)
            setup_compiles =
                simt::UopCache::global().snapshot().counterValue(
                    "uop/cache/compiles");
    }
    uint64_t warm_failed = 0;
    for (const auto &r : warm)
        warm_failed += r.failed;
    b.sizeInjections(warm);

    // ---- Timed phase: whole rounds until the budget is spent. With
    // tracing, each round runs untraced and then traced, so the
    // overhead compares identical work.
    std::vector<RunRecord> runs;        // untraced
    std::vector<RunRecord> traced_runs; // traced
    std::vector<RunRecord> round0, round0_traced;
    double untraced_ms = 0, traced_ms = 0;
    const double budget_ms = args.seconds * 1e3;
    auto phase0 = Clock::now();
    const uint64_t rounds_max = args.smoke ? 1 : ~0ull;
    uint64_t rounds = 0;
    bool repeat_ok = true;
    while (rounds < rounds_max &&
           (rounds == 0 || msSince(phase0) < budget_ms)) {
        size_t first = runs.size();
        auto t0 = Clock::now();
        b.runRound(rounds, false, runs);
        untraced_ms += msSince(t0);
        if (rounds == 0)
            round0.assign(runs.begin() + first, runs.end());
        if (args.trace || args.smoke) {
            // The second pass repeats the same plan; a run whose
            // outcome, output or counts differ from its twin drifts.
            b.tracer.on = args.trace;
            size_t tfirst = traced_runs.size();
            auto t1 = Clock::now();
            b.runRound(rounds, false, traced_runs);
            traced_ms += msSince(t1);
            b.tracer.on = false;
            if (rounds == 0)
                round0_traced.assign(traced_runs.begin() + tfirst,
                                     traced_runs.end());
            if (traced_runs.size() - tfirst != runs.size() - first) {
                std::printf("repeat of round %llu ran a different "
                            "plan\n", (unsigned long long)rounds);
                repeat_ok = false;
                continue;
            }
            for (size_t i = 0; i < runs.size() - first; ++i) {
                RunRecord &x = runs[first + i];
                RunRecord &y = traced_runs[tfirst + i];
                if (runDigest(x) == runDigest(y))
                    continue;
                x.drift = y.drift = true;
                std::printf("repeat differs: round %llu %s %s: outcome "
                            "%s/%s, warp_instrs %llu/%llu, hash "
                            "%016llx/%016llx\n",
                            (unsigned long long)rounds,
                            b.suite[x.app].name.c_str(), toolName(x.tool),
                            simt::outcomeName(x.outcome),
                            simt::outcomeName(y.outcome),
                            (unsigned long long)x.counts.warpInstrs,
                            (unsigned long long)y.counts.warpInstrs,
                            (unsigned long long)x.outputHash,
                            (unsigned long long)y.outputHash);
            }
        }
        ++rounds;
    }
    double phase_s = untraced_ms / 1e3;

    b.markDrift(runs);
    b.markDrift(traced_runs);
    uint64_t drift_runs = 0;
    for (const auto &r : runs)
        drift_runs += r.drift;
    for (const auto &r : traced_runs)
        drift_runs += r.drift;

    // ---- Results over the untraced timed runs. Failures are
    // counted and named, never fatal.
    uint64_t attempted = runs.size() + traced_runs.size();
    uint64_t failed = 0, app_instrs = 0;
    std::vector<double> lat;
    for (const auto *set : {&warm, &runs, &traced_runs}) {
        for (const auto &r : *set) {
            if (!r.failed)
                continue;
            std::printf("failed run%s: %s %s: outcome %s%s\n",
                        set == &warm ? " (warm-up)" : "",
                        b.suite[r.app].name.c_str(), toolName(r.tool),
                        simt::outcomeName(r.outcome),
                        r.tool == Tool::Inject ? ", site never fired"
                                               : ", output not verified");
            failed += set != &warm;
        }
    }
    for (const auto &r : runs) {
        app_instrs += r.counts.warpInstrs - r.counts.syntheticWarpInstrs;
        lat.push_back(r.ms);
    }

    // Outcome table digest (inject) and per-(app, tool) round 0.
    std::printf("round 0 (%zu runs, digest %016llx):\n", round0.size(),
                (unsigned long long)roundDigest(round0));
    printRoundTable(b, round0);
    if (args.workload == "inject") {
        uint64_t oc[5] = {0, 0, 0, 0, 0}, fired = 0, armed = 0;
        for (const auto &r : runs) {
            if (r.tool != Tool::Inject)
                continue;
            ++oc[static_cast<int>(r.injection)];
            ++armed;
            fired += r.fired;
        }
        std::printf("outcomes over %llu rounds: masked %llu crash %llu "
                    "hang %llu symptom %llu sdc %llu (fired %llu of "
                    "%llu armed)\n",
                    (unsigned long long)rounds, (unsigned long long)oc[0],
                    (unsigned long long)oc[1], (unsigned long long)oc[2],
                    (unsigned long long)oc[3], (unsigned long long)oc[4],
                    (unsigned long long)fired, (unsigned long long)armed);
    }
    std::printf("timed: %llu rounds, %zu runs in %.3f s; run latency "
                "p50 %.3f ms p90 %.3f ms (n=%zu); %llu failed; "
                "%llu drift runs; setup median %.3f s of %d\n",
                (unsigned long long)rounds, runs.size(), phase_s,
                quantile(lat, 0.5), quantile(lat, 0.9), lat.size(),
                (unsigned long long)failed, (unsigned long long)drift_runs,
                quantile(setup_s, 0.5), setups);

    // A timed run that fails is measured (failed, ok_frac) and named
    // above. The result is incorrect when the warm-up reference
    // itself failed or a repeat ran another plan.
    bool correct = warm_failed == 0 && repeat_ok;

    std::vector<Metric> metrics;
    if (!args.trace) {
        metrics = {
            {"setup_s", quantile(setup_s, 0.5), "s"},
            {"runs_per_s", ratio(static_cast<double>(runs.size()),
                                 phase_s),
             "1/s"},
            {"run_p50_ms", quantile(lat, 0.5), "ms"},
            {"run_p90_ms", quantile(lat, 0.9), "ms"},
            {"app_minstr_per_s",
             ratio(static_cast<double>(app_instrs) / 1e6, phase_s),
             "Minstr/s"},
            {"ok_frac",
             1.0 - ratio(static_cast<double>(failed),
                         static_cast<double>(attempted)),
             "fraction"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
    } else {
        // Counts come from round 0's traced pass (a fixed plan for
        // a seed); times are means per application run over every
        // traced run.
        const auto &spans = b.tracer.spans();
        auto self = selfTimesMs(spans);
        double n = static_cast<double>(std::max<size_t>(
            traced_runs.size(), 1));
        auto per_run = [&](const char *layer) { return self[layer] / n; };

        std::vector<double> launch_us;
        double launch_ms = 0;
        for (const auto &s : spans) {
            if (std::strcmp(s.name, "simt.launch") == 0) {
                double us = static_cast<double>(s.endNs - s.startNs) / 1e3;
                launch_us.push_back(us);
                launch_ms += us / 1e3;
            }
        }
        RunCounts c0;
        UopCounts u0;
        uint64_t hang = 0, crash = 0, fired = 0, armed = 0;
        for (const auto &r : round0_traced) {
            c0.warpInstrs += r.counts.warpInstrs;
            c0.syntheticWarpInstrs += r.counts.syntheticWarpInstrs;
            c0.memWarpInstrs += r.counts.memWarpInstrs;
            c0.handlerCalls += r.counts.handlerCalls;
            c0.ctas += r.counts.ctas;
            c0.launches += r.counts.launches;
            c0.sites += r.counts.sites;
            u0.add(r.uop);
            if (r.tool == Tool::Inject) {
                ++armed;
                fired += r.fired;
                hang += r.injection == InjectionOutcome::Hang;
                crash += r.injection == InjectionOutcome::Crash;
            }
        }
        uint64_t all_ctas = 0, all_warp = 0;
        for (const auto &r : traced_runs) {
            all_ctas += r.counts.ctas;
            all_warp += r.counts.warpInstrs;
        }
        auto d = [](uint64_t v) { return static_cast<double>(v); };
        metrics = {
            {"simt.device_ms", per_run("simt.device"), "ms"},
            {"simt.launch_ms", per_run("simt.launch"), "ms"},
            {"simt.launches", d(c0.launches), "count"},
            {"simt.launch_p50_us", quantile(launch_us, 0.5), "us"},
            {"simt.launch_p90_us", quantile(launch_us, 0.9), "us"},
            {"simt.ctas", d(c0.ctas), "count"},
            {"simt.us_per_cta", ratio(launch_ms * 1e3, d(all_ctas)),
             "us"},
            {"simt.warp_instrs", d(c0.warpInstrs), "count"},
            {"simt.synthetic_warp_instrs", d(c0.syntheticWarpInstrs),
             "count"},
            {"simt.mem_warp_instrs", d(c0.memWarpInstrs), "count"},
            {"simt.ns_per_warp_instr", ratio(launch_ms * 1e6, d(all_warp)),
             "ns"},
            {"simt.superblock_instr_share",
             ratio(d(u0.superblockInstrs), d(c0.warpInstrs)), "fraction"},
            {"simt.vector_uop_share",
             ratio(d(u0.vectorUops), d(u0.vectorUops + u0.scalarUops)),
             "fraction"},
            {"simt.uop_cache_compiles", d(setup_compiles), "count"},
            {"simt.uop_cache_hits", d(u0.hits), "count"},
            {"core.runtime_ms", per_run("core.runtime"), "ms"},
            {"core.sites", d(c0.sites), "count"},
            {"core.handler_calls", d(c0.handlerCalls), "count"},
            {"core.fiber_calls", d(u0.fiberCalls), "count"},
            {"core.inline_call_share",
             ratio(d(u0.inlineCalls), d(u0.inlineCalls + u0.fiberCalls)),
             "fraction"},
            {"core.inline_fallbacks", d(u0.inlineFallbacks), "count"},
            {"handlers.tool_ms", per_run("handlers.tool"), "ms"},
            {"handlers.collect_ms", per_run("handlers.collect"), "ms"},
            {"handlers.injected_share", ratio(d(fired), d(armed)),
             "fraction"},
            {"handlers.hang_runs", d(hang), "count"},
            {"handlers.crash_runs", d(crash), "count"},
            {"workloads.setup_ms", per_run("workloads.setup"), "ms"},
            {"workloads.run_host_ms", per_run("workloads.run"), "ms"},
            {"workloads.verify_ms", per_run("workloads.verify"), "ms"},
            {"workloads.hash_ms", per_run("workloads.hash"), "ms"},
            {"workloads.output_drift_runs", d(drift_runs), "count"},
            {"trace.overhead_frac", ratio(traced_ms, untraced_ms) - 1,
             "fraction"},
        };
        std::printf("per-layer self time, ms per application run:\n");
        for (const auto &[name, ms] : self)
            std::printf("  %-18s %10.4f\n", name.c_str(), ms / n);
        if (!args.traceOut.empty())
            writeTrace(args.traceOut, spans);
    }

    std::cout << resultJson(correct, attempted, failed, metrics)
              << std::endl;
    return 0;
}
