#include "fuzz/oracle.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <sstream>

#include "core/sassi.h"
#include "handlers/bb_counter.h"
#include "handlers/branch_profiler.h"
#include "handlers/instr_counter.h"
#include "handlers/mem_tracer.h"
#include "handlers/memdiv_profiler.h"
#include "handlers/value_profiler.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

namespace sassi::fuzz {

using namespace sassi::simt;

namespace {

std::string
statsKeyOf(const LaunchStats &s)
{
    uint64_t opcodes = fnv1a(s.opcodeCounts.data(),
                             s.opcodeCounts.size() * sizeof(uint64_t));
    std::ostringstream out;
    out << "warp=" << s.warpInstrs << " thread=" << s.threadInstrs
        << " synthetic=" << s.syntheticWarpInstrs
        << " handlerCalls=" << s.handlerCalls
        << " handlerCost=" << s.handlerCostInstrs
        << " mem=" << s.memWarpInstrs << " ctas=" << s.ctas
        << " opcodes=" << opcodes;
    return out.str();
}

/**
 * Owns whichever tool a configuration runs and renders its
 * aggregate into a comparable string after the launch.
 */
class ToolBox
{
  public:
    ToolBox(ToolKind kind, Device &dev, core::SassiRuntime &rt)
        : kind_(kind)
    {
        switch (kind) {
          case ToolKind::None:
            break;
          case ToolKind::InstrCounter:
            instr_ = std::make_unique<handlers::InstrCounter>(dev, rt);
            break;
          case ToolKind::BlockCounter:
            block_ = std::make_unique<handlers::BlockCounter>(dev, rt);
            break;
          case ToolKind::BranchProfiler:
            branch_ =
                std::make_unique<handlers::BranchProfiler>(dev, rt);
            break;
          case ToolKind::MemDivProfiler:
            memdiv_ =
                std::make_unique<handlers::MemDivProfiler>(dev, rt);
            break;
          case ToolKind::ValueProfiler:
            value_ = std::make_unique<handlers::ValueProfiler>(dev, rt);
            break;
          case ToolKind::MemTracer:
            tracer_ = std::make_unique<handlers::MemTracer>(dev, rt);
            break;
        }
    }

    std::string
    key() const
    {
        std::ostringstream out;
        if (instr_ || block_ || branch_ || memdiv_) {
            Metrics m;
            if (instr_)
                instr_->publish(m);
            else if (block_)
                block_->publish(m);
            else if (branch_)
                branch_->publish(m);
            else
                memdiv_->publish(m);
            return m.serialize();
        }
        if (value_) {
            for (const auto &v : value_->results()) {
                out << v.insAddr << ':' << v.weight << ':'
                    << v.numDsts;
                for (int d = 0; d < 4; ++d) {
                    out << ':' << v.regNum[d] << ':'
                        << v.constantOnes[d] << ':'
                        << v.constantZeros[d] << ':' << v.isScalar[d];
                }
                out << '\n';
            }
        }
        if (tracer_) {
            for (const auto &r : tracer_->trace()) {
                out << r.address << ':' << int(r.width) << ':'
                    << r.isStore << ':' << r.insAddr << ':'
                    << r.warpEvent << '\n';
            }
        }
        return out.str();
    }

  private:
    ToolKind kind_;
    std::unique_ptr<handlers::InstrCounter> instr_;
    std::unique_ptr<handlers::BlockCounter> block_;
    std::unique_ptr<handlers::BranchProfiler> branch_;
    std::unique_ptr<handlers::MemDivProfiler> memdiv_;
    std::unique_ptr<handlers::ValueProfiler> value_;
    std::unique_ptr<handlers::MemTracer> tracer_;
};

} // namespace

const char *
toolName(ToolKind t)
{
    switch (t) {
      case ToolKind::None: return "none";
      case ToolKind::InstrCounter: return "instr_counter";
      case ToolKind::BlockCounter: return "bb_counter";
      case ToolKind::BranchProfiler: return "branch_profiler";
      case ToolKind::MemDivProfiler: return "memdiv_profiler";
      case ToolKind::ValueProfiler: return "value_profiler";
      case ToolKind::MemTracer: return "mem_tracer";
    }
    return "?";
}

core::InstrumentOptions
toolOptions(ToolKind t)
{
    switch (t) {
      case ToolKind::None: break;
      case ToolKind::InstrCounter:
        return handlers::InstrCounter::options();
      case ToolKind::BlockCounter:
        return handlers::BlockCounter::options();
      case ToolKind::BranchProfiler:
        return handlers::BranchProfiler::options();
      case ToolKind::MemDivProfiler:
        return handlers::MemDivProfiler::options();
      case ToolKind::ValueProfiler:
        return handlers::ValueProfiler::options();
      case ToolKind::MemTracer:
        return handlers::MemTracer::options();
    }
    return {};
}

std::string
OracleConfig::describe() const
{
    std::ostringstream out;
    const ExecConfig c = execConfigOf(mode);
    out << "tool=" << toolName(tool) << " threads=" << threads
        << " superblocks=" << c.superblocks
        << " fastpath=" << c.fuseSites << " simd=" << c.simd;
    return out.str();
}

const char *
oracleStatusName(OracleStatus s)
{
    switch (s) {
      case OracleStatus::Pass: return "pass";
      case OracleStatus::Mismatch: return "MISMATCH";
      case OracleStatus::InvalidProgram: return "invalid-program";
    }
    return "?";
}

const char *
mismatchKindName(MismatchKind k)
{
    switch (k) {
      case MismatchKind::None: return "none";
      case MismatchKind::Outcome: return "outcome";
      case MismatchKind::Digest: return "digest";
      case MismatchKind::Stats: return "stats";
      case MismatchKind::Metrics: return "metrics";
      case MismatchKind::ToolAggregate: return "tool_aggregate";
    }
    return "?";
}

std::string
OracleReport::bucket() const
{
    if (status != OracleStatus::Mismatch)
        return {};
    std::ostringstream out;
    const ExecConfig c = execConfigOf(badConfig.mode);
    out << mismatchKindName(kind) << ':' << toolName(badConfig.tool)
        << ":sb=" << c.superblocks << ":fp=" << c.fuseSites
        << ":sd=" << c.simd;
    return out.str();
}

RunObservation
runConfig(const FuzzProgram &p, const OracleConfig &cfg,
          const OracleOptions &opt)
{
    Device dev;
    ir::Module mod = p.module;
    if (opt.moduleTweak)
        opt.moduleTweak(mod, cfg);
    dev.loadModule(std::move(mod));

    // Buffers: per-thread output slots, a read-only input block
    // refilled from inputSeed, and the atomic accumulator.
    const size_t outBytes =
        size_t(p.threads()) * p.outWordsPerThread * 4;
    const size_t inBytes = size_t(p.inWords) * 4;
    const size_t accBytes = size_t(p.accWords) * 4;
    uint64_t out = dev.malloc(outBytes);
    uint64_t in = dev.malloc(inBytes);
    uint64_t acc = dev.malloc(accBytes);
    dev.memset(out, 0, outBytes);
    dev.memset(acc, 0, accBytes);
    {
        std::vector<uint32_t> fill(p.inWords);
        Rng rng(p.inputSeed);
        for (auto &w : fill)
            w = static_cast<uint32_t>(rng.next());
        dev.memcpyHtoD(in, fill.data(), inBytes);
    }

    std::unique_ptr<core::SassiRuntime> rt;
    std::unique_ptr<ToolBox> tool;
    if (cfg.tool != ToolKind::None) {
        rt = std::make_unique<core::SassiRuntime>(dev);
        rt->instrument(toolOptions(cfg.tool));
        // Tools register their handlers against final, instrumented
        // code, so construction must follow instrument().
        tool = std::make_unique<ToolBox>(cfg.tool, dev, *rt);
    }

    KernelArgs args;
    args.addU64(out);
    args.addU64(in);
    args.addU64(acc);
    LaunchOptions lopts;
    lopts.numThreads = cfg.threads;
    lopts.exec = cfg.mode;
    lopts.watchdog = opt.watchdog;
    LaunchResult r =
        dev.launch(p.kernelName, Dim3(p.gridX), Dim3(p.blockX), args,
                   lopts);

    RunObservation obs;
    obs.outcome = r.outcome;
    obs.message = r.message;
    obs.planes = planesOf(r);
    if (const MetricHistogram *h =
            r.metrics.findHistogram("simt/divergence/stack_depth"))
        if (h->count)
            obs.maxDivDepth = static_cast<uint32_t>(h->max);
    if (r.ok()) {
        std::vector<uint8_t> bytes(outBytes + accBytes);
        dev.memcpyDtoH(bytes.data(), out, outBytes);
        dev.memcpyDtoH(bytes.data() + outBytes, acc, accBytes);
        obs.digest = fnv1a(bytes.data(), bytes.size());
        obs.statsKey = statsKeyOf(r.stats);
        obs.metricsKey = r.metrics.serialize();
        if (tool)
            obs.toolKey = tool->key();
    }
    return obs;
}

OracleReport
runOracle(const FuzzProgram &p, const OracleOptions &opt)
{
    OracleReport report;
    fatal_if(opt.threadCounts.empty(),
             "oracle needs at least one thread count");

    std::vector<ToolKind> tools = {ToolKind::None};
    if (opt.withTools) {
        for (int t = 1; t < kNumToolKinds; ++t)
            tools.push_back(static_cast<ToolKind>(t));
    }

    constexpr size_t kNumModes = std::size(kExecModes);

    report.coverage = staticSignature(p);
    auto observe = [&](const RunObservation &obs) {
        report.coverage.planes |= obs.planes;
        report.coverage.maxDivDepth =
            std::max(report.coverage.maxDivDepth, obs.maxDivDepth);
    };

    OracleConfig base{ToolKind::None, opt.threadCounts.front(),
                      kExecModes[0]};
    RunObservation ref = runConfig(p, base, opt);
    ++report.configsRun;
    observe(ref);

    auto mismatch = [&](MismatchKind kind, const OracleConfig &cfg,
                        const std::string &what, const std::string &a,
                        const std::string &b) {
        report.status = OracleStatus::Mismatch;
        report.kind = kind;
        report.badConfig = cfg;
        report.message = cfg.describe() + ": " + what +
                         " differs from baseline\n  baseline: " + a +
                         "\n  this run: " + b;
    };

    for (ToolKind t : tools) {
        // Per-tool references: stats/metrics must be invariant
        // across the threads x dispatch-modes plane of one tool, and
        // the tool aggregate across dispatch modes at one worker.
        const RunObservation *toolRef = nullptr;
        RunObservation toolRefStore;
        std::string serialToolKey[kNumModes];
        bool haveSerialKey[kNumModes] = {};

        for (size_t mode = 0; mode < kNumModes; ++mode) {
            for (int threads : opt.threadCounts) {
                OracleConfig cfg{t, threads, kExecModes[mode]};
                RunObservation obs;
                if (t == base.tool && threads == base.threads &&
                    cfg.mode == base.mode) {
                    obs = ref;
                } else {
                    obs = runConfig(p, cfg, opt);
                    ++report.configsRun;
                    observe(obs);
                }

                if (obs.outcome != ref.outcome) {
                    mismatch(MismatchKind::Outcome, cfg, "outcome",
                             outcomeName(ref.outcome),
                             outcomeName(obs.outcome) + (": " +
                             obs.message));
                    return report;
                }
                if (ref.outcome != Outcome::Ok)
                    continue; // Uniform fault: nothing else to check.

                if (obs.digest != ref.digest) {
                    // A digest difference that only shows up with
                    // parallel workers may be the program's fault,
                    // not the simulator's: a racy program (possible
                    // mid-minimization, when address computations
                    // get deleted) has no stable digest at all.
                    // Re-run the config; instability means the
                    // program is invalid, not the simulator buggy.
                    if (cfg.threads > 1) {
                        RunObservation again = runConfig(p, cfg, opt);
                        ++report.configsRun;
                        if (again.outcome != obs.outcome ||
                            again.digest != obs.digest) {
                            report.status =
                                OracleStatus::InvalidProgram;
                            report.message =
                                cfg.describe() +
                                ": nondeterministic digest across "
                                "repeat runs (racy program)";
                            return report;
                        }
                    }
                    mismatch(MismatchKind::Digest, cfg,
                             "memory digest",
                             std::to_string(ref.digest),
                             std::to_string(obs.digest));
                    return report;
                }
                if (!toolRef) {
                    toolRefStore = obs;
                    toolRef = &toolRefStore;
                } else {
                    if (obs.statsKey != toolRef->statsKey) {
                        mismatch(MismatchKind::Stats, cfg,
                                 "launch stats",
                                 toolRef->statsKey, obs.statsKey);
                        return report;
                    }
                    if (obs.metricsKey != toolRef->metricsKey) {
                        mismatch(MismatchKind::Metrics, cfg,
                                 "metrics registry",
                                 toolRef->metricsKey, obs.metricsKey);
                        return report;
                    }
                }
                if (threads == 1) {
                    serialToolKey[mode] = obs.toolKey;
                    haveSerialKey[mode] = true;
                }
            }
        }
        for (size_t mode = 1; mode < kNumModes; ++mode) {
            if (haveSerialKey[0] && haveSerialKey[mode] &&
                serialToolKey[0] != serialToolKey[mode]) {
                OracleConfig cfg{t, 1, kExecModes[mode]};
                mismatch(MismatchKind::ToolAggregate, cfg,
                         "tool aggregate (vs superblocks=0 "
                         "fastpath=0 simd=0)",
                         serialToolKey[0], serialToolKey[mode]);
                return report;
            }
        }
    }

    if (ref.outcome != Outcome::Ok) {
        report.status = OracleStatus::InvalidProgram;
        report.message = std::string("program faults uniformly: ") +
                         outcomeName(ref.outcome) + ": " + ref.message;
    }
    return report;
}

} // namespace sassi::fuzz
