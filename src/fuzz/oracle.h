/**
 * @file
 * The differential oracle: one program, every configuration.
 *
 * A generated program's architectural output is, by construction
 * (generator.h), a pure function of the program text. The oracle
 * exploits that: it runs the program across the full configuration
 * matrix — {every simt::ExecMode in simt::kExecModes} x {worker
 * threads 1, 2, 8} x {uninstrumented, each instrumentation tool} —
 * and demands that
 * every observable which should be invariant actually is:
 *
 *  - final output/accumulator memory digest: identical everywhere;
 *  - launch outcome: identical everywhere (a program that faults
 *    must fault the same way in every configuration);
 *  - LaunchStats and the metrics registry: identical within one
 *    tool across thread counts and dispatch modes (both are
 *    documented thread-count-invariant, and every dispatch mode is
 *    observationally equivalent to the generic one by contract);
 *  - tool aggregates: identical across dispatch modes at one
 *    worker thread (MemTracer order and ValueProfiler values are
 *    legitimately thread-count-dependent, so cross-thread-count
 *    comparison would false-positive).
 *
 * Any violation is a bug in the interpreter, the superblock
 * compiler, the parallel scheduler, the SASSI pass, or a handler.
 */

#ifndef SASSI_FUZZ_ORACLE_H
#define SASSI_FUZZ_ORACLE_H

#include <functional>
#include <string>
#include <vector>

#include "core/options.h"
#include "fuzz/coverage.h"
#include "fuzz/program.h"
#include "simt/launch.h"

namespace sassi::fuzz {

/** Instrumentation dimension of the config matrix. */
enum class ToolKind {
    None,           //!< Uninstrumented baseline.
    InstrCounter,   //!< beforeAll + memoryInfo.
    BlockCounter,   //!< blockHeaders.
    BranchProfiler, //!< beforeCondBranch + branchInfo.
    MemDivProfiler, //!< beforeMem + memoryInfo.
    ValueProfiler,  //!< afterRegWrites + registerInfo.
    MemTracer,      //!< beforeMem + memoryInfo (trace collection).
};

constexpr int kNumToolKinds = 7;

/** @return a printable name for a tool kind. */
const char *toolName(ToolKind t);

/** @return the InstrumentOptions the given tool requires. */
core::InstrumentOptions toolOptions(ToolKind t);

/** One cell of the configuration matrix. */
struct OracleConfig
{
    ToolKind tool = ToolKind::None;
    int threads = 1;

    /** Dispatch mode. On a host without AVX2 the SIMD modes run the
     *  scalar tier, so those cells repeat their scalar twins
     *  harmlessly. */
    simt::ExecMode mode = simt::ExecMode::Generic;

    /** @return e.g.\ "tool=instr_counter threads=8 superblocks=1
     *  fastpath=1 simd=1" (the mode's switches, see
     *  simt::execConfigOf). */
    std::string describe() const;
};

/** Everything observed from one run of one configuration. */
struct RunObservation
{
    simt::Outcome outcome = simt::Outcome::Ok;
    std::string message;

    /** FNV-1a over the output then accumulator buffers. */
    uint64_t digest = 0;

    /** LaunchStats counters, rendered. */
    std::string statsKey;

    /** The launch's metrics registry, serialized. */
    std::string metricsKey;

    /** The tool's aggregate output, rendered (empty for None). */
    std::string toolKey;

    /** Dispatch planes the run exercised (coverage.h Plane bits). */
    uint32_t planes = 0;

    /** Max divergence-stack depth the run observed. */
    uint32_t maxDivDepth = 0;
};

/** The oracle's verdict on one program. */
enum class OracleStatus {
    Pass,           //!< Every invariant held.
    Mismatch,       //!< Configurations disagreed: a real bug.
    InvalidProgram, //!< Faults identically everywhere; uninteresting.
};

/** @return a printable name for a status. */
const char *oracleStatusName(OracleStatus s);

/** Which invariant a mismatch violated (triage axis). */
enum class MismatchKind {
    None,          //!< No mismatch (status != Mismatch).
    Outcome,       //!< Launch outcome differed from baseline.
    Digest,        //!< Output/accumulator memory digest differed.
    Stats,         //!< LaunchStats differed within one tool.
    Metrics,       //!< Metrics registry differed within one tool.
    ToolAggregate, //!< Tool output differed across dispatch modes.
};

/** @return a printable name for a mismatch kind. */
const char *mismatchKindName(MismatchKind k);

/** Knobs of one oracle evaluation. */
struct OracleOptions
{
    /** Worker-thread counts to sweep. */
    std::vector<int> threadCounts = {1, 2, 8};

    /** Sweep every tool; false = uninstrumented configs only. */
    bool withTools = true;

    /** Per-worker watchdog budget for every run. Generated programs
     *  retire a few thousand instructions; anything approaching this
     *  bound is a hang. */
    uint64_t watchdog = 20'000'000;

    /**
     * Test hook: mutate the module copy a configuration is about to
     * run (e.g.\ mis-compile one opcode only when superblocks are
     * on). This is how the fuzzer's own tests prove the oracle
     * catches interpreter bugs without shipping one.
     */
    std::function<void(ir::Module &, const OracleConfig &)> moduleTweak;
};

/** The oracle's verdict plus the first violated invariant. */
struct OracleReport
{
    OracleStatus status = OracleStatus::Pass;

    /** Human-readable description of the first mismatch. */
    std::string message;

    /** Configurations executed. */
    int configsRun = 0;

    /** Which invariant broke (None unless status == Mismatch). */
    MismatchKind kind = MismatchKind::None;

    /** The configuration that first violated an invariant. */
    OracleConfig badConfig;

    /**
     * The program's coverage signature: static shape/pairs plus the
     * planes and divergence depth observed across the whole sweep.
     * Filled for every status, so even failing programs feed the
     * campaign's coverage map.
     */
    CoverageSignature coverage;

    /**
     * Triage key of a mismatch: kind + tool + dispatch mode of the
     * offending configuration. Thread count is deliberately left
     * out — the same bug found at 2 and at 8 workers is one bucket —
     * so buckets are stable across thread-count sweeps. Empty when
     * the oracle passed.
     */
    std::string bucket() const;

    bool passed() const { return status == OracleStatus::Pass; }
};

/** Execute one configuration and collect its observables. */
RunObservation runConfig(const FuzzProgram &p, const OracleConfig &cfg,
                         const OracleOptions &opt = {});

/** Run the full matrix and check every invariant. */
OracleReport runOracle(const FuzzProgram &p,
                       const OracleOptions &opt = {});

} // namespace sassi::fuzz

#endif // SASSI_FUZZ_ORACLE_H
