/**
 * @file
 * sassi_prof: run one workload and render its launch-scoped metrics
 * registry — the per-launch counters and histograms the simulator,
 * dispatcher, memory model, and handlers publish — as a table, and
 * merge the counters into BENCH_simt.json under "sassi_prof".
 *
 * Usage:
 *   sassi_prof [options] [workload]
 *     --list         list the available workloads and exit
 *     --threads N    worker threads (default 0: SASSI_SIM_THREADS /
 *                    hardware concurrency)
 *     --instrument   instrument with the Figure 3 instruction
 *                    counter so handler metrics appear too
 *     --trace FILE   also record a Chrome trace_event timeline
 *     --csv          emit CSV instead of an aligned table
 *     --no-json      skip the BENCH_simt.json merge
 *     --exec MODE    dispatch mode: generic, superblock,
 *                    superblock-simd, fused or fused-simd (default:
 *                    SASSI_SIM_EXEC, else fused-simd; see
 *                    simt::ExecMode)
 *
 * The table includes the process-wide micro-op compiler counters
 * ("uop/...": compile/hit/entry counts, superblock statics and
 * dynamic run totals, the SIMD-tier dispatch split — uops executed
 * lane-vectorized vs on their scalar exec function — and the
 * compiled-handler dispatch counters: inline vs fiber handler
 * calls, inline fallbacks, per-site spill bytes) alongside the
 * launch-scoped registry. An instrumented run
 * also prints a one-line handler-dispatch summary.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "bench/bench_json.h"
#include "core/sassi.h"
#include "handlers/instr_counter.h"
#include "simt/decode.h"
#include "util/table.h"
#include "util/trace.h"
#include "workloads/suite.h"

using namespace sassi;

namespace {

void
listWorkloads()
{
    Table t({"workload", "suite"});
    for (const auto &e : workloads::fullSuite())
        t.addRow({e.name, e.suite});
    t.print(std::cout);
}

std::optional<workloads::SuiteEntry>
findWorkload(const std::string &name)
{
    for (auto &e : workloads::fullSuite())
        if (e.name == name)
            return e;
    return std::nullopt;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload = "vecadd";
    std::string trace_path;
    int threads = 0;
    bool instrument = false;
    bool csv = false;
    bool write_json = true;
    std::optional<simt::ExecMode> exec;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            listWorkloads();
            return 0;
        } else if (arg == "--threads" && i + 1 < argc) {
            threads = std::atoi(argv[++i]);
        } else if (arg == "--instrument") {
            instrument = true;
        } else if (arg == "--trace" && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--no-json") {
            write_json = false;
        } else if (arg == "--exec" && i + 1 < argc) {
            exec = simt::parseExecMode(argv[++i]);
            if (!exec) {
                std::fprintf(stderr,
                             "unknown --exec mode '%s' (accepted:",
                             argv[i]);
                for (simt::ExecMode m : simt::kExecModes)
                    std::fprintf(stderr, " %s", simt::execModeName(m));
                std::fprintf(stderr, ")\n");
                return 1;
            }
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
            return 1;
        } else {
            workload = arg;
        }
    }

    auto entry = findWorkload(workload);
    if (!entry) {
        std::fprintf(stderr,
                     "unknown workload '%s' (try --list)\n",
                     workload.c_str());
        return 1;
    }

    if (!trace_path.empty())
        Trace::global().begin(trace_path);

    simt::Device dev;
    std::unique_ptr<workloads::Workload> w = entry->make();
    w->launchOptions.numThreads = threads;
    w->launchOptions.exec = exec;
    w->setup(dev);

    std::unique_ptr<core::SassiRuntime> rt;
    std::unique_ptr<handlers::InstrCounter> counter;
    if (instrument) {
        rt = std::make_unique<core::SassiRuntime>(dev);
        rt->instrument(handlers::InstrCounter::options());
        counter = std::make_unique<handlers::InstrCounter>(dev, *rt);
    }

    auto r = w->run(dev);
    if (!r.ok()) {
        std::fprintf(stderr, "%s: launch failed: %s\n",
                     workload.c_str(), r.message.c_str());
        return 1;
    }
    bool verified = w->verify(dev);

    Metrics m = dev.metrics();
    if (rt)
        m.merge(rt->staticMetrics());
    if (counter)
        counter->publish(m);
    // Micro-op compiler counters (process-wide, kept out of the
    // launch-scoped registry so that registry is identical with
    // superblocks on or off).
    m.merge(simt::UopCache::global().snapshot());

    if (!trace_path.empty()) {
        Trace::global().end();
        std::printf("wrote %s\n", trace_path.c_str());
    }

    std::printf("== %s (%s)  launches=%llu  verify=%s ==\n",
                entry->name.c_str(), entry->suite.c_str(),
                static_cast<unsigned long long>(dev.launches()),
                verified ? "ok" : "FAILED");

    if (instrument) {
        // Handler dispatch split: how many site dispatches took the
        // compiled inline path vs the generic fiber round-trip, and
        // how much frame traffic the inline path wrote directly.
        auto counter_of = [&m](const char *name) -> uint64_t {
            for (const auto &[n, v] : m.counters())
                if (n == name)
                    return v;
            return 0;
        };
        uint64_t inline_calls =
            counter_of("uop/handler/inline_calls");
        uint64_t fiber_calls = counter_of("uop/handler/fiber_calls");
        uint64_t fallbacks =
            counter_of("uop/handler/inline_fallbacks");
        uint64_t spill_bytes =
            counter_of("uop/handler/inline_spill_bytes");
        uint64_t total = inline_calls + fiber_calls;
        std::printf("handler dispatch: inline=%llu fiber=%llu "
                    "(%.1f%% inline, %llu fallbacks), inline spill "
                    "bytes=%llu\n",
                    static_cast<unsigned long long>(inline_calls),
                    static_cast<unsigned long long>(fiber_calls),
                    total ? 100.0 * static_cast<double>(inline_calls) /
                                static_cast<double>(total)
                          : 0.0,
                    static_cast<unsigned long long>(fallbacks),
                    static_cast<unsigned long long>(spill_bytes));
    }

    Table counters({"counter", "value"});
    for (const auto &[name, value] : m.counters())
        counters.addRow({name, std::to_string(value)});
    if (csv)
        counters.printCsv(std::cout);
    else
        counters.print(std::cout);

    if (!m.histograms().empty()) {
        Table hist({"histogram", "count", "sum", "mean", "min", "max"});
        for (const auto &[name, h] : m.histograms()) {
            hist.addRow({name, std::to_string(h.count),
                         std::to_string(h.sum), fmtDouble(h.mean(), 2),
                         h.count ? std::to_string(h.min) : "-",
                         h.count ? std::to_string(h.max) : "-"});
        }
        std::printf("\n");
        if (csv)
            hist.printCsv(std::cout);
        else
            hist.print(std::cout);
    }

    if (write_json) {
        bench::BenchJson json("sassi_prof");
        bench::BenchRecord rec;
        rec.name = entry->name;
        rec.threads = threads;
        for (const auto &[name, value] : m.counters())
            rec.extra.emplace_back(name, static_cast<double>(value));
        json.add(rec);
        if (json.write())
            std::printf("\nwrote BENCH_simt.json (sassi_prof)\n");
    }
    return verified ? 0 : 2;
}
