/**
 * @file
 * Never-abort tests for kernels whose instructions name registers
 * outside their .regs budget. Each must come back from the launch as
 * Outcome::InvalidKernel, naming the kernel, the pc and the
 * register, before any CTA runs, at one worker and at four, with
 * and without instrumentation, and with the launch callbacks still
 * delivered. None of them may reach a panic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "core/sassi.h"
#include "handlers/instr_counter.h"
#include "sassir/builder.h"
#include "sassir/parser.h"
#include "simt/device.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;

namespace {

constexpr int kThreadCounts[] = {1, 4};

LaunchResult
launchText(const std::string &text, int threads)
{
    Device dev;
    dev.loadModule(ir::parseAssembly(text));
    LaunchOptions opts;
    opts.numThreads = threads;
    return dev.launch(dev.module().kernels.front().name, Dim3(2),
                      Dim3(64), KernelArgs(), opts);
}

/** One malformed kernel and the register its rejection must name. */
struct BadKernel
{
    const char *what;
    const char *text;
    const char *named; //!< Register the message names, with its pc.
};

const BadKernel kBadKernels[] = {
    {"write far outside the budget",
     ".kernel k\n.regs 8\n    MOV32I R30, 0x1\n    EXIT\n",
     "pc 0 (MOV32I) names R30,"},
    {"budget without the stack pointer",
     ".kernel k\n.regs 1\n    EXIT\n", "stack pointer R1"},
    {"load address register",
     ".kernel k\n.regs 8\n    LDG R4, [R30]\n    EXIT\n",
     "pc 0 (LDG) names R30,"},
    {"high half of a load address pair",
     ".kernel k\n.regs 7\n    LDG R4, [R6]\n    EXIT\n",
     "pc 0 (LDG) names R7,"},
    {"high half of an L2G result",
     ".kernel k\n.regs 7\n    MOV R2, RZ\n    L2G R6, R2\n    EXIT\n",
     "pc 1 (L2G) names R7,"},
    {"block that never runs",
     ".kernel k\n.regs 8\n    BRA done\n    IADD R40, R2, R3\n"
     "done:\n    EXIT\n",
     "pc 1 (IADD) names R40,"},
};

TEST(InvalidKernel, OutOfBudgetRegistersAreRejectedBeforeAnyCta)
{
    for (const BadKernel &bad : kBadKernels) {
        for (int threads : kThreadCounts) {
            LaunchResult r = launchText(bad.text, threads);
            EXPECT_EQ(r.outcome, Outcome::InvalidKernel)
                << bad.what << " threads " << threads;
            EXPECT_NE(r.message.find("kernel k"), std::string::npos)
                << r.message;
            EXPECT_NE(r.message.find(bad.named), std::string::npos)
                << bad.what << ": " << r.message;
            EXPECT_EQ(r.stats.ctas, 0u) << bad.what;
            EXPECT_EQ(r.stats.warpInstrs, 0u) << bad.what;
        }
    }
    EXPECT_STREQ(outcomeName(Outcome::InvalidKernel), "invalid-kernel");
}

TEST(InvalidKernel, ShaderNeedsNoStackPointer)
{
    // Shaders keep no ABI stack (R1 is never initialized), so a
    // one-register shader that stays inside its budget runs.
    ir::KernelBuilder kb("shade");
    kb.setShader();
    kb.mov32i(0, 5);
    kb.exit();
    ir::Kernel k = kb.finish();
    k.numRegs = 1;
    ir::Module mod;
    mod.kernels.push_back(std::move(k));
    Device dev;
    dev.loadModule(std::move(mod));
    LaunchResult r = dev.launch("shade", Dim3(1), Dim3(32), KernelArgs());
    EXPECT_TRUE(r.ok()) << r.message;
}

TEST(InvalidKernel, LaunchCallbacksStillFire)
{
    Device dev;
    dev.loadModule(ir::parseAssembly(kBadKernels[0].text));
    int launches = 0, exits = 0;
    cupti::CallbackData exit_data;
    dev.callbacks().subscribe(
        [&](cupti::CallbackSite site, const cupti::CallbackData &d) {
            if (site == cupti::CallbackSite::KernelLaunch) {
                ++launches;
            } else {
                ++exits;
                exit_data = d;
            }
        });
    LaunchResult r = dev.launch("k", Dim3(1), Dim3(32), KernelArgs());
    EXPECT_EQ(r.outcome, Outcome::InvalidKernel);
    EXPECT_EQ(launches, 1);
    EXPECT_EQ(exits, 1);
    EXPECT_FALSE(exit_data.launchOk);
    EXPECT_EQ(exit_data.errorMessage, r.message);
}

/** Highest register any instruction of the kernel names (-1: none). */
int
highestReg(const ir::Kernel &k)
{
    int top = -1;
    for (const Instruction &ins : k.code) {
        for (RegId r : ins.dstRegs())
            if (r != RZ)
                top = std::max(top, static_cast<int>(r));
        for (RegId r : ins.srcRegs())
            if (r != RZ)
                top = std::max(top, static_cast<int>(r));
    }
    return top;
}

std::vector<std::string>
corpusFiles()
{
    std::vector<std::string> out;
    for (const auto &e :
         std::filesystem::directory_iterator(SASSI_FUZZ_CORPUS_DIR))
        if (e.path().extension() == ".sass")
            out.push_back(e.path().string());
    std::sort(out.begin(), out.end());
    return out;
}

TEST(InvalidKernel, LoweredCorpusBudgetsAreRejected)
{
    const std::vector<std::string> files = corpusFiles();
    ASSERT_FALSE(files.empty());
    const std::regex regs_line(R"(\.regs [0-9]+)");
    for (const std::string &f : files) {
        std::ifstream in(f);
        std::stringstream text;
        text << in.rdbuf();
        ASSERT_TRUE(std::regex_search(text.str(), regs_line)) << f;
        const int top =
            highestReg(ir::parseAssembly(text.str()).kernels.front());
        ASSERT_GT(top, 1) << f;

        for (int budget : {1, top / 2, top}) {
            const std::string lowered = std::regex_replace(
                text.str(), regs_line, ".regs " + std::to_string(budget));
            for (bool instrumented : {false, true}) {
                for (int threads : kThreadCounts) {
                    Device dev;
                    dev.loadModule(ir::parseAssembly(lowered));
                    std::unique_ptr<core::SassiRuntime> rt;
                    std::unique_ptr<handlers::InstrCounter> counter;
                    if (instrumented) {
                        rt = std::make_unique<core::SassiRuntime>(dev);
                        rt->instrument(handlers::InstrCounter::options());
                        counter = std::make_unique<handlers::InstrCounter>(
                            dev, *rt);
                    }
                    // Instrumentation may raise the budget; the
                    // kernel stays invalid while its highest
                    // register is still outside it.
                    const ir::Kernel &k = dev.module().kernels.front();
                    ASSERT_LE(k.numRegs, highestReg(k))
                        << f << " .regs " << budget;
                    uint64_t buf = dev.malloc(1 << 16);
                    KernelArgs args;
                    args.addU64(buf);
                    args.addU64(buf);
                    args.addU64(buf);
                    LaunchOptions opts;
                    opts.numThreads = threads;
                    LaunchResult r =
                        dev.launch(k.name, Dim3(2), Dim3(64), args, opts);
                    const std::string where =
                        f + " .regs " + std::to_string(budget) +
                        (instrumented ? " instrumented" : "") +
                        " threads " + std::to_string(threads);
                    EXPECT_EQ(r.outcome, Outcome::InvalidKernel) << where;
                    EXPECT_NE(r.message.find("kernel " + k.name),
                              std::string::npos)
                        << where << ": " << r.message;
                    EXPECT_TRUE(std::regex_search(
                        r.message, std::regex(R"(R[0-9]+)")))
                        << where << ": " << r.message;
                    if (counter) {
                        EXPECT_EQ(counter->counts()[handlers::InstrCounter::
                                                        TotalExecuted],
                                  0u)
                            << where;
                    }
                }
            }
        }
    }
}

} // namespace
