#include "simt/decode.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "sassir/cfg.h"
#include "simt/device.h"
#include "simt/simd/simd_exec.h"
#include "simt/warp.h"
#include "util/bitops.h"
#include "util/logging.h"

namespace sassi::simt {

using namespace sass;

namespace {

/*
 * Lane helpers of the exec functions. The program constructor has
 * already checked every register an instruction names against the
 * kernel's budget, so they index the register-major file directly
 * instead of going through Warp::reg/setReg's panic_if checks. RZ
 * still reads 0 / discards writes.
 */

inline uint32_t
rd(const uint32_t *regs, int lane, RegId r)
{
    return r == RZ
               ? 0u
               : regs[static_cast<size_t>(r) * WarpSize +
                      static_cast<size_t>(lane)];
}

inline void
wr(uint32_t *regs, int lane, RegId r, uint32_t v)
{
    if (r != RZ)
        regs[static_cast<size_t>(r) * WarpSize +
             static_cast<size_t>(lane)] = v;
}

template <bool BImm>
inline uint32_t
srcB(const uint32_t *regs, int lane, const Instruction &ins)
{
    if constexpr (BImm)
        return static_cast<uint32_t>(ins.imm);
    else
        return rd(regs, lane, ins.srcB);
}

/** Iterate the set lanes of exec; body(lane, register_file). */
template <typename Body>
inline void
forLanes(Warp &warp, uint32_t exec, Body &&body)
{
    uint32_t *regs = warp.regs.data();
    for (uint32_t m = exec; m; m &= m - 1) {
        const int lane = std::countr_zero(m);
        body(lane, regs);
    }
}

inline float
asFloat(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, 4);
    return f;
}

inline uint32_t
asBits(float f)
{
    uint32_t b;
    std::memcpy(&b, &f, 4);
    return b;
}

inline bool
cmpInt(CmpOp op, int64_t a, int64_t b)
{
    switch (op) {
      case CmpOp::LT: return a < b;
      case CmpOp::EQ: return a == b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::NE: return a != b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

inline bool
cmpFloat(CmpOp op, float a, float b)
{
    switch (op) {
      case CmpOp::LT: return a < b;
      case CmpOp::EQ: return a == b;
      case CmpOp::LE: return a <= b;
      case CmpOp::GT: return a > b;
      case CmpOp::NE: return a != b;
      case CmpOp::GE: return a >= b;
    }
    return false;
}

inline bool
logicEval(LogicOp op, bool a, bool b)
{
    switch (op) {
      case LogicOp::And: return a && b;
      case LogicOp::Or: return a || b;
      case LogicOp::Xor: return a != b;
      case LogicOp::PassB: return b;
      case LogicOp::Not: return !a;
    }
    return false;
}

/*
 * The micro-op exec functions: the simulator's one definition of
 * each scalar ALU opcode, held to the host-side model in
 * tests/simt/alu_property_test.cc. The operand facts that are fixed
 * per instruction — bIsImm, useCC/setCC, signedness, the LOP
 * operation — are burned in as template parameters.
 */

void
uNop(const UopCtx &, Warp &, const Instruction &, uint32_t)
{
}

void
uMov(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        wr(regs, lane, ins.dst, rd(regs, lane, ins.srcA));
    });
}

void
uMov32i(const UopCtx &, Warp &warp, const Instruction &ins,
        uint32_t exec)
{
    const uint32_t imm_u = static_cast<uint32_t>(ins.imm);
    forLanes(warp, exec,
             [&](int lane, uint32_t *regs) { wr(regs, lane, ins.dst, imm_u); });
}

template <bool BImm>
void
uSel(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        bool p = warp.pred(lane, ins.pSrc) != ins.pSrcNeg;
        wr(regs, lane, ins.dst, p ? rd(regs, lane, ins.srcA) : srcB<BImm>(regs, lane, ins));
    });
}

template <bool BImm, bool UseCC, bool SetCC>
void
uIadd(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        uint64_t sum = static_cast<uint64_t>(rd(regs, lane, ins.srcA)) +
                       srcB<BImm>(regs, lane, ins) +
                       (UseCC && warp.cc(lane) ? 1u : 0u);
        wr(regs, lane, ins.dst, static_cast<uint32_t>(sum));
        if constexpr (SetCC)
            warp.setCC(lane, (sum >> 32) != 0);
    });
}

template <bool BImm>
void
uImul(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        wr(regs, lane, ins.dst, rd(regs, lane, ins.srcA) * srcB<BImm>(regs, lane, ins));
    });
}

template <bool BImm>
void
uImad(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        wr(regs, lane, ins.dst,
           rd(regs, lane, ins.srcA) * srcB<BImm>(regs, lane, ins) + rd(regs, lane, ins.srcC));
    });
}

template <bool BImm, bool IsMin>
void
uImnmx(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        int32_t sa = static_cast<int32_t>(rd(regs, lane, ins.srcA));
        int32_t sb = static_cast<int32_t>(srcB<BImm>(regs, lane, ins));
        wr(regs, lane, ins.dst, static_cast<uint32_t>(
            IsMin ? std::min(sa, sb) : std::max(sa, sb)));
    });
}

template <bool BImm>
void
uShl(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        uint32_t a = rd(regs, lane, ins.srcA);
        uint32_t b = srcB<BImm>(regs, lane, ins);
        wr(regs, lane, ins.dst, b >= 32 ? 0 : a << (b & 31));
    });
}

template <bool BImm>
void
uShrS(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        uint32_t a = rd(regs, lane, ins.srcA);
        wr(regs, lane, ins.dst, static_cast<uint32_t>(
            static_cast<int32_t>(a) >>
            std::min<uint32_t>(srcB<BImm>(regs, lane, ins), 31)));
    });
}

template <bool BImm>
void
uShrU(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        uint32_t a = rd(regs, lane, ins.srcA);
        uint32_t b = srcB<BImm>(regs, lane, ins);
        wr(regs, lane, ins.dst, b >= 32 ? 0 : a >> (b & 31));
    });
}

template <bool BImm, LogicOp Op>
void
uLop(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        uint32_t r;
        if constexpr (Op == LogicOp::And)
            r = rd(regs, lane, ins.srcA) & srcB<BImm>(regs, lane, ins);
        else if constexpr (Op == LogicOp::Or)
            r = rd(regs, lane, ins.srcA) | srcB<BImm>(regs, lane, ins);
        else if constexpr (Op == LogicOp::Xor)
            r = rd(regs, lane, ins.srcA) ^ srcB<BImm>(regs, lane, ins);
        else if constexpr (Op == LogicOp::PassB)
            r = srcB<BImm>(regs, lane, ins);
        else
            r = ~rd(regs, lane, ins.srcA);
        wr(regs, lane, ins.dst, r);
    });
}

void
uPopc(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        wr(regs, lane, ins.dst,
           static_cast<uint32_t>(popc(rd(regs, lane, ins.srcA))));
    });
}

void
uFlo(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        uint32_t a = rd(regs, lane, ins.srcA);
        uint32_t r = a == 0 ? 0xffffffffu
                            : static_cast<uint32_t>(
                                  31 - std::countl_zero(a));
        wr(regs, lane, ins.dst, r);
    });
}

template <bool BImm, bool Signed>
void
uIsetp(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        bool result;
        if constexpr (Signed)
            result = cmpInt(
                ins.cmp, static_cast<int32_t>(rd(regs, lane, ins.srcA)),
                static_cast<int32_t>(srcB<BImm>(regs, lane, ins)));
        else
            result = cmpInt(ins.cmp, rd(regs, lane, ins.srcA),
                            srcB<BImm>(regs, lane, ins));
        warp.setPred(lane, ins.pDst,
                     result &&
                         (warp.pred(lane, ins.pSrc) != ins.pSrcNeg));
    });
}

void
uPsetp(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    const auto pb_id = static_cast<PredId>(ins.imm & 7);
    const bool pb_neg = (ins.imm & 8) != 0;
    forLanes(warp, exec, [&](int lane, uint32_t *) {
        bool pa = warp.pred(lane, ins.pSrc) != ins.pSrcNeg;
        bool pb = warp.pred(lane, pb_id) != pb_neg;
        warp.setPred(lane, ins.pDst, logicEval(ins.logic, pa, pb));
    });
}

void
uP2r(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    const uint32_t imm_u = static_cast<uint32_t>(ins.imm);
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        uint32_t bits = warp.predByte(lane);
        if (warp.cc(lane))
            bits |= 0x80;
        wr(regs, lane, ins.dst, bits & imm_u);
    });
}

void
uR2p(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    const uint32_t imm_u = static_cast<uint32_t>(ins.imm);
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        uint32_t a = rd(regs, lane, ins.srcA);
        for (PredId p = 0; p < NumPred; ++p) {
            if (imm_u & (1u << p))
                warp.setPred(lane, p, a & (1u << p));
        }
        if (imm_u & 0x80)
            warp.setCC(lane, a & 0x80);
    });
}

template <bool BImm>
void
uFadd(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        wr(regs, lane, ins.dst, asBits(asFloat(rd(regs, lane, ins.srcA)) +
                               asFloat(srcB<BImm>(regs, lane, ins))));
    });
}

template <bool BImm>
void
uFmul(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        wr(regs, lane, ins.dst, asBits(asFloat(rd(regs, lane, ins.srcA)) *
                               asFloat(srcB<BImm>(regs, lane, ins))));
    });
}

template <bool BImm>
void
uFfma(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        wr(regs, lane, ins.dst,
           asBits(asFloat(rd(regs, lane, ins.srcA)) *
                      asFloat(srcB<BImm>(regs, lane, ins)) +
                  asFloat(rd(regs, lane, ins.srcC))));
    });
}

template <bool BImm, bool IsMin>
void
uFmnmx(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        float fa = asFloat(rd(regs, lane, ins.srcA));
        float fb = asFloat(srcB<BImm>(regs, lane, ins));
        wr(regs, lane, ins.dst,
           asBits(IsMin ? std::fmin(fa, fb) : std::fmax(fa, fb)));
    });
}

template <bool BImm>
void
uFsetp(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        warp.setPred(lane, ins.pDst,
                     cmpFloat(ins.cmp, asFloat(rd(regs, lane, ins.srcA)),
                              asFloat(srcB<BImm>(regs, lane, ins))) &&
                         (warp.pred(lane, ins.pSrc) != ins.pSrcNeg));
    });
}

void
uMufu(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        float fa = asFloat(rd(regs, lane, ins.srcA));
        float r = 0.f;
        switch (ins.mufu) {
          case MufuOp::Rcp: r = 1.0f / fa; break;
          case MufuOp::Sqrt: r = std::sqrt(fa); break;
          case MufuOp::Rsq: r = 1.0f / std::sqrt(fa); break;
          case MufuOp::Lg2: r = std::log2(fa); break;
          case MufuOp::Ex2: r = std::exp2(fa); break;
          case MufuOp::Sin: r = std::sin(fa); break;
          case MufuOp::Cos: r = std::cos(fa); break;
        }
        wr(regs, lane, ins.dst, asBits(r));
    });
}

void
uI2f(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        wr(regs, lane, ins.dst, asBits(static_cast<float>(
                            static_cast<int32_t>(rd(regs, lane, ins.srcA)))));
    });
}

void
uF2i(const UopCtx &, Warp &warp, const Instruction &ins, uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        float f = asFloat(rd(regs, lane, ins.srcA));
        int32_t r;
        if (std::isnan(f))
            r = 0;
        else if (f >= 2147483647.0f)
            r = 2147483647;
        else if (f <= -2147483648.0f)
            r = -2147483647 - 1;
        else
            r = static_cast<int32_t>(f);
        wr(regs, lane, ins.dst, static_cast<uint32_t>(r));
    });
}

void
uS2rTid(const UopCtx &ctx, Warp &warp, const Instruction &ins,
        uint32_t exec)
{
    const SpecialReg sr = ins.sreg;
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        uint32_t linear = static_cast<uint32_t>(
            warp.rank * WarpSize + lane);
        uint32_t v;
        if (sr == SpecialReg::TidX)
            v = linear % ctx.block.x;
        else if (sr == SpecialReg::TidY)
            v = (linear / ctx.block.x) % ctx.block.y;
        else
            v = linear / (ctx.block.x * ctx.block.y);
        wr(regs, lane, ins.dst, v);
    });
}

void
uS2rLane(const UopCtx &, Warp &warp, const Instruction &ins,
         uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        wr(regs, lane, ins.dst, static_cast<uint32_t>(lane));
    });
}

void
uS2rUniform(const UopCtx &ctx, Warp &warp, const Instruction &ins,
            uint32_t exec)
{
    uint32_t v = 0;
    switch (ins.sreg) {
      case SpecialReg::CtaIdX: v = ctx.cta.x; break;
      case SpecialReg::CtaIdY: v = ctx.cta.y; break;
      case SpecialReg::CtaIdZ: v = ctx.cta.z; break;
      case SpecialReg::NTidX: v = ctx.block.x; break;
      case SpecialReg::NTidY: v = ctx.block.y; break;
      case SpecialReg::NTidZ: v = ctx.block.z; break;
      case SpecialReg::NCtaIdX: v = ctx.grid.x; break;
      case SpecialReg::NCtaIdY: v = ctx.grid.y; break;
      case SpecialReg::NCtaIdZ: v = ctx.grid.z; break;
      case SpecialReg::WarpId:
        v = static_cast<uint32_t>(warp.rank);
        break;
      default: break;
    }
    forLanes(warp, exec,
             [&](int lane, uint32_t *regs) { wr(regs, lane, ins.dst, v); });
}

void
uS2rClock(const UopCtx &ctx, Warp &warp, const Instruction &ins,
          uint32_t exec)
{
    const uint32_t v = static_cast<uint32_t>(*ctx.issued);
    forLanes(warp, exec,
             [&](int lane, uint32_t *regs) { wr(regs, lane, ins.dst, v); });
}

void
uL2g(const UopCtx &ctx, Warp &warp, const Instruction &ins,
     uint32_t exec)
{
    forLanes(warp, exec, [&](int lane, uint32_t *regs) {
        uint64_t thread =
            ctx.ctaLinear * ctx.block.count() +
            static_cast<uint64_t>(warp.rank * WarpSize + lane);
        uint64_t g = Device::LocalWindowBase +
                     thread * ctx.localBytes + rd(regs, lane, ins.srcA);
        wr(regs, lane, ins.dst, lo32(g));
        wr(regs, lane, static_cast<RegId>(ins.dst + 1), hi32(g));
    });
}

/** Select the specialized exec function for an ALU-class instruction. */
AluFn
pickAluFn(const Instruction &ins)
{
    const bool bi = ins.bIsImm;
    switch (ins.op) {
      case Opcode::NOP:
      case Opcode::MEMBAR:
        return uNop;
      case Opcode::MOV:
        return uMov;
      case Opcode::MOV32I:
        return uMov32i;
      case Opcode::SEL:
        return bi ? uSel<true> : uSel<false>;
      case Opcode::IADD:
      case Opcode::IADD32I:
        if (bi)
            return ins.useCC
                       ? (ins.setCC ? uIadd<true, true, true>
                                    : uIadd<true, true, false>)
                       : (ins.setCC ? uIadd<true, false, true>
                                    : uIadd<true, false, false>);
        return ins.useCC
                   ? (ins.setCC ? uIadd<false, true, true>
                                : uIadd<false, true, false>)
                   : (ins.setCC ? uIadd<false, false, true>
                                : uIadd<false, false, false>);
      case Opcode::IMUL:
        return bi ? uImul<true> : uImul<false>;
      case Opcode::IMAD:
        return bi ? uImad<true> : uImad<false>;
      case Opcode::IMNMX:
        if (ins.cmp == CmpOp::LT)
            return bi ? uImnmx<true, true> : uImnmx<false, true>;
        return bi ? uImnmx<true, false> : uImnmx<false, false>;
      case Opcode::SHL:
        return bi ? uShl<true> : uShl<false>;
      case Opcode::SHR:
        if (ins.sExt)
            return bi ? uShrS<true> : uShrS<false>;
        return bi ? uShrU<true> : uShrU<false>;
      case Opcode::LOP:
        switch (ins.logic) {
          case LogicOp::And:
            return bi ? uLop<true, LogicOp::And>
                      : uLop<false, LogicOp::And>;
          case LogicOp::Or:
            return bi ? uLop<true, LogicOp::Or>
                      : uLop<false, LogicOp::Or>;
          case LogicOp::Xor:
            return bi ? uLop<true, LogicOp::Xor>
                      : uLop<false, LogicOp::Xor>;
          case LogicOp::PassB:
            return bi ? uLop<true, LogicOp::PassB>
                      : uLop<false, LogicOp::PassB>;
          case LogicOp::Not:
            return bi ? uLop<true, LogicOp::Not>
                      : uLop<false, LogicOp::Not>;
        }
        break;
      case Opcode::POPC:
        return uPopc;
      case Opcode::FLO:
        return uFlo;
      case Opcode::ISETP:
        if (ins.sExt)
            return bi ? uIsetp<true, true> : uIsetp<false, true>;
        return bi ? uIsetp<true, false> : uIsetp<false, false>;
      case Opcode::PSETP:
        return uPsetp;
      case Opcode::P2R:
        return uP2r;
      case Opcode::R2P:
        return uR2p;
      case Opcode::FADD:
        return bi ? uFadd<true> : uFadd<false>;
      case Opcode::FMUL:
        return bi ? uFmul<true> : uFmul<false>;
      case Opcode::FFMA:
        return bi ? uFfma<true> : uFfma<false>;
      case Opcode::FMNMX:
        if (ins.cmp == CmpOp::LT)
            return bi ? uFmnmx<true, true> : uFmnmx<false, true>;
        return bi ? uFmnmx<true, false> : uFmnmx<false, false>;
      case Opcode::FSETP:
        return bi ? uFsetp<true> : uFsetp<false>;
      case Opcode::MUFU:
        return uMufu;
      case Opcode::I2F:
        return uI2f;
      case Opcode::F2I:
        return uF2i;
      case Opcode::S2R:
        switch (ins.sreg) {
          case SpecialReg::TidX:
          case SpecialReg::TidY:
          case SpecialReg::TidZ:
            return uS2rTid;
          case SpecialReg::LaneId:
            return uS2rLane;
          case SpecialReg::Clock:
            return uS2rClock;
          default:
            return uS2rUniform;
        }
      case Opcode::L2G:
        return uL2g;
      default:
        break;
    }
    panic("no exec function for ALU-class %s",
          std::string(opName(ins.op)).c_str());
}

/**
 * The register budget check: every register an instruction names
 * (srcRegs/dstRegs, so .64/.128 register groups and L2G's high half
 * included) must be RZ or below numRegs, and a kernel with an ABI
 * stack must keep its stack pointer in budget (runCta initializes R1
 * of every lane). @return the first violation, or empty.
 */
std::string
checkRegisterBudget(const ir::Kernel &kernel)
{
    if (!kernel.isShader && kernel.numRegs <= abi::StackPtr) {
        return detail::strFormat(
            "invalid kernel %s: register budget %d leaves no stack "
            "pointer R%d at entry (pc 0)",
            kernel.name.c_str(), kernel.numRegs, abi::StackPtr);
    }
    for (size_t pc = 0; pc < kernel.code.size(); ++pc) {
        const Instruction &ins = kernel.code[pc];
        for (const std::vector<RegId> &regs :
             {ins.dstRegs(), ins.srcRegs()}) {
            for (RegId r : regs) {
                if (r == RZ || r < kernel.numRegs)
                    continue;
                return detail::strFormat(
                    "invalid kernel %s: pc %zu (%s) names R%d, outside "
                    "its register budget of %d",
                    kernel.name.c_str(), pc,
                    std::string(opName(ins.op)).c_str(), r,
                    kernel.numRegs);
            }
        }
    }
    return {};
}

ExecClass
classify(const Instruction &ins)
{
    switch (ins.op) {
      case Opcode::EXIT: return ExecClass::Exit;
      case Opcode::BRA: return ExecClass::Bra;
      case Opcode::SSY: return ExecClass::Ssy;
      case Opcode::SYNC: return ExecClass::Sync;
      case Opcode::JCAL: return ExecClass::Jcal;
      case Opcode::RET: return ExecClass::Ret;
      case Opcode::BAR: return ExecClass::Bar;
      case Opcode::BPT: return ExecClass::Bpt;
      case Opcode::VOTE:
      case Opcode::SHFL:
        return ExecClass::WarpOp;
      default:
        return ins.isMem() ? ExecClass::Mem : ExecClass::Alu;
    }
}

} // namespace

MicroProgram::MicroProgram(const ir::Kernel &kernel, bool fuseSites)
    : error_(checkRegisterBudget(kernel))
{
    if (!error_.empty())
        return;
    const size_t n = kernel.code.size();
    uops_.resize(n);
    for (size_t pc = 0; pc < n; ++pc) {
        const Instruction &ins = kernel.code[pc];
        MicroOp &u = uops_[pc];
        u.cls = classify(ins);
        if (ins.guard == PT)
            u.guard = ins.guardNeg ? GuardKind::AlwaysOff
                                   : GuardKind::AlwaysOn;
        else
            u.guard = GuardKind::PerLane;
        u.countsAsMem = ins.isMem();
        if (u.cls == ExecClass::Alu) {
            u.alu = pickAluFn(ins);
            u.simd = simd::pickSimdFn(kernel, ins);
        }
    }

    // A clock read observes mid-launch issue counts, and batching
    // charges a sibling warp's whole run before the reader's next
    // round — so in a kernel that reads %clock anywhere, any
    // batching at all (superblocks and fused sites alike) could skew
    // the value it sees. Rare enough to simply keep the whole kernel
    // on per-instruction stepping.
    for (size_t i = 0; i < n; ++i) {
        const Instruction &ins = kernel.code[i];
        if (ins.op == Opcode::S2R &&
            ins.sreg == sass::SpecialReg::Clock)
            return;
    }

    const std::vector<uint8_t> leader = ir::blockLeaders(kernel);

    // Compile instrumentation-site bundles first and exclude the
    // instructions they cover from superblock formation, so a fused
    // site is always entered through its head micro-op in step()
    // (never from inside a batched superblock run).
    std::vector<uint8_t> fused(n, 0);
    if (fuseSites) {
        site_runs_ = compileSiteRuns(kernel, leader);
        if (site_runs_.size() > 0xfffe)
            site_runs_.resize(0xfffe); // uint16 id space; ample.
        for (size_t i = 0; i < site_runs_.size(); ++i) {
            const SiteRun &run = site_runs_[i];
            uops_[run.start].site = static_cast<uint16_t>(i + 1);
            for (uint32_t pc = run.start; pc < run.start + run.len;
                 ++pc)
                fused[pc] = 1;
        }
    }

    // Form superblocks: maximal runs of unpredicated ALU micro-ops,
    // never extending across a basic-block leader. Every point
    // control flow can enter — the kernel entry, branch/SSY targets,
    // and the instruction after any block terminator — is a leader,
    // so a warp can only ever land on a run's head; mid-run pcs keep
    // sb == 0 and fall back to per-instruction stepping. Spill/fill-
    // tagged ops feed dedicated launch metrics the batched run does
    // not update, so they stay per-instruction too.
    auto runnable = [&](size_t pc) {
        const MicroOp &u = uops_[pc];
        return u.cls == ExecClass::Alu &&
               u.guard == GuardKind::AlwaysOn &&
               !kernel.code[pc].spillFill && !fused[pc];
    };
    size_t pc = 0;
    while (pc < n) {
        if (!runnable(pc)) {
            ++pc;
            continue;
        }
        size_t end = pc + 1;
        while (end < n && runnable(end) && !leader[end])
            ++end;
        const size_t len = end - pc;
        if (len >= MinSuperblockLen && superblocks_.size() < 0xfffe) {
            Superblock sb;
            sb.start = static_cast<uint32_t>(pc);
            sb.len = static_cast<uint32_t>(len);
            for (size_t i = pc; i < end; ++i) {
                const Instruction &ins = kernel.code[i];
                if (ins.synthetic)
                    ++sb.syntheticInstrs;
                if (uops_[i].simd != nullptr)
                    ++sb.simdUops;
                auto it = std::find_if(
                    sb.opcodeCounts.begin(), sb.opcodeCounts.end(),
                    [&](const auto &e) { return e.first == ins.op; });
                if (it == sb.opcodeCounts.end())
                    sb.opcodeCounts.emplace_back(ins.op, 1u);
                else
                    ++it->second;
            }
            superblocks_.push_back(std::move(sb));
            uops_[pc].sb =
                static_cast<uint16_t>(superblocks_.size());
        }
        pc = end;
    }
}

size_t
MicroProgram::superblockInstrs() const
{
    size_t total = 0;
    for (const Superblock &sb : superblocks_)
        total += sb.len;
    return total;
}

size_t
MicroProgram::siteRunInstrs() const
{
    size_t total = 0;
    for (const SiteRun &run : site_runs_)
        total += run.len;
    return total;
}

UopCache &
UopCache::global()
{
    static UopCache cache;
    return cache;
}

uint64_t
UopCache::fingerprint(const ir::Kernel &kernel)
{
    // FNV-1a over explicit fields (never raw struct bytes: padding
    // is indeterminate). Any rewrite of the kernel — SASSI splicing,
    // register renumbering, target fixups — changes the print.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (char c : kernel.name)
        mix(static_cast<uint8_t>(c));
    mix(static_cast<uint64_t>(kernel.numRegs));
    mix(kernel.localBytes);
    mix(kernel.sharedBytes);
    mix(kernel.isShader ? 1 : 0);
    mix(kernel.code.size());
    for (const Instruction &ins : kernel.code) {
        mix(static_cast<uint64_t>(ins.op));
        mix(static_cast<uint64_t>(ins.guard) |
            (ins.guardNeg ? 0x100u : 0u));
        mix(ins.dst);
        mix(ins.srcA);
        mix(ins.srcB);
        mix(ins.srcC);
        mix(ins.bIsImm ? 1 : 0);
        mix(static_cast<uint64_t>(ins.imm));
        mix(static_cast<uint64_t>(ins.pDst) |
            (static_cast<uint64_t>(ins.pSrc) << 8) |
            (ins.pSrcNeg ? 0x10000u : 0u));
        mix(static_cast<uint64_t>(ins.cmp) |
            (static_cast<uint64_t>(ins.logic) << 8) |
            (static_cast<uint64_t>(ins.vote) << 16) |
            (static_cast<uint64_t>(ins.shfl) << 24) |
            (static_cast<uint64_t>(ins.atom) << 32) |
            (static_cast<uint64_t>(ins.mufu) << 40) |
            (static_cast<uint64_t>(ins.sreg) << 48) |
            (static_cast<uint64_t>(ins.space) << 56));
        mix(static_cast<uint64_t>(ins.width) |
            (ins.setCC ? 0x100u : 0u) | (ins.useCC ? 0x200u : 0u) |
            (ins.sExt ? 0x400u : 0u) |
            (ins.synthetic ? 0x800u : 0u) |
            (ins.spillFill ? 0x1000u : 0u));
        mix(static_cast<uint64_t>(
            static_cast<int64_t>(ins.target)));
    }
    return h;
}

std::shared_ptr<const MicroProgram>
UopCache::get(const ir::Kernel &kernel, bool fuseSites)
{
    // Salt the content print with the fused-sites bit so programs
    // compiled with and without site fusing coexist in the cache.
    uint64_t key = fingerprint(kernel);
    if (fuseSites)
        key ^= 0x9e3779b97f4a7c15ull;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++metrics_.counter("uop/cache/hits");
            return it->second.prog;
        }
    }
    // Compile outside the lock: programs are pure functions of the
    // kernel, so two threads racing on the same key just do the
    // work twice and the loser's copy is dropped.
    auto prog = std::make_shared<const MicroProgram>(kernel, fuseSites);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] =
        entries_.emplace(key, Entry{kernel.name, prog});
    if (!inserted) {
        ++metrics_.counter("uop/cache/hits");
        return it->second.prog;
    }
    ++metrics_.counter("uop/cache/compiles");
    metrics_.counter("uop/static/instrs") += prog->size();
    metrics_.counter("uop/static/superblocks") +=
        prog->superblocks().size();
    metrics_.counter("uop/static/superblock_instrs") +=
        prog->superblockInstrs();
    MetricHistogram &lens =
        metrics_.histogram("uop/static/superblock_len");
    for (const Superblock &sb : prog->superblocks())
        lens.observe(sb.len);
    if (!prog->siteRuns().empty()) {
        metrics_.counter("uop/static/site_runs") +=
            prog->siteRuns().size();
        metrics_.counter("uop/static/site_run_instrs") +=
            prog->siteRunInstrs();
        for (const SiteRun &run : prog->siteRuns()) {
            // Static property keyed by site, so assignment (not +=)
            // keeps recompiles after invalidation idempotent.
            metrics_.counter(
                "uop/handler/site/" + kernel.name + "@" +
                std::to_string(run.start) + "/spill_bytes") =
                run.spillBytesPerLane();
        }
    }
    return it->second.prog;
}

size_t
UopCache::invalidate(std::string_view kernel_name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    size_t dropped = 0;
    for (auto it = entries_.begin(); it != entries_.end();) {
        if (it->second.name == kernel_name) {
            it = entries_.erase(it);
            ++dropped;
        } else {
            ++it;
        }
    }
    metrics_.counter("uop/cache/invalidated") += dropped;
    return dropped;
}

void
UopCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    metrics_.clear();
}

void
UopCache::noteRuns(uint64_t runs, uint64_t instrs)
{
    if (!runs)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.counter("uop/dynamic/superblock_runs") += runs;
    metrics_.counter("uop/dynamic/superblock_instrs") += instrs;
}

void
UopCache::noteSimd(uint64_t vector_uops, uint64_t scalar_uops)
{
    if (!vector_uops && !scalar_uops)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.counter("uop/simd/vector_uops") += vector_uops;
    metrics_.counter("uop/simd/scalar_uops") += scalar_uops;
}

void
UopCache::noteHandlerCalls(uint64_t inline_calls, uint64_t fiber_calls,
                           uint64_t fallbacks,
                           uint64_t inline_spill_bytes)
{
    if (!inline_calls && !fiber_calls && !fallbacks)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    metrics_.counter("uop/handler/inline_calls") += inline_calls;
    metrics_.counter("uop/handler/fiber_calls") += fiber_calls;
    metrics_.counter("uop/handler/inline_fallbacks") += fallbacks;
    metrics_.counter("uop/handler/inline_spill_bytes") +=
        inline_spill_bytes;
}

Metrics
UopCache::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Metrics m = metrics_;
    m.counter("uop/cache/entries") = entries_.size();
    return m;
}

size_t
UopCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

ExecConfig
resolveExecConfig(std::optional<ExecMode> requested)
{
    const char *env = requested ? nullptr : std::getenv("SASSI_SIM_EXEC");
    if (env && *env) {
        requested = parseExecMode(env);
        static std::once_flag warned;
        if (!requested)
            std::call_once(warned, [env] {
                std::string names;
                for (ExecMode m : kExecModes)
                    names += std::string(names.empty() ? "" : ", ") +
                             execModeName(m);
                warn("ignoring unknown SASSI_SIM_EXEC value '%s' "
                     "(accepted: %s); running %s",
                     env, names.c_str(), execModeName(kDefaultExecMode));
            });
    }
    ExecConfig cfg = execConfigOf(requested.value_or(kDefaultExecMode));
    cfg.simd = cfg.simd && simd::cpuHasAvx2();
    return cfg;
}

} // namespace sassi::simt
