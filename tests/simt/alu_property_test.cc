/**
 * @file
 * Property tests for the scalar ALU semantics: random straight-line
 * programs over every ALU-class opcode executed on the simulator must
 * match an independent host-side evaluation of the same operation
 * sequence. Each program runs in every ExecMode of kExecModes
 * (per-instruction stepping; superblocks on the scalar exec
 * functions; superblocks on the SIMD tier; each superblock tier
 * with fused sites too), unguarded and under
 * per-lane guard predicates, so the host model is the reference all
 * of them are held to.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "sassir/builder.h"
#include "simt/device.h"
#include "util/rng.h"

using namespace sassi;
using namespace sassi::sass;
using namespace sassi::simt;
using sassi::ir::KernelBuilder;

namespace {

// Launch geometry: a 3-D block of two warps on a 2-D grid, so every
// special register takes more than one value.
const Dim3 kGrid(2, 2, 1);
const Dim3 kBlock(8, 4, 2);
constexpr uint32_t kLocalBytes = 64;
constexpr uint32_t kOutWords = 7; // R10..R15 and a P2R of P0..P6+CC.

/** Floats with NaN, infinity, signed-zero and F2I saturation edges. */
constexpr uint32_t kEdgeBits[] = {
    0x7fc00000u, // Quiet NaN.
    0xffc00001u, // Negative NaN with a payload.
    0x7f800000u, // +inf.
    0xff800000u, // -inf.
    0x4f000000u, // 2^31: first value F2I saturates up.
    0x4effffffu, // 2147483520: largest in-range positive.
    0xcf000000u, // -2^31: exactly INT32_MIN.
    0xcf000001u, // Just below INT32_MIN: saturates down.
    0x80000000u, // -0.
    0x3f000000u, // 0.5: truncates to 0.
    0xbfc00000u, // -1.5: truncates to -1.
};

constexpr SpecialReg kSregs[] = {
    SpecialReg::TidX,    SpecialReg::TidY,    SpecialReg::TidZ,
    SpecialReg::CtaIdX,  SpecialReg::CtaIdY,  SpecialReg::CtaIdZ,
    SpecialReg::NTidX,   SpecialReg::NTidY,   SpecialReg::NTidZ,
    SpecialReg::NCtaIdX, SpecialReg::NCtaIdY, SpecialReg::NCtaIdZ,
    SpecialReg::LaneId,  SpecialReg::WarpId,
};

constexpr CmpOp kCmps[] = {CmpOp::LT, CmpOp::EQ, CmpOp::LE,
                           CmpOp::GT, CmpOp::NE, CmpOp::GE};
constexpr LogicOp kLogics[] = {LogicOp::And, LogicOp::Or, LogicOp::Xor,
                               LogicOp::PassB, LogicOp::Not};
constexpr MufuOp kMufus[] = {MufuOp::Rcp, MufuOp::Sqrt, MufuOp::Rsq,
                             MufuOp::Lg2, MufuOp::Ex2,  MufuOp::Sin,
                             MufuOp::Cos};

enum Kind {
    KIadd, KIaddI, KImul, KImad, KShl, KShr, KShrS, KLopAnd, KLopOr,
    KLopXor, KLopNot, KImin, KImax, KPopc, KI2f, KFfma, KFadd,
    KMov, KMov32i, KSel, KIaddCC, KIaddX, KIaddXCC, KIaddCCI, KIaddXI,
    KLopPassB, KLopI, KFlo, KIsetp, KIsetpI, KPsetp, KP2r, KR2p, KFmul,
    KFmnmx, KFsetp, KMufu, KF2i, KS2r, KL2g,
    NumKinds
};

/** One randomly chosen ALU operation over registers 10..15. */
struct Op
{
    int kind = 0;
    int d = 10, a = 10, b = 10;
    uint32_t imm = 0;
    int sel = 0;        //!< Sub-choice: cmp/logic/mufu/sreg index, min.
    bool sExt = false;  //!< ISETP signedness.
    int pd = 1;         //!< Predicate written (P1..P3).
    int ps = 0;         //!< Predicate read (P0..P3).
    bool psNeg = false;
    int pb = 0;         //!< PSETP's second predicate.
    bool pbNeg = false;
    int guard = PT;     //!< Guard predicate of the final instruction.
    bool guardNeg = false;
};

/** Per-thread architectural state the host model evaluates. */
struct HostState
{
    uint32_t r[16] = {};
    bool p[NumPred] = {};
    bool cc = false;
};

/** Where one thread sits in the launch. */
struct ThreadPos
{
    uint32_t t = 0;    //!< Linear index within the CTA.
    uint32_t cta = 0;  //!< Linear CTA index.
    Dim3 tid, ctaId;
};

ThreadPos
threadPos(uint32_t global)
{
    const uint32_t per_cta = static_cast<uint32_t>(kBlock.count());
    ThreadPos pos;
    pos.t = global % per_cta;
    pos.cta = global / per_cta;
    pos.tid = Dim3(pos.t % kBlock.x, (pos.t / kBlock.x) % kBlock.y,
                   pos.t / (kBlock.x * kBlock.y));
    pos.ctaId = Dim3(pos.cta % kGrid.x, (pos.cta / kGrid.x) % kGrid.y,
                     pos.cta / (kGrid.x * kGrid.y));
    return pos;
}

float
asFloat(uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

uint32_t
asBits(float f)
{
    return std::bit_cast<uint32_t>(f);
}

/** Float view of an integer register after I2F: finite by design. */
float
cvt(uint32_t a)
{
    return static_cast<float>(static_cast<int32_t>(a));
}

bool
cmpHost(CmpOp op, auto a, auto b)
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

bool
logicHost(LogicOp op, bool a, bool b)
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

uint32_t
logicHost(LogicOp op, uint32_t a, uint32_t b)
{
    switch (op) {
      case LogicOp::And: return a & b;
      case LogicOp::Or: return a | b;
      case LogicOp::Xor: return a ^ b;
      case LogicOp::PassB: return b;
      case LogicOp::Not: return ~a;
    }
    return 0;
}

uint32_t
sregHost(SpecialReg sr, const ThreadPos &pos)
{
    switch (sr) {
      case SpecialReg::TidX: return pos.tid.x;
      case SpecialReg::TidY: return pos.tid.y;
      case SpecialReg::TidZ: return pos.tid.z;
      case SpecialReg::CtaIdX: return pos.ctaId.x;
      case SpecialReg::CtaIdY: return pos.ctaId.y;
      case SpecialReg::CtaIdZ: return pos.ctaId.z;
      case SpecialReg::NTidX: return kBlock.x;
      case SpecialReg::NTidY: return kBlock.y;
      case SpecialReg::NTidZ: return kBlock.z;
      case SpecialReg::NCtaIdX: return kGrid.x;
      case SpecialReg::NCtaIdY: return kGrid.y;
      case SpecialReg::NCtaIdZ: return kGrid.z;
      case SpecialReg::LaneId: return pos.t % WarpSize;
      case SpecialReg::WarpId: return pos.t / WarpSize;
      default: return 0;
    }
}

/** F2I: truncate toward zero, saturate at the int32 range, NaN -> 0. */
uint32_t
f2iHost(float f)
{
    if (f != f)
        return 0;
    if (f >= 2147483648.0f)
        return 0x7fffffffu;
    if (f <= -2147483648.0f)
        return 0x80000000u;
    return static_cast<uint32_t>(static_cast<int32_t>(f));
}

float
mufuHost(MufuOp op, float x)
{
    switch (op) {
      case MufuOp::Rcp: return 1.0f / x;
      case MufuOp::Sqrt: return std::sqrt(x);
      case MufuOp::Rsq: return 1.0f / std::sqrt(x);
      case MufuOp::Lg2: return std::log2(x);
      case MufuOp::Ex2: return std::exp2(x);
      case MufuOp::Sin: return std::sin(x);
      case MufuOp::Cos: return std::cos(x);
    }
    return 0.f;
}

/** Host-side reference for one op over one thread's state. */
void
evalHost(const Op &op, HostState &s, const ThreadPos &pos)
{
    if (op.guard != PT && s.p[op.guard] == op.guardNeg)
        return;
    uint32_t *r = s.r;
    const uint32_t a = r[op.a];
    const uint32_t b = r[op.b];
    const bool pin = s.p[op.ps] != op.psNeg; // Combined source pred.
    auto carry = [&](uint32_t x, uint32_t y, bool use_cc, bool set_cc) {
        uint64_t sum = static_cast<uint64_t>(x) + y +
                       (use_cc && s.cc ? 1u : 0u);
        if (set_cc)
            s.cc = (sum >> 32) != 0;
        return static_cast<uint32_t>(sum);
    };
    switch (op.kind) {
      case KIadd: r[op.d] = a + b; break;
      case KIaddI: r[op.d] = a + op.imm; break;
      case KImul: r[op.d] = a * b; break;
      case KImad: r[op.d] = a * b + r[op.d]; break;
      case KShl: r[op.d] = op.imm >= 32 ? 0 : a << (op.imm & 31); break;
      case KShr: r[op.d] = op.imm >= 32 ? 0 : a >> (op.imm & 31); break;
      case KShrS:
        r[op.d] = static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                        std::min(op.imm, 31u));
        break;
      case KLopAnd: r[op.d] = a & b; break;
      case KLopOr: r[op.d] = a | b; break;
      case KLopXor: r[op.d] = a ^ b; break;
      case KLopNot: r[op.d] = ~a; break;
      case KImin:
        r[op.d] = static_cast<uint32_t>(std::min(
            static_cast<int32_t>(a), static_cast<int32_t>(b)));
        break;
      case KImax:
        r[op.d] = static_cast<uint32_t>(std::max(
            static_cast<int32_t>(a), static_cast<int32_t>(b)));
        break;
      case KPopc: r[op.d] = static_cast<uint32_t>(std::popcount(a)); break;
      case KI2f: r[op.d] = asBits(cvt(a)); break;
      // Two-operand float ops consume freshly converted integers:
      // raw register bits could be NaNs, and which of two NaN
      // payloads an evaluator propagates depends on how its compiler
      // ordered the operands.
      case KFfma: r[op.d] = asBits(cvt(a) * cvt(b) + cvt(r[op.d])); break;
      case KFadd: r[op.d] = asBits(cvt(a) + cvt(b)); break;
      case KMov: r[op.d] = a; break;
      case KMov32i: r[op.d] = op.imm; break;
      case KSel: r[op.d] = pin ? a : b; break;
      case KIaddCC: r[op.d] = carry(a, b, false, true); break;
      case KIaddX: r[op.d] = carry(a, b, true, false); break;
      case KIaddXCC: r[op.d] = carry(a, b, true, true); break;
      case KIaddCCI: r[op.d] = carry(a, op.imm, false, true); break;
      case KIaddXI: r[op.d] = carry(a, op.imm, true, false); break;
      case KLopPassB: r[op.d] = b; break;
      case KLopI:
        r[op.d] = logicHost(kLogics[op.sel], a, op.imm);
        break;
      case KFlo:
        r[op.d] = a == 0 ? 0xffffffffu
                         : static_cast<uint32_t>(31 - std::countl_zero(a));
        break;
      case KIsetp:
      case KIsetpI: {
        const uint32_t rhs = op.kind == KIsetpI ? op.imm : b;
        const bool res =
            op.sExt ? cmpHost(kCmps[op.sel], static_cast<int32_t>(a),
                              static_cast<int32_t>(rhs))
                    : cmpHost(kCmps[op.sel], a, rhs);
        s.p[op.pd] = res && pin;
        break;
      }
      case KPsetp:
        s.p[op.pd] = logicHost(kLogics[op.sel], pin,
                               s.p[op.pb] != op.pbNeg);
        break;
      case KP2r: {
        uint32_t bits = s.cc ? 0x80u : 0u;
        for (int p = 0; p < NumPred; ++p)
            bits |= (s.p[p] ? 1u : 0u) << p;
        r[op.d] = bits & op.imm;
        break;
      }
      case KR2p:
        for (int p = 0; p < NumPred; ++p)
            if (op.imm & (1u << p))
                s.p[p] = (a >> p) & 1u;
        if (op.imm & 0x80u)
            s.cc = (a & 0x80u) != 0;
        break;
      case KFmul: r[op.d] = asBits(cvt(a) * cvt(b)); break;
      // One raw operand (NaN, inf, -0 and all) against a converted
      // one: at most one NaN, so the result is evaluator-independent.
      case KFmnmx: {
        const float fa = asFloat(a), fb = cvt(b);
        r[op.d] = asBits(op.sel ? std::fmin(fa, fb) : std::fmax(fa, fb));
        break;
      }
      case KFsetp:
        s.p[op.pd] = cmpHost(kCmps[op.sel], asFloat(a), cvt(b)) && pin;
        break;
      case KMufu: r[op.d] = asBits(mufuHost(kMufus[op.sel], asFloat(a))); break;
      case KF2i: r[op.d] = f2iHost(asFloat(a)); break;
      case KS2r: r[op.d] = sregHost(kSregs[op.sel], pos); break;
      case KL2g: {
        const uint64_t g =
            Device::LocalWindowBase +
            (static_cast<uint64_t>(pos.cta) * kBlock.count() + pos.t) *
                kLocalBytes +
            a;
        r[op.d] = static_cast<uint32_t>(g);
        r[op.d + 1] = static_cast<uint32_t>(g >> 32);
        break;
      }
      default: break;
    }
}

Op
randomOp(Rng &rng, bool guarded)
{
    Op op;
    op.kind = static_cast<int>(rng.nextBelow(NumKinds));
    op.d = static_cast<int>(rng.nextRange(10, op.kind == KL2g ? 14 : 15));
    op.a = static_cast<int>(rng.nextRange(10, 15));
    op.b = static_cast<int>(rng.nextRange(10, 15));
    op.imm = static_cast<uint32_t>(rng.nextBelow(33));
    op.sExt = rng.nextBelow(2) != 0;
    op.pd = static_cast<int>(rng.nextRange(1, 3));
    op.ps = static_cast<int>(rng.nextRange(0, 3));
    op.psNeg = rng.nextBelow(2) != 0;
    op.pb = static_cast<int>(rng.nextRange(0, 3));
    op.pbNeg = rng.nextBelow(2) != 0;
    switch (op.kind) {
      case KMov32i:
        op.imm = rng.nextBelow(2)
                     ? kEdgeBits[rng.nextBelow(std::size(kEdgeBits))]
                     : static_cast<uint32_t>(rng.next());
        break;
      case KIaddCCI:
      case KIaddXI:
      case KLopI:
      case KIsetpI:
        op.imm = static_cast<uint32_t>(rng.next());
        break;
      case KP2r:
      case KR2p:
        op.imm = static_cast<uint32_t>(rng.nextBelow(256));
        break;
      default:
        break;
    }
    switch (op.kind) {
      case KIsetp: case KIsetpI: case KFsetp:
        op.sel = static_cast<int>(rng.nextBelow(std::size(kCmps)));
        break;
      case KPsetp: case KLopI:
        op.sel = static_cast<int>(rng.nextBelow(std::size(kLogics)));
        break;
      case KMufu:
        op.sel = static_cast<int>(rng.nextBelow(std::size(kMufus)));
        break;
      case KS2r:
        op.sel = static_cast<int>(rng.nextBelow(std::size(kSregs)));
        break;
      case KFmnmx:
        op.sel = static_cast<int>(rng.nextBelow(2));
        break;
      default:
        break;
    }
    if (guarded && rng.nextBelow(4) != 0) {
        op.guard = static_cast<int>(rng.nextRange(0, 3));
        op.guardNeg = rng.nextBelow(2) != 0;
    }
    return op;
}

/** Emit op; @return the index of its final (guarded) instruction. */
int
emitOp(KernelBuilder &kb, const Op &op)
{
    auto D = static_cast<RegId>(op.d);
    auto A = static_cast<RegId>(op.a);
    auto B = static_cast<RegId>(op.b);
    const auto pd = static_cast<PredId>(op.pd);
    // Operand conversions land in the scratch registers R5..R7 and
    // run unguarded; only the op itself carries the guard.
    switch (op.kind) {
      case KFfma: kb.i2f(6, A); kb.i2f(7, B); kb.i2f(5, D); break;
      case KFadd: case KFmul: kb.i2f(6, A); kb.i2f(7, B); break;
      case KFmnmx: case KFsetp: kb.i2f(7, B); break;
      default: break;
    }
    if (op.guard != PT) {
        if (op.guardNeg)
            kb.onNotP(static_cast<PredId>(op.guard));
        else
            kb.onP(static_cast<PredId>(op.guard));
    }
    switch (op.kind) {
      case KIadd: return kb.iadd(D, A, B);
      case KIaddI: return kb.iaddi(D, A, op.imm);
      case KImul: return kb.imul(D, A, B);
      case KImad: return kb.imad(D, A, B, D);
      case KShl: return kb.shl(D, A, op.imm);
      case KShr: return kb.shr(D, A, op.imm);
      case KShrS: return kb.shr(D, A, op.imm, true);
      case KLopAnd: return kb.lop(LogicOp::And, D, A, B);
      case KLopOr: return kb.lop(LogicOp::Or, D, A, B);
      case KLopXor: return kb.lop(LogicOp::Xor, D, A, B);
      case KLopNot: return kb.lop(LogicOp::Not, D, A, B);
      case KImin: return kb.imnmx(D, A, B, true);
      case KImax: return kb.imnmx(D, A, B, false);
      case KPopc: return kb.popc(D, A);
      case KI2f: return kb.i2f(D, A);
      case KFfma: return kb.ffma(D, 6, 7, 5);
      case KFadd: return kb.fadd(D, 6, 7);
      case KMov: return kb.mov(D, A);
      case KMov32i: return kb.mov32i(D, op.imm);
      case KSel:
        return kb.sel(D, A, B, static_cast<PredId>(op.ps), op.psNeg);
      case KIaddCC: return kb.iaddcc(D, A, B);
      case KIaddX: return kb.iaddx(D, A, B);
      case KIaddXCC: return kb.iaddx(D, A, B); // .CC patched in.
      case KIaddCCI: return kb.iaddcci(D, A, op.imm);
      case KIaddXI: return kb.iaddxi(D, A, op.imm);
      case KLopPassB: return kb.lop(LogicOp::PassB, D, A, B);
      case KLopI: return kb.lopi(kLogics[op.sel], D, A, op.imm);
      case KFlo: return kb.flo(D, A);
      case KIsetp: return kb.isetp(pd, kCmps[op.sel], A, B, op.sExt);
      case KIsetpI:
        return kb.isetpi(pd, kCmps[op.sel], A, op.imm, op.sExt);
      case KPsetp:
        return kb.psetp(pd, kLogics[op.sel], static_cast<PredId>(op.ps),
                        op.psNeg, static_cast<PredId>(op.pb), op.pbNeg);
      case KP2r: return kb.p2r(D, op.imm);
      case KR2p: return kb.r2p(A, op.imm);
      case KFmul: return kb.fmul(D, 6, 7);
      case KFmnmx: return kb.fmnmx(D, A, 7, op.sel != 0);
      case KFsetp: return kb.fsetp(pd, kCmps[op.sel], A, 7);
      case KMufu: return kb.mufu(kMufus[op.sel], D, A);
      case KF2i: return kb.f2i(D, A);
      case KS2r: return kb.s2r(D, kSregs[op.sel]);
      case KL2g: return kb.l2g(D, A);
      default: return kb.nop();
    }
}

/** Operand facts the builder has no parameter for. */
void
patch(Instruction &ins, const Op &op)
{
    switch (op.kind) {
      case KIaddXCC:
        ins.setCC = true;
        break;
      case KIsetp: case KIsetpI: case KFsetp:
        ins.pSrc = static_cast<PredId>(op.ps);
        ins.pSrcNeg = op.psNeg;
        break;
      default:
        break;
    }
}

/** Initial value of R10..R15 for one thread. */
uint32_t
seedValue(uint32_t global, int reg)
{
    return static_cast<uint32_t>(
               global * (static_cast<uint64_t>(reg) * 2654435761u % 977)) +
           static_cast<uint32_t>(reg) * 17;
}

/**
 * Kernel: R4 = global thread index; seed R10..R15 from it; for the
 * guarded variant, P0/P1 from its low bits; run the program; store
 * R10..R15 and a P2R of every predicate plus CC.
 */
ir::Kernel
buildKernel(const std::vector<Op> &ops, bool guarded)
{
    KernelBuilder kb("alu");
    kb.setLocalBytes(kLocalBytes);
    kb.s2r(16, SpecialReg::TidX);
    kb.s2r(17, SpecialReg::TidY);
    kb.s2r(18, SpecialReg::TidZ);
    kb.imadi(16, 17, kBlock.x, 16);
    kb.imadi(16, 18, kBlock.x * kBlock.y, 16);
    kb.s2r(17, SpecialReg::CtaIdX);
    kb.s2r(18, SpecialReg::CtaIdY);
    kb.imadi(17, 18, kGrid.x, 17);
    kb.imadi(4, 17, static_cast<int64_t>(kBlock.count()), 16);
    for (int r = 10; r <= 15; ++r) {
        kb.imuli(static_cast<RegId>(r), 4,
                 static_cast<int64_t>(r) * 2654435761u % 977);
        kb.iaddi(static_cast<RegId>(r), static_cast<RegId>(r), r * 17);
    }
    if (guarded) {
        kb.lopi(LogicOp::And, 6, 4, 1);
        kb.isetpi(0, CmpOp::NE, 6, 0, false);
        kb.lopi(LogicOp::And, 6, 4, 6);
        kb.isetpi(1, CmpOp::GT, 6, 2, false);
    }
    std::vector<int> idx;
    for (const Op &op : ops)
        idx.push_back(emitOp(kb, op));
    kb.p2r(5, 0xff);
    kb.ldc(8, 0, 8);
    kb.imuli(6, 4, kOutWords * 4);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    for (int r = 10; r <= 15; ++r)
        kb.stg(8, (r - 10) * 4, static_cast<RegId>(r));
    kb.stg(8, 24, 5);
    kb.exit();
    ir::Kernel k = kb.finish();
    for (size_t i = 0; i < ops.size(); ++i)
        patch(k.code[static_cast<size_t>(idx[i])], ops[i]);
    return k;
}

/** Host-model output words of one thread. */
std::array<uint32_t, kOutWords>
hostOutput(const std::vector<Op> &ops, bool guarded, uint32_t global)
{
    HostState s;
    for (int reg = 10; reg <= 15; ++reg)
        s.r[reg] = seedValue(global, reg);
    if (guarded) {
        s.p[0] = (global & 1) != 0;
        s.p[1] = (global & 6) > 2;
    }
    const ThreadPos pos = threadPos(global);
    for (const Op &op : ops)
        evalHost(op, s, pos);
    std::array<uint32_t, kOutWords> out{};
    for (int reg = 10; reg <= 15; ++reg)
        out[static_cast<size_t>(reg - 10)] = s.r[reg];
    uint32_t bits = s.cc ? 0x80u : 0u;
    for (int p = 0; p < NumPred; ++p)
        bits |= (s.p[p] ? 1u : 0u) << p;
    out[6] = bits;
    return out;
}

std::string
describe(const Op &op)
{
    return "kind " + std::to_string(op.kind) + " R" +
           std::to_string(op.d) + " R" + std::to_string(op.a) + " R" +
           std::to_string(op.b) + " imm " + std::to_string(op.imm) +
           " sel " + std::to_string(op.sel) + " guard " +
           std::to_string(op.guard) + (op.guardNeg ? "!" : "");
}

void
checkRandomPrograms(uint64_t seed, bool guarded)
{
    Rng rng(seed * 7919 + 11);
    const uint32_t n = static_cast<uint32_t>(kGrid.count() * kBlock.count());
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<Op> ops;
        int len = static_cast<int>(rng.nextRange(5, 40));
        for (int i = 0; i < len; ++i)
            ops.push_back(randomOp(rng, guarded));
        const ir::Kernel kernel = buildKernel(ops, guarded);

        std::vector<std::array<uint32_t, kOutWords>> want(n);
        for (uint32_t g = 0; g < n; ++g)
            want[g] = hostOutput(ops, guarded, g);

        for (ExecMode mode : kExecModes) {
            ir::Module mod;
            mod.kernels.push_back(kernel);
            Device dev;
            dev.loadModule(std::move(mod));
            uint64_t dout = dev.malloc(n * kOutWords * 4);
            KernelArgs args;
            args.addU64(dout);
            LaunchOptions opts;
            opts.exec = mode;
            LaunchResult res = dev.launch("alu", kGrid, kBlock, args, opts);
            ASSERT_TRUE(res.ok())
                << execModeName(mode) << ": " << res.message;

            std::vector<uint32_t> got(n * kOutWords);
            dev.memcpyDtoH(got.data(), dout, got.size() * 4);
            int mismatches = 0;
            for (uint32_t g = 0; g < n && mismatches < 4; ++g) {
                for (uint32_t w = 0; w < kOutWords; ++w) {
                    if (got[g * kOutWords + w] == want[g][w])
                        continue;
                    ++mismatches;
                    std::string prog;
                    for (const Op &op : ops)
                        prog += "\n  " + describe(op);
                    ADD_FAILURE()
                        << execModeName(mode) << " trial " << trial
                        << " thread " << g << " word " << w
                        << ": got 0x" << std::hex
                        << got[g * kOutWords + w] << " want 0x"
                        << want[g][w] << std::dec << prog;
                    break;
                }
            }
        }
    }
}

class AluProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(AluProperty, RandomProgramsMatchHostReference)
{
    checkRandomPrograms(static_cast<uint64_t>(GetParam()), false);
}

TEST_P(AluProperty, GuardedProgramsMatchHostReference)
{
    // Per-lane guards keep every op off the superblock path, so this
    // pins the per-instruction path at partial exec masks.
    checkRandomPrograms(static_cast<uint64_t>(GetParam()) + 1000, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AluProperty, ::testing::Range(0, 6));

TEST(AluPropertyClock, ClockReadsTheLiveIssueCount)
{
    // %clock reads the executing worker's warp-instruction count,
    // this issue included. A kernel that reads it forms no
    // superblocks, so on one worker the warps of each CTA interleave
    // one instruction per round: warp w's instruction i of CTA c
    // (L instructions per warp, W warps) is issue number
    // c*W*L + i*W + w + 1.
    KernelBuilder kb("clk");
    kb.s2r(16, SpecialReg::TidX);
    kb.s2r(17, SpecialReg::CtaIdX);
    kb.imadi(4, 17, 64, 16);
    kb.s2r(10, SpecialReg::Clock); // pc 3.
    kb.ldc(8, 0, 8);
    kb.imuli(6, 4, 4);
    kb.iaddcc(8, 8, 6);
    kb.iaddx(9, 9, RZ);
    kb.stg(8, 0, 10);
    kb.exit();
    const ir::Kernel kernel = kb.finish();
    const uint64_t L = kernel.code.size(), W = 2, ctas = 3;

    for (ExecMode mode : kExecModes) {
        ir::Module mod;
        mod.kernels.push_back(kernel);
        Device dev;
        dev.loadModule(std::move(mod));
        uint64_t dout = dev.malloc(ctas * 64 * 4);
        KernelArgs args;
        args.addU64(dout);
        LaunchOptions opts;
        opts.numThreads = 1;
        opts.exec = mode;
        LaunchResult res =
            dev.launch("clk", Dim3(ctas), Dim3(64), args, opts);
        ASSERT_TRUE(res.ok())
            << execModeName(mode) << ": " << res.message;
        for (uint64_t c = 0; c < ctas; ++c) {
            for (uint64_t t = 0; t < 64; ++t) {
                const uint64_t w = t / WarpSize;
                EXPECT_EQ(dev.read<uint32_t>(dout + (c * 64 + t) * 4),
                          c * W * L + 3 * W + w + 1)
                    << execModeName(mode) << " cta " << c << " thread "
                    << t;
            }
        }
    }
}

} // namespace
