/**
 * @file
 * Lane-vectorized exec functions for the superblock fast path.
 *
 * The scalar micro-op tier (simt/decode.cc) executes each ALU uop
 * with a per-lane loop; this tier executes the same uop for all 32
 * lanes at once with AVX2 — four 256-bit chunks per operand over
 * the register-major register file, predicates and the exec mask as
 * 32-bit lane bitmasks (simd/simd_vec.h). pickSimdFn() mirrors
 * pickAluFn(): it returns a function with the exact AluFn signature
 * and bit-identical semantics, or null when the op stays on the
 * scalar tier (CC-consuming adds, POPC/FLO, float min/max and
 * conversions with NaN edge cases, lane-id-dependent S2R/L2G).
 *
 * The implementation file is the only translation unit compiled
 * with -mavx2 (gated by the SASSI_SIMD_AVX2 configure check); on
 * hosts without that flag this header still compiles and
 * pickSimdFn() returns null for everything. Whether vector
 * functions are *called* is a launch-time decision
 * (resolveExecConfig, simt/decode.h), so a binary built
 * with AVX2 still runs on machines without it.
 */

#ifndef SASSI_SIMT_SIMD_SIMD_EXEC_H
#define SASSI_SIMT_SIMD_SIMD_EXEC_H

#include "simt/decode.h"

namespace sassi::simt::simd {

/** @return whether this machine can execute the AVX2 tier. */
bool cpuHasAvx2();

/**
 * Select the lane-vectorized exec function for an ALU-class
 * instruction, or null when the op executes on the scalar tier.
 * Only called for instructions pickAluFn() accepted, so operand
 * registers are already proven inside the kernel's budget.
 */
AluFn pickSimdFn(const ir::Kernel &kernel,
                 const sass::Instruction &ins);

} // namespace sassi::simt::simd

#endif // SASSI_SIMT_SIMD_SIMD_EXEC_H
