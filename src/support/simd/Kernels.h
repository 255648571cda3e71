//===- support/simd/Kernels.h - Bit-set word kernels ------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Word kernels for the set-algebra inner loops of concept analysis. Every
/// lattice builder bottoms out in BitVector intersection / subset /
/// popcount over the traces×transitions context, and BitVector calls these
/// portable kernels (unrolled four words per iteration) directly.
///
/// The one kernel with a vector form is the fused multi-operand AND behind
/// andSelectInto: on x86-64 CPUs that report AVX2 it runs in 256-bit lanes,
/// chosen once per process from CPUID. Both forms compute identical words,
/// so lattices never depend on the CPU.
///
/// Kernels neither allocate nor know about universe sizes; all counts are
/// in 64-bit words. Read kernels apply a TailMask to the final word so a
/// dirty tail (bits past size()) can never leak into a verdict; mutating
/// kernels rely on BitVector re-clearing the tail after every operation.
///
/// andSelectInto intersects into an accumulator every row of a packed
/// row-major arena whose index is set in a selector. Context stores both
/// orientations of the incidence matrix as such arenas, so sigma and tau
/// are each one andSelectInto walking contiguous cache lines.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_SIMD_KERNELS_H
#define CABLE_SUPPORT_SIMD_KERNELS_H

#include <cstddef>
#include <cstdint>

// The AVX2 fused AND is compiled by per-function target attribute, so the
// rest of the binary keeps the baseline x86-64 ISA.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CABLE_KERNELS_HAVE_AVX2 1
#endif

namespace cable::simd {

/// Dst[i] &= Src[i].
void andInto(uint64_t *Dst, const uint64_t *Src, size_t NumWords);
/// Dst[i] |= Src[i].
void orInto(uint64_t *Dst, const uint64_t *Src, size_t NumWords);
/// Dst[i] ^= Src[i].
void xorInto(uint64_t *Dst, const uint64_t *Src, size_t NumWords);
/// Dst[i] &= ~Src[i].
void andNotInto(uint64_t *Dst, const uint64_t *Src, size_t NumWords);
/// True iff (A[i] & ~B[i]) == 0 for all i, with TailMask applied to the
/// final word of both operands.
bool isSubsetOf(const uint64_t *A, const uint64_t *B, size_t NumWords,
                uint64_t TailMask);
/// True iff (A[i] & B[i]) != 0 for some i, with TailMask applied to the
/// final word of both operands.
bool intersects(const uint64_t *A, const uint64_t *B, size_t NumWords,
                uint64_t TailMask);
/// Total set bits, with TailMask applied to the final word.
size_t popcount(const uint64_t *A, size_t NumWords, uint64_t TailMask);
/// Dst[i] &= Srcs[0][i] & ... & Srcs[K-1][i] in one pass over Dst, blocked
/// so the accumulator stays in registers: the fused AND of closure.
void andManyInto(uint64_t *Dst, const uint64_t *const *Srcs, size_t K,
                 size_t NumWords);

/// Fused closure walk: for every bit p set in the selector, intersect row
/// p of the packed arena into Dst:
///
///   Dst[i] &= Arena[p * Stride + i]   for all selected p, i < NumWords
///
/// The caller presets Dst (setAll for a derivation operator). NumWords <=
/// Stride.
void andSelectInto(uint64_t *Dst, const uint64_t *Arena, size_t Stride,
                   const uint64_t *Sel, size_t SelWords, size_t NumWords);

namespace detail {
#ifdef CABLE_KERNELS_HAVE_AVX2
/// andManyInto in 256-bit lanes. Only callable when the CPU reports AVX2
/// (__builtin_cpu_supports("avx2")); exposed for the differential tests.
void andManyIntoAVX2(uint64_t *Dst, const uint64_t *const *Srcs, size_t K,
                     size_t NumWords);
#endif
} // namespace detail

} // namespace cable::simd

#endif // CABLE_SUPPORT_SIMD_KERNELS_H
