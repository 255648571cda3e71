//===- support/simd/Kernels.cpp - Bit-set word kernels --------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/simd/Kernels.h"

#include "support/Metrics.h"

#include <bit>

#ifdef CABLE_KERNELS_HAVE_AVX2
#include <immintrin.h>
#endif

using namespace cable;
using namespace cable::simd;

//===----------------------------------------------------------------------===//
// Portable kernels — four words per iteration.
//===----------------------------------------------------------------------===//

namespace {

/// Dst[i] = Op(Dst[i], Src[i]) for all i.
template <typename WordOp>
void zipInto(uint64_t *Dst, const uint64_t *Src, size_t N, WordOp Op) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    Dst[I + 0] = Op(Dst[I + 0], Src[I + 0]);
    Dst[I + 1] = Op(Dst[I + 1], Src[I + 1]);
    Dst[I + 2] = Op(Dst[I + 2], Src[I + 2]);
    Dst[I + 3] = Op(Dst[I + 3], Src[I + 3]);
  }
  for (; I < N; ++I)
    Dst[I] = Op(Dst[I], Src[I]);
}

/// True iff Op(A[i], B[i]) != 0 for some i, with TailMask applied to the
/// final word.
template <typename WordOp>
bool anyWord(const uint64_t *A, const uint64_t *B, size_t N,
             uint64_t TailMask, WordOp Op) {
  if (N == 0)
    return false;
  size_t Full = N - 1;
  size_t I = 0;
  for (; I + 4 <= Full; I += 4)
    if ((Op(A[I + 0], B[I + 0]) | Op(A[I + 1], B[I + 1]) |
         Op(A[I + 2], B[I + 2]) | Op(A[I + 3], B[I + 3])) != 0)
      return true;
  for (; I < Full; ++I)
    if (Op(A[I], B[I]) != 0)
      return true;
  return (Op(A[Full], B[Full]) & TailMask) != 0;
}

constexpr auto WordAnd = [](uint64_t X, uint64_t Y) { return X & Y; };
constexpr auto WordAndNot = [](uint64_t X, uint64_t Y) { return X & ~Y; };

} // namespace

void cable::simd::andInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  zipInto(Dst, Src, N, WordAnd);
}

void cable::simd::orInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  zipInto(Dst, Src, N, [](uint64_t X, uint64_t Y) { return X | Y; });
}

void cable::simd::xorInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  zipInto(Dst, Src, N, [](uint64_t X, uint64_t Y) { return X ^ Y; });
}

void cable::simd::andNotInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  zipInto(Dst, Src, N, WordAndNot);
}

bool cable::simd::isSubsetOf(const uint64_t *A, const uint64_t *B, size_t N,
                             uint64_t TailMask) {
  return !anyWord(A, B, N, TailMask, WordAndNot);
}

bool cable::simd::intersects(const uint64_t *A, const uint64_t *B, size_t N,
                             uint64_t TailMask) {
  return anyWord(A, B, N, TailMask, WordAnd);
}

size_t cable::simd::popcount(const uint64_t *A, size_t N, uint64_t TailMask) {
  if (N == 0)
    return 0;
  size_t Full = N - 1;
  size_t C0 = 0, C1 = 0, C2 = 0, C3 = 0;
  size_t I = 0;
  for (; I + 4 <= Full; I += 4) {
    C0 += static_cast<size_t>(std::popcount(A[I + 0]));
    C1 += static_cast<size_t>(std::popcount(A[I + 1]));
    C2 += static_cast<size_t>(std::popcount(A[I + 2]));
    C3 += static_cast<size_t>(std::popcount(A[I + 3]));
  }
  for (; I < Full; ++I)
    C0 += static_cast<size_t>(std::popcount(A[I]));
  return C0 + C1 + C2 + C3 +
         static_cast<size_t>(std::popcount(A[Full] & TailMask));
}

void cable::simd::andManyInto(uint64_t *Dst, const uint64_t *const *Srcs,
                              size_t K, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    uint64_t W0 = Dst[I + 0], W1 = Dst[I + 1];
    uint64_t W2 = Dst[I + 2], W3 = Dst[I + 3];
    for (size_t S = 0; S < K; ++S) {
      const uint64_t *Row = Srcs[S] + I;
      W0 &= Row[0];
      W1 &= Row[1];
      W2 &= Row[2];
      W3 &= Row[3];
    }
    Dst[I + 0] = W0;
    Dst[I + 1] = W1;
    Dst[I + 2] = W2;
    Dst[I + 3] = W3;
  }
  for (; I < N; ++I) {
    uint64_t W = Dst[I];
    for (size_t S = 0; S < K; ++S)
      W &= Srcs[S][I];
    Dst[I] = W;
  }
}

#ifdef CABLE_KERNELS_HAVE_AVX2

//===----------------------------------------------------------------------===//
// AVX2 fused AND — the one kernel whose vector form pays end to end (tau
// over ~16-word object columns). Entered only after the CPUID check in
// andManyKernel(). Loads and stores are unaligned: BitVector words live in
// std::vector storage with no alignment promise.
//===----------------------------------------------------------------------===//

static __attribute__((target("avx2"))) __m256i loadu(const uint64_t *P) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(P));
}

static __attribute__((target("avx2"))) void storeu(uint64_t *P, __m256i V) {
  _mm256_storeu_si256(reinterpret_cast<__m256i *>(P), V);
}

__attribute__((target("avx2"))) void
cable::simd::detail::andManyIntoAVX2(uint64_t *Dst,
                                     const uint64_t *const *Srcs, size_t K,
                                     size_t N) {
  size_t I = 0;
  // 16-word (128-byte) blocks: four ymm accumulators stay resident while
  // every selected row streams through.
  for (; I + 16 <= N; I += 16) {
    __m256i W0 = loadu(Dst + I + 0);
    __m256i W1 = loadu(Dst + I + 4);
    __m256i W2 = loadu(Dst + I + 8);
    __m256i W3 = loadu(Dst + I + 12);
    for (size_t S = 0; S < K; ++S) {
      const uint64_t *Row = Srcs[S] + I;
      W0 = _mm256_and_si256(W0, loadu(Row + 0));
      W1 = _mm256_and_si256(W1, loadu(Row + 4));
      W2 = _mm256_and_si256(W2, loadu(Row + 8));
      W3 = _mm256_and_si256(W3, loadu(Row + 12));
    }
    storeu(Dst + I + 0, W0);
    storeu(Dst + I + 4, W1);
    storeu(Dst + I + 8, W2);
    storeu(Dst + I + 12, W3);
  }
  for (; I + 4 <= N; I += 4) {
    __m256i W = loadu(Dst + I);
    for (size_t S = 0; S < K; ++S)
      W = _mm256_and_si256(W, loadu(Srcs[S] + I));
    storeu(Dst + I, W);
  }
  for (; I < N; ++I) {
    uint64_t W = Dst[I];
    for (size_t S = 0; S < K; ++S)
      W &= Srcs[S][I];
    Dst[I] = W;
  }
}

#endif // CABLE_KERNELS_HAVE_AVX2

// The fused closure walk and the fused-AND form it runs.
namespace {

Metrics::Counter &FusedAndCalls = Metrics::counter("kernels.fused-and-calls");
Metrics::Counter &FusedAndWords = Metrics::counter("kernels.fused-and-words");

using AndManyFn = decltype(&andManyInto);

/// The AVX2 fused AND when the CPU has it, else the portable one; decided
/// once per process.
AndManyFn andManyKernel() {
#ifdef CABLE_KERNELS_HAVE_AVX2
  static const AndManyFn Fn =
      __builtin_cpu_supports("avx2") ? detail::andManyIntoAVX2 : andManyInto;
  return Fn;
#else
  return andManyInto;
#endif
}

} // namespace

void cable::simd::andSelectInto(uint64_t *Dst, const uint64_t *Arena,
                                size_t Stride, const uint64_t *Sel,
                                size_t SelWords, size_t NumWords) {
  // Narrow accumulators (≤ 4 words — contexts up to 256 attributes or
  // objects, the paper's regime) stay in registers: fold each selected row
  // directly, with no batching and no indirect call.
  if (NumWords <= 4) {
    uint64_t Acc[4] = {0, 0, 0, 0};
    for (size_t I = 0; I < NumWords; ++I)
      Acc[I] = Dst[I];
    uint64_t TotalRows = 0;
    for (size_t W = 0; W < SelWords; ++W) {
      uint64_t Bits = Sel[W];
      const uint64_t *Base = Arena + W * 64 * Stride;
      while (Bits != 0) {
        const uint64_t *Row =
            Base + static_cast<size_t>(std::countr_zero(Bits)) * Stride;
        Bits &= Bits - 1;
        ++TotalRows;
        for (size_t I = 0; I < NumWords; ++I)
          Acc[I] &= Row[I];
      }
    }
    for (size_t I = 0; I < NumWords; ++I)
      Dst[I] = Acc[I];
    FusedAndCalls.add();
    FusedAndWords.add(TotalRows * NumWords);
    return;
  }

  // Gather selected rows in batches so the fused AND touches the Dst block
  // once per batch. 8 operands keeps the working set (8 rows + Dst) well
  // inside L1 for block-sized chunks and the pointer array in registers.
  constexpr size_t BatchMax = 8;
  const uint64_t *Batch[BatchMax];
  size_t K = 0;
  uint64_t TotalRows = 0;
  const AndManyFn AndMany = andManyKernel();
  for (size_t W = 0; W < SelWords; ++W) {
    uint64_t Bits = Sel[W];
    while (Bits != 0) {
      size_t P = W * 64 + static_cast<size_t>(std::countr_zero(Bits));
      Bits &= Bits - 1;
      Batch[K++] = Arena + P * Stride;
      ++TotalRows;
      if (K == BatchMax) {
        AndMany(Dst, Batch, K, NumWords);
        K = 0;
      }
    }
  }
  if (K != 0)
    AndMany(Dst, Batch, K, NumWords);
  FusedAndCalls.add();
  FusedAndWords.add(TotalRows * NumWords);
}
