//===- support/simd/Kernels.cpp - Vectorized bit-set kernels --------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/simd/Kernels.h"

#include "support/Metrics.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>

#ifdef CABLE_KERNELS_HAVE_NEON
#include <arm_neon.h>
#endif

using namespace cable;
using namespace cable::simd;

//===----------------------------------------------------------------------===//
// Scalar level — the reference every other level is tested against.
//===----------------------------------------------------------------------===//

namespace {

void scalarAndInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Dst[I] &= Src[I];
}

void scalarOrInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Dst[I] |= Src[I];
}

void scalarXorInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Dst[I] ^= Src[I];
}

void scalarAndNotInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  for (size_t I = 0; I < N; ++I)
    Dst[I] &= ~Src[I];
}

bool scalarIsSubsetOf(const uint64_t *A, const uint64_t *B, size_t N,
                      uint64_t TailMask) {
  if (N == 0)
    return true;
  for (size_t I = 0; I + 1 < N; ++I)
    if ((A[I] & ~B[I]) != 0)
      return false;
  return ((A[N - 1] & ~B[N - 1]) & TailMask) == 0;
}

bool scalarIntersects(const uint64_t *A, const uint64_t *B, size_t N,
                      uint64_t TailMask) {
  if (N == 0)
    return false;
  for (size_t I = 0; I + 1 < N; ++I)
    if ((A[I] & B[I]) != 0)
      return true;
  return ((A[N - 1] & B[N - 1]) & TailMask) != 0;
}

size_t scalarPopcount(const uint64_t *A, size_t N, uint64_t TailMask) {
  if (N == 0)
    return 0;
  size_t Count = 0;
  for (size_t I = 0; I + 1 < N; ++I)
    Count += static_cast<size_t>(std::popcount(A[I]));
  return Count + static_cast<size_t>(std::popcount(A[N - 1] & TailMask));
}

void scalarAndManyInto(uint64_t *Dst, const uint64_t *const *Srcs, size_t K,
                       size_t N) {
  for (size_t I = 0; I < N; ++I) {
    uint64_t W = Dst[I];
    for (size_t S = 0; S < K; ++S)
      W &= Srcs[S][I];
    Dst[I] = W;
  }
}

//===----------------------------------------------------------------------===//
// Unrolled level — four words per iteration.
//===----------------------------------------------------------------------===//

void unrolledAndInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    Dst[I + 0] &= Src[I + 0];
    Dst[I + 1] &= Src[I + 1];
    Dst[I + 2] &= Src[I + 2];
    Dst[I + 3] &= Src[I + 3];
  }
  for (; I < N; ++I)
    Dst[I] &= Src[I];
}

void unrolledOrInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    Dst[I + 0] |= Src[I + 0];
    Dst[I + 1] |= Src[I + 1];
    Dst[I + 2] |= Src[I + 2];
    Dst[I + 3] |= Src[I + 3];
  }
  for (; I < N; ++I)
    Dst[I] |= Src[I];
}

void unrolledXorInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    Dst[I + 0] ^= Src[I + 0];
    Dst[I + 1] ^= Src[I + 1];
    Dst[I + 2] ^= Src[I + 2];
    Dst[I + 3] ^= Src[I + 3];
  }
  for (; I < N; ++I)
    Dst[I] ^= Src[I];
}

void unrolledAndNotInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    Dst[I + 0] &= ~Src[I + 0];
    Dst[I + 1] &= ~Src[I + 1];
    Dst[I + 2] &= ~Src[I + 2];
    Dst[I + 3] &= ~Src[I + 3];
  }
  for (; I < N; ++I)
    Dst[I] &= ~Src[I];
}

bool unrolledIsSubsetOf(const uint64_t *A, const uint64_t *B, size_t N,
                        uint64_t TailMask) {
  if (N == 0)
    return true;
  size_t Full = N - 1;
  size_t I = 0;
  for (; I + 4 <= Full; I += 4) {
    uint64_t Acc = (A[I + 0] & ~B[I + 0]) | (A[I + 1] & ~B[I + 1]) |
                   (A[I + 2] & ~B[I + 2]) | (A[I + 3] & ~B[I + 3]);
    if (Acc != 0)
      return false;
  }
  for (; I < Full; ++I)
    if ((A[I] & ~B[I]) != 0)
      return false;
  return ((A[Full] & ~B[Full]) & TailMask) == 0;
}

bool unrolledIntersects(const uint64_t *A, const uint64_t *B, size_t N,
                        uint64_t TailMask) {
  if (N == 0)
    return false;
  size_t Full = N - 1;
  size_t I = 0;
  for (; I + 4 <= Full; I += 4) {
    uint64_t Acc = (A[I + 0] & B[I + 0]) | (A[I + 1] & B[I + 1]) |
                   (A[I + 2] & B[I + 2]) | (A[I + 3] & B[I + 3]);
    if (Acc != 0)
      return true;
  }
  for (; I < Full; ++I)
    if ((A[I] & B[I]) != 0)
      return true;
  return ((A[Full] & B[Full]) & TailMask) != 0;
}

size_t unrolledPopcount(const uint64_t *A, size_t N, uint64_t TailMask) {
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

void unrolledAndManyInto(uint64_t *Dst, const uint64_t *const *Srcs, size_t K,
                         size_t N) {
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

#ifdef CABLE_KERNELS_HAVE_NEON

//===----------------------------------------------------------------------===//
// NEON level (aarch64) — 128-bit lanes, two per iteration.
//===----------------------------------------------------------------------===//

void neonAndInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    vst1q_u64(Dst + I, vandq_u64(vld1q_u64(Dst + I), vld1q_u64(Src + I)));
    vst1q_u64(Dst + I + 2,
              vandq_u64(vld1q_u64(Dst + I + 2), vld1q_u64(Src + I + 2)));
  }
  for (; I < N; ++I)
    Dst[I] &= Src[I];
}

void neonOrInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    vst1q_u64(Dst + I, vorrq_u64(vld1q_u64(Dst + I), vld1q_u64(Src + I)));
    vst1q_u64(Dst + I + 2,
              vorrq_u64(vld1q_u64(Dst + I + 2), vld1q_u64(Src + I + 2)));
  }
  for (; I < N; ++I)
    Dst[I] |= Src[I];
}

void neonXorInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    vst1q_u64(Dst + I, veorq_u64(vld1q_u64(Dst + I), vld1q_u64(Src + I)));
    vst1q_u64(Dst + I + 2,
              veorq_u64(vld1q_u64(Dst + I + 2), vld1q_u64(Src + I + 2)));
  }
  for (; I < N; ++I)
    Dst[I] ^= Src[I];
}

void neonAndNotInto(uint64_t *Dst, const uint64_t *Src, size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    vst1q_u64(Dst + I, vbicq_u64(vld1q_u64(Dst + I), vld1q_u64(Src + I)));
    vst1q_u64(Dst + I + 2,
              vbicq_u64(vld1q_u64(Dst + I + 2), vld1q_u64(Src + I + 2)));
  }
  for (; I < N; ++I)
    Dst[I] &= ~Src[I];
}

void neonAndManyInto(uint64_t *Dst, const uint64_t *const *Srcs, size_t K,
                     size_t N) {
  size_t I = 0;
  for (; I + 4 <= N; I += 4) {
    uint64x2_t W0 = vld1q_u64(Dst + I);
    uint64x2_t W1 = vld1q_u64(Dst + I + 2);
    for (size_t S = 0; S < K; ++S) {
      const uint64_t *Row = Srcs[S] + I;
      W0 = vandq_u64(W0, vld1q_u64(Row));
      W1 = vandq_u64(W1, vld1q_u64(Row + 2));
    }
    vst1q_u64(Dst + I, W0);
    vst1q_u64(Dst + I + 2, W1);
  }
  for (; I < N; ++I) {
    uint64_t W = Dst[I];
    for (size_t S = 0; S < K; ++S)
      W &= Srcs[S][I];
    Dst[I] = W;
  }
}

#endif // CABLE_KERNELS_HAVE_NEON

} // namespace

const KernelOps &detail::scalarOps() {
  static const KernelOps Ops = {
      "scalar",         scalarAndInto,   scalarOrInto,
      scalarXorInto,    scalarAndNotInto, scalarIsSubsetOf,
      scalarIntersects, scalarPopcount,  scalarAndManyInto,
  };
  return Ops;
}

const KernelOps &detail::unrolledOps() {
  static const KernelOps Ops = {
      "unrolled",         unrolledAndInto,   unrolledOrInto,
      unrolledXorInto,    unrolledAndNotInto, unrolledIsSubsetOf,
      unrolledIntersects, unrolledPopcount,  unrolledAndManyInto,
  };
  return Ops;
}

#ifdef CABLE_KERNELS_HAVE_NEON
const KernelOps &detail::neonOps() {
  // Subset / intersects / popcount reuse the unrolled forms: on aarch64
  // the win is in the streaming AND family, and the scalar CNT paths are
  // already one instruction per word.
  static const KernelOps Ops = {
      "neon",             neonAndInto,      neonOrInto,
      neonXorInto,        neonAndNotInto,   unrolledIsSubsetOf,
      unrolledIntersects, unrolledPopcount, neonAndManyInto,
  };
  return Ops;
}
#endif

//===----------------------------------------------------------------------===//
// Dispatch.
//===----------------------------------------------------------------------===//

namespace {

Metrics::Gauge &DispatchLevel = Metrics::gauge("kernels.dispatch-level");
Metrics::Counter &FusedAndCalls = Metrics::counter("kernels.fused-and-calls");
Metrics::Counter &FusedAndWords = Metrics::counter("kernels.fused-and-words");

const KernelOps *tableFor(Level L) {
  switch (L) {
  case Level::Scalar:
    return &detail::scalarOps();
  case Level::Unrolled:
    return &detail::unrolledOps();
  case Level::Vector:
#if defined(CABLE_KERNELS_HAVE_AVX2)
    return &detail::avx2Ops();
#elif defined(CABLE_KERNELS_HAVE_NEON)
    return &detail::neonOps();
#else
    return &detail::unrolledOps();
#endif
  }
  return &detail::scalarOps();
}

Level hardwareMaxLevel() {
#if defined(CABLE_KERNELS_HAVE_AVX2)
  return __builtin_cpu_supports("avx2") ? Level::Vector : Level::Unrolled;
#elif defined(CABLE_KERNELS_HAVE_NEON)
  return Level::Vector; // NEON is baseline on aarch64.
#else
  return Level::Unrolled;
#endif
}

Level clampToSupported(Level L) {
  return static_cast<int>(L) <= static_cast<int>(hardwareMaxLevel())
             ? L
             : hardwareMaxLevel();
}

/// Resolves the startup level: CABLE_KERNEL if set and recognized
/// (clamped to what the build + CPU supports), else the best available.
Level resolveStartupLevel() {
  if (const char *Env = std::getenv("CABLE_KERNEL"))
    if (std::optional<Level> L = parseLevel(Env))
      return clampToSupported(*L);
  return hardwareMaxLevel();
}

/// The active table. Lazily initialized with a CAS so concurrent first
/// uses (threads racing into their first closure) are safe; the
/// steady-state cost is one acquire load.
std::atomic<const KernelOps *> ActiveOps{nullptr};
std::atomic<int> ActiveLevelValue{-1};

const KernelOps *initialize() {
  // Concurrent first uses all resolve the same level (env + CPUID are
  // stable for the process lifetime), so racing plain atomic stores of
  // identical values is benign. Level is published before the table so a
  // reader that sees the table never sees a stale level.
  Level L = resolveStartupLevel();
  ActiveLevelValue.store(static_cast<int>(L), std::memory_order_release);
  DispatchLevel.set(static_cast<int64_t>(L));
  const KernelOps *Table = tableFor(L);
  ActiveOps.store(Table, std::memory_order_release);
  return Table;
}

} // namespace

const KernelOps &cable::simd::ops() {
  const KernelOps *Table = ActiveOps.load(std::memory_order_acquire);
  if (Table == nullptr)
    Table = initialize();
  return *Table;
}

Level cable::simd::activeLevel() {
  ops(); // Ensure resolved.
  return static_cast<Level>(ActiveLevelValue.load(std::memory_order_acquire));
}

Level cable::simd::maxSupportedLevel() { return hardwareMaxLevel(); }

const char *cable::simd::levelName(Level L) { return tableFor(L)->Name; }

std::optional<Level> cable::simd::parseLevel(std::string_view Name) {
  if (Name == "scalar")
    return Level::Scalar;
  if (Name == "unrolled")
    return Level::Unrolled;
  if (Name == "avx2" || Name == "neon" || Name == "vector")
    return Level::Vector;
  return std::nullopt;
}

void cable::simd::forceLevel(Level L) {
  // Same publish order as initialize(): level before table, so a reader
  // that sees the new table never sees a stale level.
  Level Clamped = clampToSupported(L);
  ActiveLevelValue.store(static_cast<int>(Clamped), std::memory_order_release);
  DispatchLevel.set(static_cast<int64_t>(Clamped));
  ActiveOps.store(tableFor(Clamped), std::memory_order_release);
}

void cable::simd::resetLevel() { forceLevel(resolveStartupLevel()); }

//===----------------------------------------------------------------------===//
// Fused closure driver.
//===----------------------------------------------------------------------===//

void cable::simd::andSelectInto(uint64_t *Dst, const uint64_t *Arena,
                                size_t Stride, const uint64_t *Sel,
                                size_t SelWords, size_t NumWords) {
  // Narrow accumulators (≤ 4 words — contexts up to 256 attributes or
  // objects) stay entirely in registers: fold each selected row directly,
  // with no batching, no pointer gathering, and no indirect calls. This
  // is the regime of the paper's workloads and of the closure-throughput
  // targets, where the batching machinery would cost more than the ANDs.
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

  // Gather selected rows in batches so AndManyInto touches the Dst block
  // once per batch. 8 operands keeps the working set (8 rows + Dst) well
  // inside L1 for block-sized chunks and the pointer array in registers.
  constexpr size_t BatchMax = 8;
  const uint64_t *Batch[BatchMax];
  size_t K = 0;
  uint64_t TotalRows = 0;
  const KernelOps &O = ops();
  for (size_t W = 0; W < SelWords; ++W) {
    uint64_t Bits = Sel[W];
    while (Bits != 0) {
      size_t P = W * 64 + static_cast<size_t>(std::countr_zero(Bits));
      Bits &= Bits - 1;
      Batch[K++] = Arena + P * Stride;
      ++TotalRows;
      if (K == BatchMax) {
        O.AndManyInto(Dst, Batch, K, NumWords);
        K = 0;
      }
    }
  }
  if (K != 0)
    O.AndManyInto(Dst, Batch, K, NumWords);
  FusedAndCalls.add();
  FusedAndWords.add(TotalRows * NumWords);
}
