//===- tests/support/KernelDispatchTest.cpp - Dispatch thread safety ------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Lives in the cable_concurrency_tests binary so the TSan lane proves the
// kernel dispatch singleton is race-free: many threads hitting ops() as
// their first-ever use (the lazy-init path) and then hammering kernels
// concurrently must produce correct results and no data-race reports.
//
//===----------------------------------------------------------------------===//

#include "support/BitVector.h"
#include "support/simd/Kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

using namespace cable;

namespace {

/// Runs \p Fn(I) for I in [0, N), each on its own thread, all at once.
void onThreads(size_t N, const std::function<void(size_t)> &Fn) {
  std::vector<std::thread> Threads;
  Threads.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Threads.emplace_back(Fn, I);
  for (std::thread &T : Threads)
    T.join();
}

} // namespace

TEST(KernelDispatchConcurrencyTest, ConcurrentFirstUseResolvesOneTable) {
  // ops() may already be resolved by an earlier test; the point is that
  // concurrent loads all observe the same table and level.
  std::vector<const simd::KernelOps *> Seen(8, nullptr);
  onThreads(Seen.size(), [&](size_t I) { Seen[I] = &simd::ops(); });
  for (const simd::KernelOps *P : Seen)
    EXPECT_EQ(P, Seen[0]);
  EXPECT_STREQ(Seen[0]->Name, simd::levelName(simd::activeLevel()));
}

TEST(KernelDispatchConcurrencyTest, ConcurrentKernelCallsAreRaceFree) {
  // Each thread owns its operands (kernels share only the immutable
  // dispatch table); a race here is a dispatch bug, not a data bug.
  std::atomic<size_t> TotalBits{0};
  onThreads(8, [&](size_t I) {
    BitVector A(600), B(600);
    for (size_t J = I; J < 600; J += 3)
      A.set(J);
    for (size_t J = 0; J < 600; J += 2)
      B.set(J);
    A &= B;
    ASSERT_TRUE(A.isSubsetOf(B));
    TotalBits.fetch_add(A.count(), std::memory_order_relaxed);
  });
  EXPECT_GT(TotalBits.load(), 0u);
}

TEST(KernelDispatchConcurrencyTest, ForcedLevelVisibleToWorkers) {
  simd::ForcedLevelGuard Guard(simd::Level::Scalar);
  std::vector<int> Levels(4, -1);
  onThreads(Levels.size(), [&](size_t I) {
    Levels[I] = static_cast<int>(simd::activeLevel());
  });
  for (int L : Levels)
    EXPECT_EQ(L, static_cast<int>(simd::Level::Scalar));
}
