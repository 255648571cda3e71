//===- tests/support/MetricsTest.cpp - Metrics registry tests --------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// This file lives in cable_concurrency_tests so the concurrent-increment
// tests run under -DCABLE_SANITIZE=thread: the registry's contract is a
// lock-free armed hot path with *exact* counts, which TSan verifies has
// no data race rather than a benign one.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

using namespace cable;

namespace {

/// Arms the registry for one test and restores the disarmed default
/// (other tests in this binary assume instrumentation is off).
class MetricsTest : public ::testing::Test {
protected:
  void SetUp() override {
    Metrics::reset();
    Metrics::setEnabled(true);
  }
  void TearDown() override {
    Metrics::setEnabled(false);
    Metrics::reset();
  }
};

TEST_F(MetricsTest, CounterFindOrCreateReturnsSameHandle) {
  Metrics::Counter &A = Metrics::counter("test.same-handle");
  Metrics::Counter &B = Metrics::counter("test.same-handle");
  EXPECT_EQ(&A, &B);
}

TEST_F(MetricsTest, DisarmedMutationsAreDropped) {
  Metrics::setEnabled(false);
  Metrics::Counter &C = Metrics::counter("test.disarmed-counter");
  Metrics::Gauge &G = Metrics::gauge("test.disarmed-gauge");
  Metrics::Histogram &H = Metrics::histogram("test.disarmed-histogram");
  C.add(5);
  G.set(7);
  G.addHighWater(3);
  H.record(11);
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(G.high(), 0);
  EXPECT_EQ(H.count(), 0u);
}

TEST_F(MetricsTest, ConcurrentCounterIncrementsAreExact) {
  constexpr int kThreads = 8;
  constexpr uint64_t PerThread = 50000;
  Metrics::Counter &C = Metrics::counter("test.concurrent-counter");
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&C] {
      for (uint64_t I = 0; I < PerThread; ++I)
        C.add();
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(C.value(), kThreads * PerThread);
}

TEST_F(MetricsTest, ConcurrentHistogramCountsAreExact) {
  constexpr int kThreads = 4;
  constexpr uint64_t PerThread = 20000;
  Metrics::Histogram &H = Metrics::histogram("test.concurrent-histogram");
  std::vector<std::thread> Threads;
  for (int T = 0; T < kThreads; ++T)
    Threads.emplace_back([&H, T] {
      for (uint64_t I = 0; I < PerThread; ++I)
        H.record(static_cast<uint64_t>(T));
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(H.count(), kThreads * PerThread);
  EXPECT_EQ(H.max(), 3u);
  // Values 0..3 land in buckets 0 (v==0), 1 (v==1), 2 (2<=v<4).
  EXPECT_EQ(H.bucketCount(0), PerThread);
  EXPECT_EQ(H.bucketCount(1), PerThread);
  EXPECT_EQ(H.bucketCount(2), 2 * PerThread);
}

TEST_F(MetricsTest, ConcurrentGaugeHighWaterNeverBelowPeak) {
  Metrics::Gauge &G = Metrics::gauge("test.concurrent-gauge");
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&G] {
      for (int I = 0; I < 10000; ++I) {
        G.addHighWater(1);
        G.add(-1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(G.value(), 0);
  EXPECT_GE(G.high(), 1);
  EXPECT_LE(G.high(), 4);
}

TEST_F(MetricsTest, HistogramBucketEdges) {
  using H = Metrics::Histogram;
  EXPECT_EQ(H::bucketIndex(0), 0u);
  EXPECT_EQ(H::bucketIndex(1), 1u);
  EXPECT_EQ(H::bucketIndex(2), 2u);
  EXPECT_EQ(H::bucketIndex(3), 2u);
  EXPECT_EQ(H::bucketIndex(4), 3u);
  EXPECT_EQ(H::bucketIndex(7), 3u);
  EXPECT_EQ(H::bucketIndex(8), 4u);
  // The overflow bucket absorbs everything too large for 2^28.
  EXPECT_EQ(H::bucketIndex(std::numeric_limits<uint64_t>::max()),
            H::kNumBuckets - 1);
  // Edges are inclusive upper bounds: bucketIndex(edge) == that bucket,
  // bucketIndex(edge + 1) == the next one.
  for (size_t I = 1; I + 1 < H::kNumBuckets; ++I) {
    uint64_t Edge = H::bucketUpperEdge(I);
    EXPECT_EQ(H::bucketIndex(Edge), I) << "edge of bucket " << I;
    EXPECT_EQ(H::bucketIndex(Edge + 1), I + 1) << "past edge of bucket " << I;
  }
  EXPECT_EQ(H::bucketUpperEdge(H::kNumBuckets - 1),
            std::numeric_limits<uint64_t>::max());
}

TEST_F(MetricsTest, HistogramQuantilesAreBucketUpperEdges) {
  Metrics::Histogram &H = Metrics::histogram("test.quantile-histogram");
  // 9 values of 1 and a single 1000: p50 resolves to bucket(1)'s edge,
  // p90 must reach the bucket holding 1000 only at higher quantiles.
  for (int I = 0; I < 9; ++I)
    H.record(1);
  H.record(1000);
  EXPECT_EQ(H.quantile(0.5), 1u);
  EXPECT_EQ(H.quantile(0.9), 1u);
  // The estimate is capped at the recorded max, which is tighter than
  // bucket 1000's upper edge (1023).
  EXPECT_EQ(H.quantile(1.0), 1000u);
}

TEST_F(MetricsTest, CounterValueLooksUpByName) {
  Metrics::counter("test.lookup").add(42);
  EXPECT_EQ(Metrics::counterValue("test.lookup"), 42u);
  EXPECT_EQ(Metrics::counterValue("test.never-registered"), 0u);
}

TEST_F(MetricsTest, ResetZeroesButKeepsHandles) {
  Metrics::Counter &C = Metrics::counter("test.reset");
  C.add(9);
  Metrics::reset();
  EXPECT_EQ(C.value(), 0u);
  C.add(1);
  EXPECT_EQ(Metrics::counterValue("test.reset"), 1u);
}

TEST_F(MetricsTest, SnapshotJsonIsValidAndGreppable) {
  Metrics::counter("test.snapshot-counter").add(3);
  Metrics::gauge("test.snapshot-gauge").set(-4);
  Metrics::histogram("test.snapshot-histogram").record(100);
  std::string Json = Metrics::snapshotJson();
  std::string Error;
  EXPECT_TRUE(validateJson(Json, Error)) << Error;
  // The kill-matrix harness greps for this exact `"name": value` shape;
  // changing the spacing breaks shell consumers.
  EXPECT_NE(Json.find("\"test.snapshot-counter\": 3"), std::string::npos)
      << Json;
  EXPECT_NE(Json.find("\"test.snapshot-gauge\""), std::string::npos);
  EXPECT_NE(Json.find("\"test.snapshot-histogram\""), std::string::npos);
}

TEST_F(MetricsTest, RenderTableListsNonEmptyMetrics) {
  Metrics::counter("test.table-counter").add(7);
  std::string Table = Metrics::renderTable();
  EXPECT_NE(Table.find("test.table-counter"), std::string::npos) << Table;
  EXPECT_NE(Table.find("7"), std::string::npos);
}

TEST_F(MetricsTest, MetricTimerRecordsOnlyWhenArmed) {
  Metrics::Histogram &H = Metrics::histogram("test.timer-histogram");
  { MetricTimer T(H); }
  EXPECT_EQ(H.count(), 1u);
  Metrics::setEnabled(false);
  { MetricTimer T(H); }
  EXPECT_EQ(H.count(), 1u);
}

} // namespace
