//===- tests/support/MetricsTest.cpp - Metrics registry tests --------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
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

TEST_F(MetricsTest, CrashIndexReadsExactValues) {
  // The flight recorder's signal handler reads the cells through the crash
  // index while the program writes them with plain loads and stores.
  Metrics::Counter &C = Metrics::counter("test.crash-index-counter");
  Metrics::Gauge &G = Metrics::gauge("test.crash-index-gauge");
  Metrics::Histogram &H = Metrics::histogram("test.crash-index-histogram");
  C.add(3);
  C.add(4);
  G.set(5);
  G.addHighWater(6);
  G.add(-8);
  H.record(2);
  H.record(40);
  H.record(0);
  std::vector<Metrics::CrashEntry> Entries(4096);
  size_t N = Metrics::crashIndexRead(Entries.data(), Entries.size());
  auto Find = [&](const char *Name) -> const Metrics::CrashEntry * {
    for (size_t I = 0; I < N; ++I)
      if (std::strcmp(Entries[I].Name, Name) == 0)
        return &Entries[I];
    return nullptr;
  };
  const Metrics::CrashEntry *CE = Find("test.crash-index-counter");
  ASSERT_NE(CE, nullptr);
  EXPECT_EQ(CE->K, Metrics::Sample::KindCounter);
  EXPECT_EQ(CE->Count, 7u);
  const Metrics::CrashEntry *GE = Find("test.crash-index-gauge");
  ASSERT_NE(GE, nullptr);
  EXPECT_EQ(GE->K, Metrics::Sample::KindGauge);
  EXPECT_EQ(GE->Value, 3);
  EXPECT_EQ(GE->High, 11);
  const Metrics::CrashEntry *HE = Find("test.crash-index-histogram");
  ASSERT_NE(HE, nullptr);
  EXPECT_EQ(HE->K, Metrics::Sample::KindHistogram);
  EXPECT_EQ(HE->Count, 3u);
  EXPECT_EQ(HE->Sum, 42u);
  EXPECT_EQ(HE->Max, 40u);
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
