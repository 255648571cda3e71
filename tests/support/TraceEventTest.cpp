//===- tests/support/TraceEventTest.cpp - Tracing span tests ---------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <gtest/gtest.h>

#include <thread>

using namespace cable;

namespace {

/// Arms tracing for one test and restores the disarmed default.
class TraceEventTest : public ::testing::Test {
protected:
  void SetUp() override {
    TraceLog::reset();
    TraceLog::setEnabled(true);
  }
  void TearDown() override {
    TraceLog::setEnabled(false);
    TraceLog::setRingCapacity(65536);
    TraceLog::reset();
  }
};

TEST_F(TraceEventTest, DisarmedSpansRecordNothing) {
  TraceLog::setEnabled(false);
  uint64_t Before = TraceLog::spanCount();
  { TraceSpan Span("should-not-appear"); }
  EXPECT_EQ(TraceLog::spanCount(), Before);
}

TEST_F(TraceEventTest, ExportIsValidChromeTraceJson) {
  TraceLog::setThreadName("test-main");
  { TraceSpan Span("outer-span", 42); }
  std::string Json = TraceLog::exportJson("trace-test");
  std::string Error;
  EXPECT_TRUE(validateJson(Json, Error)) << Error << "\n" << Json;
  // The object form chrome://tracing and Perfetto accept.
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"otherData\""), std::string::npos);
  EXPECT_NE(Json.find("\"outer-span\""), std::string::npos);
  // The integer argument is exported as args.n.
  EXPECT_NE(Json.find("\"n\": 42"), std::string::npos) << Json;
  // Thread-name metadata event.
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(Json.find("\"test-main\""), std::string::npos);
}

TEST_F(TraceEventTest, NestedSpansBothRecorded) {
  uint64_t Before = TraceLog::spanCount();
  {
    TraceSpan Outer("nest-outer");
    { TraceSpan Inner("nest-inner"); }
  }
  EXPECT_EQ(TraceLog::spanCount(), Before + 2);
  std::string Json = TraceLog::exportJson("trace-test");
  // Completion order: the inner span closes (and is recorded) first.
  size_t InnerAt = Json.find("\"nest-inner\"");
  size_t OuterAt = Json.find("\"nest-outer\"");
  ASSERT_NE(InnerAt, std::string::npos);
  ASSERT_NE(OuterAt, std::string::npos);
  EXPECT_LT(InnerAt, OuterAt);
}

TEST_F(TraceEventTest, RingWraparoundCountsDropped) {
  TraceLog::setRingCapacity(4);
  uint64_t SpansBefore = TraceLog::spanCount();
  uint64_t DroppedBefore = TraceLog::droppedCount();
  // Capacity changes apply to rings created after the call, so record
  // from a fresh thread.
  std::thread Recorder([] {
    for (int I = 0; I < 10; ++I)
      TraceSpan Span("wrap-span");
  });
  Recorder.join();
  EXPECT_EQ(TraceLog::spanCount() - SpansBefore, 10u);
  EXPECT_EQ(TraceLog::droppedCount() - DroppedBefore, 6u);
  // The export still holds the newest 4 and stays valid JSON.
  std::string Json = TraceLog::exportJson("trace-test");
  std::string Error;
  EXPECT_TRUE(validateJson(Json, Error)) << Error;
  EXPECT_NE(Json.find("\"wrap-span\""), std::string::npos);
}

TEST_F(TraceEventTest, SpansFromWorkerThreadsGetDistinctTids) {
  { TraceSpan Span("main-span"); }
  std::thread Worker([] {
    TraceLog::setThreadName("worker-thread");
    TraceSpan Span("worker-span");
  });
  Worker.join();
  std::string Json = TraceLog::exportJson("trace-test");
  EXPECT_NE(Json.find("\"main-span\""), std::string::npos);
  EXPECT_NE(Json.find("\"worker-span\""), std::string::npos);
  EXPECT_NE(Json.find("\"worker-thread\""), std::string::npos);
}

TEST_F(TraceEventTest, RingWraparoundTicksSpansDroppedCounter) {
  Metrics::reset();
  Metrics::setEnabled(true);
  TraceLog::setRingCapacity(4);
  std::thread Recorder([] {
    for (int I = 0; I < 10; ++I)
      TraceSpan Span("drop-counter-span");
  });
  Recorder.join();
  EXPECT_EQ(Metrics::counterValue("trace.spans-dropped"), 6u);
  Metrics::setEnabled(false);
  Metrics::reset();
}

} // namespace
