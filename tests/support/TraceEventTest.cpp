//===- tests/support/TraceEventTest.cpp - Tracing span tests ---------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The recorder is single-threaded (support/TraceEvent.h), so every test here
// records on the test's own thread.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <gtest/gtest.h>

#include <cctype>

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
  // Thread-name metadata event: the one recording thread is "main".
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(Json.find("\"main\""), std::string::npos);
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
  for (int I = 0; I < 10; ++I)
    TraceSpan Span("wrap-span", I);
  EXPECT_EQ(TraceLog::spanCount(), 10u);
  EXPECT_EQ(TraceLog::droppedCount(), 6u);
  // The export holds the newest 4, oldest first, and stays valid JSON.
  std::string Json = TraceLog::exportJson("trace-test");
  std::string Error;
  EXPECT_TRUE(validateJson(Json, Error)) << Error;
  EXPECT_EQ(Json.find("\"n\": 5"), std::string::npos) << Json;
  size_t At = 0;
  for (int I = 6; I < 10; ++I) {
    size_t Next = Json.find("\"n\": " + std::to_string(I), At);
    ASSERT_NE(Next, std::string::npos) << I << "\n" << Json;
    At = Next;
  }
}

TEST_F(TraceEventTest, EverySpanHasTidOne) {
  {
    TraceSpan Outer("tid-outer");
    TraceSpan Inner("tid-inner");
  }
  { TraceSpan Later("tid-later"); }
  std::string Json = TraceLog::exportJson("trace-test");
  // Three spans plus the thread_name metadata event, all on tid 1.
  size_t Tids = 0;
  for (size_t At = Json.find("\"tid\": "); At != std::string::npos;
       At = Json.find("\"tid\": ", At + 1)) {
    ++Tids;
    EXPECT_EQ(Json.compare(At, 8, "\"tid\": 1"), 0) << Json;
    EXPECT_FALSE(std::isdigit(static_cast<unsigned char>(Json[At + 8])))
        << Json;
  }
  EXPECT_EQ(Tids, 4u) << Json;
}

TEST_F(TraceEventTest, RingWraparoundTicksSpansDroppedCounter) {
  Metrics::reset();
  Metrics::setEnabled(true);
  TraceLog::setRingCapacity(4);
  for (int I = 0; I < 10; ++I)
    TraceSpan Span("drop-counter-span");
  EXPECT_EQ(Metrics::counterValue("trace.spans-dropped"), 6u);
  Metrics::setEnabled(false);
  Metrics::reset();
}

} // namespace
