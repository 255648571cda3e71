//===- tests/learner/CoringTest.cpp ----------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "learner/Coring.h"
#include "learner/KTails.h"
#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include "../TestHelpers.h"

#include <gtest/gtest.h>

using namespace cable;
using cable::test::makeTrace;
using cable::test::parseTraces;

TEST(CoringTest, ZeroThresholdKeepsEverything) {
  TraceSet TS = parseTraces("a b\na c\n");
  CountedAutomaton PTA = CountedAutomaton::buildPTA(TS.traces());
  Automaton FA = coreAutomaton(PTA, TS.table(), 0.0);
  for (const Trace &T : TS.traces())
    EXPECT_TRUE(FA.accepts(T, TS.table()));
}

TEST(CoringTest, DropsLowFrequencyBranch) {
  // 9 good traces, 1 erroneous one; coring at 20% drops the rare branch.
  TraceSet TS = parseTraces("open close\nopen close\nopen close\n"
                            "open close\nopen close\nopen close\n"
                            "open close\nopen close\nopen close\n"
                            "open leak\n");
  CountedAutomaton PTA = CountedAutomaton::buildPTA(TS.traces());
  Automaton FA = coreAutomaton(PTA, TS.table(), 0.2);
  EXPECT_TRUE(FA.accepts(makeTrace(TS.table(), "open close"), TS.table()));
  EXPECT_FALSE(FA.accepts(makeTrace(TS.table(), "open leak"), TS.table()));
}

TEST(CoringTest, CannotSeparateFrequentErrors) {
  // The paper's point (§6): when buggy traces are frequent, coring either
  // keeps them or also drops valid behavior — Cable exists because of
  // this. 4 good vs 4 bad: no threshold separates them.
  TraceSet TS = parseTraces("open close\nopen close\nopen close\nopen close\n"
                            "open leak\nopen leak\nopen leak\nopen leak\n");
  CountedAutomaton PTA = CountedAutomaton::buildPTA(TS.traces());
  for (double Threshold : {0.1, 0.3, 0.6, 0.9}) {
    Automaton FA = coreAutomaton(PTA, TS.table(), Threshold);
    bool KeepsGood =
        FA.accepts(makeTrace(TS.table(), "open close"), TS.table());
    bool KeepsBad = FA.accepts(makeTrace(TS.table(), "open leak"), TS.table());
    EXPECT_EQ(KeepsGood, KeepsBad)
        << "equal-frequency branches must share their fate at threshold "
        << Threshold;
  }
}

TEST(CoringTest, FullThresholdKeepsOnlyDominantPath) {
  TraceSet TS = parseTraces("a\na\na\nb\n");
  CountedAutomaton PTA = CountedAutomaton::buildPTA(TS.traces());
  Automaton FA = coreAutomaton(PTA, TS.table(), 0.5);
  EXPECT_TRUE(FA.accepts(makeTrace(TS.table(), "a"), TS.table()));
  EXPECT_FALSE(FA.accepts(makeTrace(TS.table(), "b"), TS.table()));
}

TEST(CoringTest, KTailsAndCoringTickOncePerCall) {
  TraceSet TS = parseTraces("open close\nopen close\nopen leak\n");
  bool WasEnabled = Metrics::enabled();
  Metrics::setEnabled(true);
  TraceLog::reset();
  TraceLog::setEnabled(true);
  auto Value = [](const char *Name) { return Metrics::counterValue(Name); };
  uint64_t KTails = Value("learner.ktails-calls");
  uint64_t Coring = Value("learner.coring-calls");

  CountedAutomaton CA = learnKTails(TS.traces(), 1);
  EXPECT_EQ(Value("learner.ktails-calls") - KTails, 1u);
  EXPECT_EQ(Value("learner.coring-calls") - Coring, 0u);
  coreAutomaton(CA, TS.table(), 0.5);
  coreAutomaton(CA, TS.table(), 0.0);
  EXPECT_EQ(Value("learner.ktails-calls") - KTails, 1u);
  EXPECT_EQ(Value("learner.coring-calls") - Coring, 2u);

  // One span per call; the k-tails span carries the trace count.
  EXPECT_EQ(TraceLog::spanCount(), 3u);
  std::string Json = TraceLog::exportJson("coring-test");
  EXPECT_NE(Json.find("\"ktails-learn\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"n\": 3"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"coring\""), std::string::npos) << Json;
  TraceLog::setEnabled(false);
  TraceLog::reset();
  Metrics::setEnabled(WasEnabled);
}
