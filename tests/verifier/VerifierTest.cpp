//===- tests/verifier/VerifierTest.cpp -------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "verifier/Verifier.h"

#include "../TestHelpers.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"

#include <gtest/gtest.h>

using namespace cable;
using cable::test::compileFA;
using cable::test::parseTraces;

TEST(VerifierTest, PartitionsScenariosByAcceptance) {
  TraceSet Scenarios = parseTraces("a(v0) b(v0)\n"
                                   "a(v0) c(v0)\n"
                                   "a(v0) b(v0)\n");
  Automaton Spec = compileFA("a(v0) b(v0)", Scenarios.table());
  VerificationResult R = verifyScenarios(Scenarios, Spec);
  EXPECT_EQ(R.NumScenarios, 3u);
  EXPECT_EQ(R.Accepted.size(), 2u);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].render(R.Violations.table()), "a(v0) c(v0)");
}

TEST(VerifierTest, AgainstRunsExtractsThenChecks) {
  TraceSet Runs = parseTraces(
      "fopen(v1) fclose(v1) popen(v2) pclose(v2) popen(v3) fclose(v3)\n");
  Automaton Buggy = compileFA(
      "[fopen(v0) | popen(v0)] [fread(v0) | fwrite(v0)]* fclose(v0)",
      Runs.table());
  ExtractorOptions Extract;
  Extract.SeedNames = {"fopen", "popen"};
  VerificationResult R = verifyAgainstRuns(Runs, Buggy, Extract);
  EXPECT_EQ(R.NumScenarios, 3u);
  // The buggy spec rejects the *correct* popen/pclose scenario and accepts
  // the wrong popen/fclose one — exactly the §2.1 situation.
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].render(R.Violations.table()),
            "popen(v0) pclose(v0)");
  EXPECT_EQ(R.Accepted.size(), 2u);
}

TEST(VerifierTest, CorrectSpecYieldsOnlyTrueErrors) {
  // Against the *correct* spec, the violation set is exactly the oracle's
  // bad set.
  ProtocolModel Model = stdioProtocol();
  EventTable Table;
  WorkloadGenerator Gen(Model, Table);
  RNG Rand(5);
  TraceSet Runs = Gen.generateRuns(Rand);
  Oracle Truth(Model, Table);

  ExtractorOptions Extract;
  Extract.SeedNames = Model.Seeds;
  VerificationResult R =
      verifyAgainstRuns(Runs, Truth.correctFA(), Extract);
  EXPECT_GT(R.NumScenarios, 0u);
  for (const Trace &T : R.Violations.traces())
    EXPECT_FALSE(Truth.isCorrect(T, R.Violations.table()));
  for (const Trace &T : R.Accepted.traces())
    EXPECT_TRUE(Truth.isCorrect(T, R.Accepted.table()));
}

TEST(VerifierTest, EmptyRunsEmptyResult) {
  TraceSet Runs;
  EventTable T;
  Automaton Spec = compileFA("a", T);
  ExtractorOptions Extract;
  Extract.SeedNames = {"a"};
  VerificationResult R = verifyAgainstRuns(Runs, Spec, Extract);
  EXPECT_EQ(R.NumScenarios, 0u);
  EXPECT_TRUE(R.Violations.empty());
  EXPECT_TRUE(R.Accepted.empty());
}

TEST(VerifierTest, BudgetTruncationChecksOnlyAPrefix) {
  TraceSet Scenarios = parseTraces("a(v0) b(v0)\n"
                                   "a(v0) c(v0)\n"
                                   "b(v0) b(v0)\n"
                                   "a(v0) b(v0) c(v0)\n");
  Automaton Spec = compileFA("a(v0) b(v0)", Scenarios.table());
  Budget B;
  B.TimeLimit = std::chrono::milliseconds(0); // Already expired.
  BudgetMeter Meter(B);
  VerificationResult R = verifyScenarios(Scenarios, Spec, Meter);
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(R.CheckStatus.code(), ErrorCode::ResourceExhausted);
  EXPECT_EQ(R.NumScenarios, 0u);

  // An unlimited meter checks everything and reports no truncation.
  BudgetMeter Unlimited{Budget{}};
  VerificationResult Full = verifyScenarios(Scenarios, Spec, Unlimited);
  EXPECT_FALSE(Full.Truncated);
  EXPECT_TRUE(Full.CheckStatus.isOk());
  EXPECT_EQ(Full.NumScenarios, 4u);
}
