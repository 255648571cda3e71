//===- tests/integration/PipelineTest.cpp ----------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The Table 1 pipeline as a per-protocol regression test: synthesize runs,
// extract scenarios, cluster against the recommended reference FA, label
// with the simulated expert, re-learn from the good traces, and check the
// debugged specification classifies the whole corpus exactly.
//
//===----------------------------------------------------------------------===//

#include "cable/Session.h"
#include "cable/Strategies.h"
#include "learner/SkStrings.h"
#include "miner/Miner.h"
#include "miner/ScenarioExtractor.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"
#include "workload/ReferenceFA.h"

#include <gtest/gtest.h>

using namespace cable;

class PipelineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineTest, DebuggedSpecIsCorpusExact) {
  ProtocolModel Model = GetParam() == "stdio"
                            ? stdioProtocol()
                            : protocolByName(GetParam());
  EventTable Table;
  WorkloadGenerator Gen(Model, Table);
  RNG Rand(0xE2E ^ std::hash<std::string>{}(Model.Name));
  TraceSet Runs = Gen.generateRuns(Rand);

  ExtractorOptions Extract;
  Extract.SeedNames = Model.Seeds;
  Extract.TransitiveValues = true;
  TraceSet Scenarios = extractScenarios(Runs, Extract);
  ASSERT_GT(Scenarios.size(), 0u);

  Automaton Ref =
      makeProtocolReferenceFA(Scenarios.traces(), Scenarios.table(), Model);
  Session S(std::move(Scenarios), std::move(Ref));
  Oracle Truth(Model, S.table());
  ReferenceLabeling Target = Truth.referenceLabeling(S);

  // The expert must finish (recommended reference FAs keep the lattice
  // well-formed) and must cost no more than the Baseline.
  ExpertSimStrategy Expert;
  StrategyCost Cost = Expert.run(S, Target);
  ASSERT_TRUE(Cost.Finished) << Model.Name;
  EXPECT_LE(Cost.total(), 2 * S.numObjects() + 2) << Model.Name;

  // Re-learn from good traces; the result must accept exactly the good
  // classes of the corpus.
  LabelId Good = S.internLabel("good");
  std::vector<Trace> GoodTraces;
  for (size_t Obj : S.objectsWithLabel(Good))
    GoodTraces.push_back(S.object(Obj));
  ASSERT_FALSE(GoodTraces.empty()) << Model.Name;
  SkStringsOptions Learn;
  Learn.S = 1.0;
  Automaton Debugged = learnSkStringsFA(GoodTraces, S.table(), Learn);

  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj) {
    bool IsGood = *S.labelOf(Obj) == Good;
    EXPECT_EQ(Debugged.accepts(S.object(Obj), S.table()), IsGood)
        << Model.Name << ": " << S.object(Obj).render(S.table());
  }

  // And the expert's labels agree with ground truth everywhere.
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    EXPECT_EQ(*S.labelOf(Obj), Target.Target[Obj]) << Model.Name;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, PipelineTest,
                         ::testing::Values(
                             "XGetSelOwner", "XSetSelOwner", "XtOwnSel",
                             "XInternAtom", "PrsTransTbl", "PrsAccelTbl",
                             "RmvTimeOut", "Quarks", "RegionsAlloc",
                             "RegionsBig", "XFreeGC", "XPutImage", "XSetFont",
                             "XtFree", "XOpenDisplay", "XCreatePixmap",
                             "XSaveContext", "stdio"));
