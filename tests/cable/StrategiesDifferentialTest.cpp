//===- tests/cable/StrategiesDifferentialTest.cpp --------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The fast strategies (bitset label state, incremental candidate and ready
// sets, the arena-backed Optimal search) against the straightforward
// oracle in StrategiesReference: same cost, same Finished flag and same
// final labels for every seed, on the random separable sessions of
// StrategyPropertyTest, on ill-formed sessions and on all 17 protocols.
// On small sessions Optimal's state cap is swept over every value from 1
// to the uncapped state count + 1, so both searches must insert exactly
// the same states in the same order.
//
//===----------------------------------------------------------------------===//

#include "StrategiesReference.h"

#include "../TestHelpers.h"
#include "SessionModel.h"
#include "miner/ScenarioExtractor.h"
#include "support/Metrics.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"
#include "workload/Protocols.h"
#include "workload/ReferenceFA.h"

#include <gtest/gtest.h>

using namespace cable;
using namespace cable::test;

namespace {

std::vector<std::optional<LabelId>> labelsOf(const Session &S) {
  std::vector<std::optional<LabelId>> Out;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Out.push_back(S.labelOf(Obj));
  return Out;
}

/// Runs \p Fast and then \p Reference on the same session and expects the
/// same cost, Finished flag and final labels.
template <typename FastFn, typename RefFn>
void expectSame(Session &S, const char *What, FastFn Fast, RefFn Reference) {
  StrategyCost A = Fast();
  std::vector<std::optional<LabelId>> FastLabels = labelsOf(S);
  StrategyCost B = Reference();
  EXPECT_EQ(A.Inspections, B.Inspections) << What;
  EXPECT_EQ(A.LabelOps, B.LabelOps) << What;
  EXPECT_EQ(A.Finished, B.Finished) << What;
  EXPECT_EQ(FastLabels, labelsOf(S)) << What;
}

/// The states the fast Optimal search inserted, from its ledger counter.
struct StateCounter {
  bool WasEnabled = Metrics::enabled();
  StateCounter() { Metrics::setEnabled(true); }
  ~StateCounter() { Metrics::setEnabled(WasEnabled); }
  uint64_t now() const {
    return Metrics::counterValue("strategy.optimal-states-inserted");
  }
};

/// Every strategy with an oracle, \p Trials seeded orders each.
void compareAll(Session &S, const ReferenceLabeling &Target, uint64_t Seed,
                size_t Trials, size_t StateCap) {
  expectSame(
      S, "top-down", [&] { return TopDownStrategy().run(S, Target); },
      [&] { return referenceTopDown(S, Target); });
  expectSame(
      S, "bottom-up", [&] { return BottomUpStrategy().run(S, Target); },
      [&] { return referenceBottomUp(S, Target); });
  RNG Root(Seed);
  for (size_t Trial = 0; Trial < Trials; ++Trial) {
    SCOPED_TRACE("trial " + std::to_string(Trial));
    RNG Rand = Root.fork();
    expectSame(
        S, "random top-down",
        [&] { return TopDownStrategy(Rand).run(S, Target); },
        [&] { return referenceTopDown(S, Target, Rand); });
    expectSame(
        S, "random bottom-up",
        [&] { return BottomUpStrategy(Rand).run(S, Target); },
        [&] { return referenceBottomUp(S, Target, Rand); });
    expectSame(
        S, "random", [&] { return RandomStrategy(Rand).run(S, Target); },
        [&] { return referenceRandom(S, Target, Rand); });
  }
  StateCounter Counter;
  uint64_t Before = Counter.now();
  size_t RefStates = 0;
  expectSame(
      S, "optimal", [&] { return OptimalStrategy(StateCap).run(S, Target); },
      [&] { return referenceOptimal(S, Target, StateCap, &RefStates); });
  EXPECT_EQ(Counter.now() - Before, RefStates) << "optimal states inserted";
}

/// Sweeps Optimal's cap from 1 to the uncapped state count + 1.
void sweepOptimalCap(Session &S, const ReferenceLabeling &Target) {
  size_t Uncapped = 0;
  referenceOptimal(S, Target, SIZE_MAX, &Uncapped);
  ASSERT_LE(Uncapped, 5000u) << "session too large to sweep";
  StateCounter Counter;
  for (size_t Cap = 1; Cap <= Uncapped + 1; ++Cap) {
    SCOPED_TRACE("cap " + std::to_string(Cap));
    uint64_t Before = Counter.now();
    size_t RefStates = 0;
    expectSame(
        S, "capped optimal",
        [&] { return OptimalStrategy(Cap).run(S, Target); },
        [&] { return referenceOptimal(S, Target, Cap, &RefStates); });
    EXPECT_EQ(Counter.now() - Before, RefStates);
  }
}

/// A random labeling over good/bad/ugly: most lattices are ill-formed for
/// it.
ReferenceLabeling randomLabeling(Session &S, RNG &Rand) {
  const char *Names[] = {"good", "bad", "ugly"};
  std::vector<std::string> Labels;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Labels.push_back(Names[Rand.nextIndex(3)]);
  return makeReferenceLabeling(S, Labels);
}

/// One Table 3 row, built the way bench/table3_labeling_cost builds it.
LabeledSession buildProtocolRow(const ProtocolModel &Model) {
  uint64_t Seed = 0xcbf29ce484222325ULL;
  for (char C : Model.Name) {
    Seed ^= static_cast<unsigned char>(C);
    Seed *= 0x100000001b3ULL;
  }
  RNG Rand(Seed);
  EventTable Table;
  WorkloadGenerator Gen(Model, Table);
  TraceSet Runs = Gen.generateRuns(Rand);
  ExtractorOptions Extract;
  Extract.SeedNames = Model.Seeds;
  Extract.TransitiveValues = true;
  TraceSet Scenarios = extractScenarios(Runs, Extract);
  Automaton Ref =
      makeProtocolReferenceFA(Scenarios.traces(), Scenarios.table(), Model);
  LabeledSession Row;
  Row.S = std::make_unique<Session>(std::move(Scenarios), std::move(Ref));
  Row.Target = Oracle(Model, Row.S->table()).referenceLabeling(*Row.S);
  return Row;
}

} // namespace

class StrategyDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyDifferentialTest, SeparableSessionsMatchTheOracle) {
  RNG Rand(GetParam());
  LabeledSession LS = makeSeparableSession(Rand);
  compareAll(*LS.S, LS.Target, GetParam() * 31, 8, 2'000'000);
  sweepOptimalCap(*LS.S, LS.Target);
}

TEST_P(StrategyDifferentialTest, IllFormedSessionsMatchTheOracle) {
  RNG Rand(GetParam() * 7919 + 1);
  Session S = makeRandomSession(Rand);
  ReferenceLabeling Target = randomLabeling(S, Rand);
  compareAll(S, Target, GetParam(), 8, 2'000'000);
  sweepOptimalCap(S, Target);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyDifferentialTest,
                         ::testing::Range<uint64_t>(0, 25));

TEST(StrategyDifferentialTest, ParityLatticeMatchesTheOracle) {
  // §4.3's example: no strategy can finish.
  TraceSet Traces = parseTraces("foo\nfoo foo\nfoo foo foo\nfoo foo foo foo\n");
  Automaton Ref = compileFA("foo*", Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  std::vector<std::string> Names;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Names.push_back(S.object(Obj).size() % 2 == 0 ? "good" : "bad");
  ReferenceLabeling Target = makeReferenceLabeling(S, Names);
  compareAll(S, Target, 3, 4, 2'000'000);
  sweepOptimalCap(S, Target);
}

class ProtocolDifferentialTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(ProtocolDifferentialTest, ProtocolRowMatchesTheOracle) {
  const ProtocolModel *Model = nullptr;
  for (const ProtocolModel &M : allProtocols())
    if (M.Name == GetParam())
      Model = &M;
  ASSERT_NE(Model, nullptr);
  LabeledSession Row = buildProtocolRow(*Model);
  // A 20k cap keeps the two searches that hit Table 3's 250k cap cheap;
  // every other row finishes well under it.
  compareAll(*Row.S, Row.Target, 0xD1FF, 4, 20'000);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolDifferentialTest,
    ::testing::Values("XGetSelOwner", "XSetSelOwner", "XtOwnSel",
                      "XInternAtom", "PrsTransTbl", "PrsAccelTbl",
                      "RmvTimeOut", "Quarks", "RegionsAlloc", "RegionsBig",
                      "XFreeGC", "XPutImage", "XSetFont", "XtFree",
                      "XOpenDisplay", "XCreatePixmap", "XSaveContext"),
    [](const ::testing::TestParamInfo<const char *> &Info) {
      return std::string(Info.param);
    });
