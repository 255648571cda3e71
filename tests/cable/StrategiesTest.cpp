//===- tests/cable/StrategiesTest.cpp --------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "cable/Strategies.h"

#include "../TestHelpers.h"
#include "StrategiesReference.h"
#include "fa/Templates.h"
#include "support/Metrics.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

using namespace cable;
using cable::test::compileFA;
using cable::test::parseTraces;

namespace {

/// A session where traces containing `bad_op` are erroneous — cleanly
/// separable by the unordered lattice.
struct SeparableFixture {
  std::unique_ptr<Session> S;
  ReferenceLabeling Target;

  SeparableFixture() {
    TraceSet Traces = parseTraces("open(v0) close(v0)\n"
                                  "open(v0) read(v0) close(v0)\n"
                                  "open(v0) write(v0) close(v0)\n"
                                  "open(v0) read(v0) write(v0) close(v0)\n"
                                  "open(v0) bad_op(v0) close(v0)\n"
                                  "open(v0) read(v0) bad_op(v0) close(v0)\n");
    Automaton Ref =
        makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
    S = std::make_unique<Session>(std::move(Traces), std::move(Ref));
    std::vector<std::string> Names;
    for (size_t Obj = 0; Obj < S->numObjects(); ++Obj) {
      bool Bad = false;
      for (EventId E : S->object(Obj).events())
        if (S->table().nameText(S->table().event(E).Name) == "bad_op")
          Bad = true;
      Names.push_back(Bad ? "bad" : "good");
    }
    Target = makeReferenceLabeling(*S, Names);
  }
};

void expectMatchesTarget(const Session &S, const ReferenceLabeling &Target) {
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj) {
    ASSERT_TRUE(S.labelOf(Obj).has_value()) << "object " << Obj;
    EXPECT_EQ(*S.labelOf(Obj), Target.Target[Obj]) << "object " << Obj;
  }
}

} // namespace

TEST(StrategiesTest, TopDownFinishesAndMatchesTarget) {
  SeparableFixture F;
  TopDownStrategy TD;
  StrategyCost Cost = TD.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  EXPECT_GT(Cost.Inspections, 0u);
  EXPECT_GT(Cost.LabelOps, 0u);
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, BottomUpFinishesAndMatchesTarget) {
  SeparableFixture F;
  BottomUpStrategy BU;
  StrategyCost Cost = BU.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, RandomFinishesAndMatchesTarget) {
  SeparableFixture F;
  RandomStrategy R(RNG{17});
  StrategyCost Cost = R.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, ExpertFinishesAndMatchesTarget) {
  SeparableFixture F;
  ExpertSimStrategy E;
  StrategyCost Cost = E.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, OptimalFinishesAndMatchesTarget) {
  SeparableFixture F;
  OptimalStrategy O;
  StrategyCost Cost = O.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  EXPECT_EQ(Cost.Inspections, Cost.LabelOps)
      << "optimal never inspects without labeling";
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, BaselineCostsTwoPerClass) {
  SeparableFixture F;
  BaselineMethod B;
  StrategyCost Cost = B.run(*F.S, F.Target);
  EXPECT_TRUE(Cost.Finished);
  EXPECT_EQ(Cost.total(), 2 * F.S->numObjects());
  expectMatchesTarget(*F.S, F.Target);
}

TEST(StrategiesTest, OptimalIsNoWorseThanOtherStrategies) {
  SeparableFixture F;
  OptimalStrategy O;
  size_t OptCost = O.run(*F.S, F.Target).total();
  TopDownStrategy TD;
  EXPECT_LE(OptCost, TD.run(*F.S, F.Target).total());
  BottomUpStrategy BU;
  EXPECT_LE(OptCost, BU.run(*F.S, F.Target).total());
  ExpertSimStrategy E;
  EXPECT_LE(OptCost, E.run(*F.S, F.Target).total());
  RandomStrategy R(RNG{3});
  EXPECT_LE(OptCost, R.run(*F.S, F.Target).total());
}

TEST(StrategiesTest, OptimalLowerBoundTwoMovesHere) {
  // Two labels exist, so at least two label commands (and two
  // inspections) are needed; with a perfect lattice that's also enough.
  SeparableFixture F;
  OptimalStrategy O;
  StrategyCost Cost = O.run(*F.S, F.Target);
  EXPECT_GE(Cost.total(), 4u);
}

TEST(StrategiesTest, IllFormedLatticeReportedUnfinished) {
  // §4.3 parity example: no strategy can finish.
  TraceSet Traces = parseTraces("foo\nfoo foo\nfoo foo foo\n");
  Automaton Ref = compileFA("foo*", Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  std::vector<std::string> Names;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Names.push_back(S.object(Obj).size() % 2 == 0 ? "good" : "bad");
  ReferenceLabeling Target = makeReferenceLabeling(S, Names);

  TopDownStrategy TD;
  EXPECT_FALSE(TD.run(S, Target).Finished);
  BottomUpStrategy BU;
  EXPECT_FALSE(BU.run(S, Target).Finished);
  RandomStrategy R(RNG{5});
  EXPECT_FALSE(R.run(S, Target).Finished);
  ExpertSimStrategy E;
  EXPECT_FALSE(E.run(S, Target).Finished);
  OptimalStrategy O;
  EXPECT_FALSE(O.run(S, Target).Finished);
}

TEST(StrategiesTest, SingleLabelSessionCostsOneVisit) {
  TraceSet Traces = parseTraces("a\nb\na b\n");
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  ReferenceLabeling Target = makeReferenceLabeling(
      S, std::vector<std::string>(S.numObjects(), "good"));
  OptimalStrategy O;
  StrategyCost Cost = O.run(S, Target);
  EXPECT_TRUE(Cost.Finished);
  EXPECT_EQ(Cost.total(), 2u) << "label everything at the top concept";
  TopDownStrategy TD;
  StrategyCost TDCost = TD.run(S, Target);
  EXPECT_TRUE(TDCost.Finished);
  EXPECT_EQ(TDCost.total(), 2u) << "top-down labels at the top immediately";
}

TEST(StrategiesTest, RandomMeanIsAveraged) {
  SeparableFixture F;
  RandomSummary Summary = measureRandomMean(*F.S, F.Target, 32, 99);
  EXPECT_TRUE(Summary.Finished);
  // The mean sits between the optimal cost and a generous upper bound.
  OptimalStrategy O;
  double Opt = static_cast<double>(O.run(*F.S, F.Target).total());
  EXPECT_GE(Summary.MeanTotal, Opt);
  EXPECT_LE(Summary.MeanTotal,
            static_cast<double>(8 * F.S->lattice().size()));
}

TEST(StrategiesTest, MeasureRandomMeanIsDeterministicPerSeed) {
  SeparableFixture F;
  RandomSummary A = measureRandomMean(*F.S, F.Target, 16, 7);
  RandomSummary B = measureRandomMean(*F.S, F.Target, 16, 7);
  EXPECT_EQ(A.MeanTotal, B.MeanTotal);
}

TEST(StrategiesTest, OptimalStateCapReportsUnfinished) {
  SeparableFixture F;
  OptimalStrategy Tiny(/*StateCap=*/1);
  StrategyCost Cost = Tiny.run(*F.S, F.Target);
  EXPECT_FALSE(Cost.Finished)
      << "a 1-state cap must abort like the paper's tool on large specs";
}

TEST(StrategiesTest, HandLabelFallbackMatchesTopDownWhenWellFormed) {
  SeparableFixture F;
  HandLabelFallbackStrategy HL;
  StrategyCost HLCost = HL.run(*F.S, F.Target);
  ASSERT_TRUE(HLCost.Finished);
  expectMatchesTarget(*F.S, F.Target);
  TopDownStrategy TD;
  StrategyCost TDCost = TD.run(*F.S, F.Target);
  ASSERT_TRUE(TDCost.Finished);
  EXPECT_EQ(HLCost.total(), TDCost.total());
}

TEST(StrategiesTest, HandLabelFallbackFinishesIllFormedLattices) {
  TraceSet Traces = parseTraces("foo\nfoo foo\nfoo foo foo\n");
  Automaton Ref = compileFA("foo*", Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  std::vector<std::string> Names;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Names.push_back(S.object(Obj).size() % 2 == 0 ? "good" : "bad");
  ReferenceLabeling Target = makeReferenceLabeling(S, Names);

  TopDownStrategy TD;
  StrategyCost Stalled = TD.run(S, Target);
  ASSERT_FALSE(Stalled.Finished);
  size_t LeftOver = S.unlabeledObjects().count();

  HandLabelFallbackStrategy HL;
  StrategyCost Cost = HL.run(S, Target);
  ASSERT_TRUE(Cost.Finished);
  EXPECT_EQ(Cost.total(), Stalled.total() + 2 * LeftOver);
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    EXPECT_EQ(*S.labelOf(Obj), Target.Target[Obj]);
}

TEST(StrategiesTest, RandomizedTopDownStillFinishes) {
  SeparableFixture F;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    TopDownStrategy TD{RNG(Seed)};
    StrategyCost Cost = TD.run(*F.S, F.Target);
    EXPECT_TRUE(Cost.Finished);
    expectMatchesTarget(*F.S, F.Target);
  }
}

TEST(StrategiesTest, RandomizedBottomUpStillFinishes) {
  SeparableFixture F;
  for (uint64_t Seed : {1u, 2u, 3u}) {
    BottomUpStrategy BU{RNG(Seed)};
    StrategyCost Cost = BU.run(*F.S, F.Target);
    EXPECT_TRUE(Cost.Finished);
    expectMatchesTarget(*F.S, F.Target);
  }
}

TEST(StrategiesTest, MeasureLowestCostTakesTheMinimum) {
  SeparableFixture F;
  LowestSummary Low = measureLowestCost(
      *F.S, F.Target, 32, 5, [](RNG Rand) -> std::unique_ptr<Strategy> {
        return std::make_unique<TopDownStrategy>(Rand);
      });
  ASSERT_TRUE(Low.Finished);
  // Bounded below by Optimal.
  OptimalStrategy O;
  StrategyCost Opt = O.run(*F.S, F.Target);
  ASSERT_TRUE(Opt.Finished);
  EXPECT_GE(Low.LowestTotal, Opt.total());
  // And it really is the minimum of the trials: replaying the same seeded
  // fork stream by hand gives the same number.
  RNG Root(5);
  size_t Expected = static_cast<size_t>(-1);
  for (int Trial = 0; Trial < 32; ++Trial) {
    TopDownStrategy TD{Root.fork()};
    StrategyCost Cost = TD.run(*F.S, F.Target);
    ASSERT_TRUE(Cost.Finished);
    Expected = std::min(Expected, Cost.total());
  }
  EXPECT_EQ(Low.LowestTotal, Expected);
}

TEST(StrategiesTest, MeasureLowestCostUnfinishedOnIllFormed) {
  TraceSet Traces = parseTraces("foo\nfoo foo\nfoo foo foo\n");
  Automaton Ref = compileFA("foo*", Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  std::vector<std::string> Names;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
    Names.push_back(S.object(Obj).size() % 2 == 0 ? "good" : "bad");
  ReferenceLabeling Target = makeReferenceLabeling(S, Names);
  LowestSummary Low = measureLowestCost(
      S, Target, 4, 5, [](RNG Rand) -> std::unique_ptr<Strategy> {
        return std::make_unique<BottomUpStrategy>(Rand);
      });
  EXPECT_FALSE(Low.Finished);
}

TEST(StrategiesTest, LedgerTicksOncePerRun) {
  SeparableFixture F;
  bool WasEnabled = Metrics::enabled();
  Metrics::setEnabled(true);
  auto Value = [](const char *Name) { return Metrics::counterValue(Name); };
  uint64_t Calls = Value("strategy.calls");
  uint64_t Inspections = Value("strategy.inspections");
  uint64_t LabelOps = Value("strategy.label-ops");
  uint64_t States = Value("strategy.optimal-states-inserted");

  StrategyCost TD = TopDownStrategy().run(*F.S, F.Target);
  StrategyCost Opt = OptimalStrategy().run(*F.S, F.Target);
  EXPECT_EQ(Value("strategy.calls") - Calls, 2u);
  EXPECT_EQ(Value("strategy.inspections") - Inspections,
            TD.Inspections + Opt.Inspections);
  EXPECT_EQ(Value("strategy.label-ops") - LabelOps,
            TD.LabelOps + Opt.LabelOps);
  EXPECT_GT(Value("strategy.optimal-states-inserted"), States);
  Metrics::setEnabled(WasEnabled);
}

/// Property: on random separable sessions every strategy agrees with the
/// target labeling and optimal is minimal.
class StrategyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StrategyPropertyTest, AllStrategiesAgreeOnSeparableSessions) {
  RNG Rand(GetParam());
  cable::test::LabeledSession LS = cable::test::makeSeparableSession(Rand);
  Session &S = *LS.S;
  const ReferenceLabeling &Target = LS.Target;
  ASSERT_TRUE(checkWellFormed(S, Target).LatticeWellFormed);

  OptimalStrategy O;
  StrategyCost Opt = O.run(S, Target);
  ASSERT_TRUE(Opt.Finished);

  std::vector<std::unique_ptr<Strategy>> Others;
  Others.push_back(std::make_unique<TopDownStrategy>());
  Others.push_back(std::make_unique<BottomUpStrategy>());
  Others.push_back(std::make_unique<ExpertSimStrategy>());
  Others.push_back(std::make_unique<RandomStrategy>(RNG{GetParam() * 31}));
  Others.push_back(std::make_unique<BaselineMethod>());
  for (auto &Strat : Others) {
    StrategyCost Cost = Strat->run(S, Target);
    EXPECT_TRUE(Cost.Finished) << Strat->name();
    EXPECT_LE(Opt.total(), Cost.total())
        << Strat->name() << " beat Optimal, which is impossible";
    for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
      EXPECT_EQ(*S.labelOf(Obj), Target.Target[Obj]) << Strat->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyPropertyTest,
                         ::testing::Range<uint64_t>(0, 25));
