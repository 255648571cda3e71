//===- tests/concepts/CloseByOneTest.cpp -----------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential suite for the shipped Close-by-One search behind
// NextClosureBuilder: on every input it must emit the concepts of
// NextClosureReference (Ganter's NextClosure, extents by tau) in the same
// order, intent for intent and extent for extent. Inputs: 200 seeded
// random contexts; sparse contexts of 63, 64, 65 and 130 attributes over
// 65, 100 and 130 objects (one- and multi-word intents and extents); the
// contranominal scales up to 12; the degenerate corners; and the session
// context of each of the 17 protocols.
//
// The budget contracts ride on the same oracle: a MaxConcepts cap keeps
// exactly the reference's first `cap` intents and flags Truncated iff the
// lattice is larger, and a contained allocation failure at any of the
// first ten candidates leaves a sound lattice (every node a concept, the
// covers the pairwise scan's) whose nodes are a lectic prefix of the
// reference, plus the bottom when the prefix lacks it.
//
//===----------------------------------------------------------------------===//

#include "concepts/NextClosureBuilder.h"
#include "concepts/NextClosureReference.h"

#include "cable/Session.h"
#include "miner/ScenarioExtractor.h"
#include "support/Failpoint.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Protocols.h"
#include "workload/ReferenceFA.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cable;

namespace {

/// Asserts that \p L's nodes are \p Want, in order.
void expectSameConcepts(const ConceptLattice &L,
                        const std::vector<Concept> &Want,
                        const std::string &What) {
  ASSERT_EQ(L.size(), Want.size()) << What;
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id) {
    ASSERT_TRUE(L.node(Id).Intent == Want[Id].Intent)
        << What << " intent c" << Id;
    ASSERT_TRUE(L.node(Id).Extent == Want[Id].Extent)
        << What << " extent c" << Id;
  }
}

/// Asserts that every entry point of the search emits the reference's
/// concepts in the reference's order.
void expectSearchMatchesReference(const Context &Ctx, const std::string &What) {
  std::vector<Concept> Want = NextClosureReference::concepts(Ctx);
  std::vector<BitVector> Intents = NextClosureBuilder::allClosedIntents(Ctx);
  ASSERT_EQ(Intents.size(), Want.size()) << What;
  for (size_t I = 0; I < Intents.size(); ++I)
    ASSERT_TRUE(Intents[I] == Want[I].Intent) << What << " intent " << I;
  expectSameConcepts(NextClosureBuilder::buildLattice(Ctx), Want, What);
  BudgetMeter Unlimited{Budget{}};
  LatticeBuildResult R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Unlimited);
  EXPECT_FALSE(R.Truncated) << What;
  expectSameConcepts(R.Lattice, Want, What + " (budgeted)");
}

/// Asserts that every cap from 1 to |L| + 1 keeps the reference's first
/// `cap` intents and flags Truncated iff cap < |L|.
void expectCapsKeepLecticPrefixes(const Context &Ctx, const std::string &What) {
  std::vector<BitVector> Want = NextClosureReference::closedIntents(Ctx);
  for (size_t Cap = 1; Cap <= Want.size() + 1; ++Cap) {
    Budget Limits;
    Limits.MaxConcepts = Cap;
    BudgetMeter Meter(Limits);
    LatticeBuildResult R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
    std::string At = What + " cap " + std::to_string(Cap);
    ASSERT_EQ(R.Truncated, Cap < Want.size()) << At;
    size_t Kept = std::min(Cap, Want.size());
    ASSERT_GE(R.Lattice.size(), Kept) << At;
    for (ConceptLattice::NodeId Id = 0; Id < Kept; ++Id)
      ASSERT_TRUE(R.Lattice.node(Id).Intent == Want[Id]) << At << " c" << Id;
    if (!R.Truncated) {
      ASSERT_EQ(R.Lattice.size(), Want.size()) << At;
    }
  }
}

/// A random context whose shape and density are derived from the seed.
Context seededContext(uint64_t Seed) {
  RNG Rand(Seed * 0x2545F4914F6CDD1DULL + 3);
  size_t O = Rand.nextIndex(14);
  size_t A = Rand.nextIndex(12);
  double Density = 0.05 + 0.9 * Rand.nextDouble();
  Context Ctx(O, A);
  for (size_t I = 0; I < O; ++I)
    for (size_t J = 0; J < A; ++J)
      if (Rand.nextBool(Density))
        Ctx.relate(I, J);
  return Ctx;
}

/// Object i related to every attribute but i: the powerset lattice.
Context contranominal(size_t N) {
  Context Ctx(N, N);
  for (size_t O = 0; O < N; ++O)
    for (size_t A = 0; A < N; ++A)
      if (O != A)
        Ctx.relate(O, A);
  return Ctx;
}

/// A sparse context: about four attributes per object, plus the first and
/// last attributes of each word boundary now and then, so intents and
/// extents cross word boundaries.
Context sparseContext(size_t N, size_t M, uint64_t Seed) {
  RNG Rand(Seed);
  Context Ctx(N, M);
  for (size_t O = 0; O < N; ++O) {
    for (int J = 0; J < 4; ++J)
      Ctx.relate(O, Rand.nextIndex(M));
    if (Rand.nextBool(0.3))
      Ctx.relate(O, M - 1);
    if (M > 64 && Rand.nextBool(0.3))
      Ctx.relate(O, 63);
    if (M > 64 && Rand.nextBool(0.3))
      Ctx.relate(O, 64);
  }
  return Ctx;
}

/// The degenerate corners of the builder differential suite.
std::vector<std::pair<std::string, Context>> degenerateContexts() {
  std::vector<std::pair<std::string, Context>> Out;
  Out.push_back({"0x0", Context(0, 0)});
  Out.push_back({"5x0", Context(5, 0)});
  Out.push_back({"0x6", Context(0, 6)});
  Out.push_back({"4x5 empty relation", Context(4, 5)});
  Context Full(4, 5);
  for (size_t O = 0; O < 4; ++O)
    for (size_t A = 0; A < 5; ++A)
      Full.relate(O, A);
  Out.push_back({"full relation", Full});
  Context EmptyRow(3, 4);
  for (size_t A = 0; A < 4; ++A) {
    EmptyRow.relate(0, A);
    EmptyRow.relate(2, A);
  }
  Out.push_back({"empty row", EmptyRow});
  Context EmptyCol(4, 4);
  for (size_t O = 0; O < 4; ++O)
    for (size_t A = 0; A < 4; ++A)
      if (A != 2)
        EmptyCol.relate(O, A);
  Out.push_back({"empty column", EmptyCol});
  Context Cell(1, 1);
  Cell.relate(0, 0);
  Out.push_back({"1x1 full", Cell});
  Context Dup(6, 6);
  for (size_t O = 0; O < 6; ++O)
    for (size_t A = 0; A < 6; ++A)
      if ((O / 2 + A / 2) % 2 == 0)
        Dup.relate(O, A);
  Out.push_back({"duplicate rows/columns", Dup});
  return Out;
}

} // namespace

class CloseByOneTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CloseByOneTest, MatchesNextClosureOnSeededContexts) {
  Context Ctx = seededContext(GetParam());
  std::string What = "seed " + std::to_string(GetParam());
  expectSearchMatchesReference(Ctx, What);
  expectCapsKeepLecticPrefixes(Ctx, What);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CloseByOneTest,
                         ::testing::Range<uint64_t>(0, 200));

TEST(CloseByOneShapeTest, MatchesNextClosureAcrossWordBoundaries) {
  for (size_t M : {63, 64, 65, 130})
    for (size_t N : {65, 100, 130}) {
      std::string What = std::to_string(N) + "x" + std::to_string(M);
      expectSearchMatchesReference(sparseContext(N, M, N * 1000 + M), What);
    }
}

TEST(CloseByOneShapeTest, MatchesNextClosureOnContranominalScales) {
  for (size_t N = 0; N <= 12; ++N)
    expectSearchMatchesReference(contranominal(N),
                                 "contranominal " + std::to_string(N));
}

TEST(CloseByOneShapeTest, MatchesNextClosureOnDegenerateContexts) {
  for (const auto &[What, Ctx] : degenerateContexts()) {
    expectSearchMatchesReference(Ctx, What);
    expectCapsKeepLecticPrefixes(Ctx, What);
  }
}

TEST(CloseByOneShapeTest, MatchesNextClosureOnProtocolSessions) {
  // The 17 protocols' sessions, built as the Table 3 binaries build them.
  for (const ProtocolModel &Model : allProtocols()) {
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
    Session S(std::move(Scenarios), std::move(Ref));
    std::vector<Concept> Want = NextClosureReference::concepts(S.context());
    expectSameConcepts(S.lattice(), Want, Model.Name + " session");
    expectSearchMatchesReference(S.context(), Model.Name);
  }
}

namespace {

/// Asserts what ConceptLattice::verify checks of \p L short of
/// completeness, which a truncated lattice lacks by design: every node is
/// a concept of \p Ctx, the top holds every object, and the covers are
/// the pairwise scan's over the nodes.
void expectSoundLattice(const ConceptLattice &L, const Context &Ctx,
                        const std::string &What) {
  std::vector<Concept> Nodes;
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id) {
    const Concept &C = L.node(Id);
    EXPECT_TRUE(Ctx.sigma(C.Extent) == C.Intent) << What << " c" << Id;
    EXPECT_TRUE(Ctx.tau(C.Intent) == C.Extent) << What << " c" << Id;
    Nodes.push_back(C);
  }
  EXPECT_EQ(L.node(L.top()).Extent.count(), Ctx.numObjects()) << What;
  ConceptLattice Scan = ConceptLattice::fromConcepts(std::move(Nodes));
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id) {
    EXPECT_EQ(L.parents(Id), Scan.parents(Id)) << What << " c" << Id;
    EXPECT_EQ(L.children(Id), Scan.children(Id)) << What << " c" << Id;
  }
}

class CloseByOneOomTest : public ::testing::Test {
protected:
  void TearDown() override { Failpoint::reset(); }
};

} // namespace

TEST_F(CloseByOneOomTest, ContainedFailureKeepsALecticPrefix) {
  std::vector<std::pair<std::string, Context>> Cases;
  Cases.push_back({"contranominal 6", contranominal(6)});
  Cases.push_back({"65x64", sparseContext(65, 64, 65064)});
  Cases.push_back({"130x130", sparseContext(130, 130, 130130)});
  for (const auto &[Name, Ctx] : Cases) {
    std::vector<Concept> Want = NextClosureReference::concepts(Ctx);
    BitVector AllAttributes(Ctx.numAttributes());
    AllAttributes.setAll();
    BitVector BottomExtent = Ctx.tau(AllAttributes);
    size_t NumTruncated = 0;
    for (int K = 1; K <= 10; ++K) {
      std::string What = Name + " error@" + std::to_string(K);
      ASSERT_TRUE(
          Failpoint::configure("lattice-oom=error@" + std::to_string(K))
              .isOk());
      BudgetMeter Meter{Budget{}};
      LatticeBuildResult R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
      Failpoint::reset();
      expectSoundLattice(R.Lattice, Ctx, What);
      if (!R.Truncated) {
        std::string Why;
        EXPECT_TRUE(R.Lattice.verify(Ctx, &Why)) << What << ": " << Why;
        expectSameConcepts(R.Lattice, Want, What);
        continue;
      }
      ++NumTruncated;
      EXPECT_EQ(R.BuildStatus.code(), ErrorCode::ResourceExhausted) << What;
      // The nodes are the reference's first ones, and the bottom follows
      // when the prefix stopped short of it.
      size_t Prefix = 0;
      while (Prefix < R.Lattice.size() && Prefix < Want.size() &&
             R.Lattice.node(Prefix).Intent == Want[Prefix].Intent &&
             R.Lattice.node(Prefix).Extent == Want[Prefix].Extent)
        ++Prefix;
      ASSERT_GE(Prefix + 1, R.Lattice.size()) << What;
      if (Prefix < R.Lattice.size()) {
        EXPECT_TRUE(R.Lattice.node(Prefix).Extent == BottomExtent) << What;
      }
    }
    // Each case has more than ten candidates, so every K fired.
    EXPECT_EQ(NumTruncated, 10u) << Name;
  }
}
