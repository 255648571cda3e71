//===- tests/concepts/BuildersTest.cpp -------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/ContextReference.h"
#include "concepts/GodinBuilder.h"
#include "concepts/NextClosureBuilder.h"
#include "concepts/NextClosureReference.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <set>

using namespace cable;

namespace {

Context randomContext(RNG &Rand, size_t MaxObjects, size_t MaxAttrs,
                      double Density) {
  size_t O = Rand.nextIndex(MaxObjects + 1);
  size_t A = Rand.nextIndex(MaxAttrs + 1);
  Context Ctx(O, A);
  for (size_t I = 0; I < O; ++I)
    for (size_t J = 0; J < A; ++J)
      if (Rand.nextBool(Density))
        Ctx.relate(I, J);
  return Ctx;
}

/// Canonical form of a lattice's concept set for comparison.
std::set<std::pair<std::vector<size_t>, std::vector<size_t>>>
conceptSet(const ConceptLattice &L) {
  std::set<std::pair<std::vector<size_t>, std::vector<size_t>>> Out;
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id)
    Out.insert({L.node(Id).Extent.toIndices(), L.node(Id).Intent.toIndices()});
  return Out;
}

/// Exhaustive concept enumeration for tiny contexts: closures of all 2^|O|
/// object subsets.
std::set<std::pair<std::vector<size_t>, std::vector<size_t>>>
bruteForceConcepts(const Context &Ctx) {
  std::set<std::pair<std::vector<size_t>, std::vector<size_t>>> Out;
  size_t O = Ctx.numObjects();
  for (size_t Mask = 0; Mask < (size_t(1) << O); ++Mask) {
    BitVector X(O);
    for (size_t I = 0; I < O; ++I)
      if (Mask & (size_t(1) << I))
        X.set(I);
    BitVector Intent = Ctx.sigma(X);
    BitVector Extent = Ctx.tau(Intent);
    Out.insert({Extent.toIndices(), Intent.toIndices()});
  }
  return Out;
}

} // namespace

TEST(GodinBuilderTest, EmptyContext) {
  GodinBuilder B(3);
  ConceptLattice L = B.build();
  EXPECT_EQ(L.size(), 1u);
  EXPECT_EQ(L.node(L.top()).Intent.count(), 3u);
}

TEST(GodinBuilderTest, SingleObject) {
  GodinBuilder B(3);
  BitVector Attrs(3);
  Attrs.set(0);
  Attrs.set(2);
  B.addObject(Attrs);
  ConceptLattice L = B.build();
  // ({o}, {0,2}) and bottom (∅, {0,1,2}).
  EXPECT_EQ(L.size(), 2u);
  EXPECT_EQ(L.node(L.top()).Extent.count(), 1u);
  EXPECT_EQ(L.node(L.top()).Intent.count(), 2u);
  EXPECT_EQ(L.node(L.bottom()).Extent.count(), 0u);
}

TEST(GodinBuilderTest, ObjectWithAllAttributesMergesBottom) {
  GodinBuilder B(2);
  BitVector All(2);
  All.setAll();
  B.addObject(All);
  ConceptLattice L = B.build();
  EXPECT_EQ(L.size(), 1u);
  EXPECT_EQ(L.node(L.top()).Extent.count(), 1u);
  EXPECT_EQ(L.node(L.top()).Intent.count(), 2u);
}

TEST(GodinBuilderTest, DuplicateObjectsShareConcepts) {
  GodinBuilder B(2);
  BitVector A(2);
  A.set(0);
  B.addObject(A);
  size_t Before = B.numConcepts();
  B.addObject(A);
  EXPECT_EQ(B.numConcepts(), Before)
      << "an identical object creates no new concepts";
  ConceptLattice L = B.build();
  BitVector Both(2);
  Both.set(0);
  Both.set(1);
  (void)Both;
  std::optional<ConceptLattice::NodeId> N = L.findByIntent(A);
  ASSERT_TRUE(N.has_value());
  EXPECT_EQ(L.node(*N).Extent.count(), 2u);
}

TEST(NextClosureBuilderTest, EnumeratesAllClosedIntentsInLecticOrder) {
  Context Ctx(2, 2);
  Ctx.relate(0, 0);
  Ctx.relate(1, 1);
  std::vector<BitVector> Intents = NextClosureBuilder::allClosedIntents(Ctx);
  // Closed intents: {}, {0}, {1}, {0,1}.
  EXPECT_EQ(Intents.size(), 4u);
  for (size_t I = 1; I < Intents.size(); ++I)
    EXPECT_FALSE(Intents[I] == Intents[I - 1]);
  // Lectic order: {}, {1}, {0}, {0,1}, as NextClosure enumerates them.
  std::vector<BitVector> Reference = NextClosureReference::closedIntents(Ctx);
  ASSERT_EQ(Intents.size(), Reference.size());
  for (size_t I = 0; I < Intents.size(); ++I)
    EXPECT_TRUE(Intents[I] == Reference[I]) << I;
  EXPECT_EQ(Intents[1].toIndices(), std::vector<size_t>{1});
  EXPECT_EQ(Intents[2].toIndices(), std::vector<size_t>{0});
}

/// Canonical form of a lattice's cover edges: pairs of (parent extent,
/// child extent).
std::set<std::pair<std::vector<size_t>, std::vector<size_t>>>
coverSet(const ConceptLattice &L) {
  std::set<std::pair<std::vector<size_t>, std::vector<size_t>>> Out;
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id)
    for (ConceptLattice::NodeId C : L.children(Id))
      Out.insert({L.node(Id).Extent.toIndices(), L.node(C).Extent.toIndices()});
  return Out;
}

/// The central cross-validation: Godin (incremental, the paper's
/// algorithm), NextClosure (lectic batch), and brute force must all agree
/// on random contexts, and every lattice must verify.
class BuilderAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuilderAgreementTest, AllBuildersAgreeWithBruteForce) {
  RNG Rand(GetParam());
  Context Ctx = randomContext(Rand, 9, 8, 0.35);
  ConceptLattice G = GodinBuilder::buildLattice(Ctx);
  ConceptLattice N = NextClosureBuilder::buildLattice(Ctx);

  EXPECT_EQ(conceptSet(G), conceptSet(N));
  EXPECT_EQ(conceptSet(G), bruteForceConcepts(Ctx));

  std::string Why;
  EXPECT_TRUE(G.verify(Ctx, &Why)) << "Godin: " << Why;
  EXPECT_TRUE(N.verify(Ctx, &Why)) << "NextClosure: " << Why;

  // Same cover structure: the counted edges must equal the pairwise
  // transitive-reduction scan over the same concepts.
  std::vector<Concept> Concepts;
  for (ConceptLattice::NodeId Id = 0; Id < N.size(); ++Id)
    Concepts.push_back(N.node(Id));
  ConceptLattice Scanned = ConceptLattice::fromConcepts(Concepts);
  EXPECT_EQ(coverSet(N), coverSet(Scanned));
  EXPECT_EQ(coverSet(G), coverSet(N));
  EXPECT_EQ(G.numEdges(), N.numEdges());
  EXPECT_EQ(G.height(), Scanned.height());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderAgreementTest,
                         ::testing::Range<uint64_t>(0, 40));

/// Denser and sparser regimes.
class BuilderAgreementDenseTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BuilderAgreementDenseTest, AgreesAtHighAndLowDensity) {
  RNG Rand(GetParam() * 7919 + 13);
  for (double Density : {0.1, 0.8}) {
    Context Ctx = randomContext(Rand, 7, 7, Density);
    ConceptLattice G = GodinBuilder::buildLattice(Ctx);
    ConceptLattice N = NextClosureBuilder::buildLattice(Ctx);
    EXPECT_EQ(conceptSet(G), conceptSet(N));
    EXPECT_EQ(conceptSet(G), bruteForceConcepts(Ctx));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuilderAgreementDenseTest,
                         ::testing::Range<uint64_t>(0, 15));

TEST(GodinBuilderTest, IncrementalMatchesBatchAtEveryPrefix) {
  RNG Rand(99);
  Context Full = randomContext(Rand, 8, 6, 0.4);
  const ContextReference Rows(Full);
  GodinBuilder B(Full.numAttributes());
  for (size_t O = 0; O < Full.numObjects(); ++O) {
    B.addObject(Rows.row(O));
    // Prefix context with objects 0..O.
    Context Prefix(O + 1, Full.numAttributes());
    for (size_t I = 0; I <= O; ++I)
      for (size_t A : Rows.row(I))
        Prefix.relate(I, A);
    ConceptLattice Inc = B.build();
    ConceptLattice Batch = NextClosureBuilder::buildLattice(Prefix);
    EXPECT_EQ(conceptSet(Inc), conceptSet(Batch)) << "after object " << O;
  }
}

TEST(GodinBuilderTest, ClarifiedContextHasIsomorphicLattice) {
  RNG Rand(77);
  Context Ctx = randomContext(Rand, 10, 8, 0.35);
  Context C = clarified(Ctx);
  ConceptLattice Full = GodinBuilder::buildLattice(Ctx);
  ConceptLattice Small = GodinBuilder::buildLattice(C);
  EXPECT_EQ(Full.size(), Small.size())
      << "clarification must preserve the lattice's shape";
  EXPECT_EQ(Full.numEdges(), Small.numEdges());
  EXPECT_EQ(Full.height(), Small.height());
}

TEST(GodinBuilderTest, LatticeSizeNeverDecreasesWithPaperBound) {
  // §3.1.1: with k an upper bound on attributes per object, the lattice
  // has at most 2^k times more concepts than objects (loose check: bounded
  // by (|O|+1) * 2^k).
  RNG Rand(123);
  size_t K = 4;
  GodinBuilder B(10);
  for (size_t O = 0; O < 30; ++O) {
    BitVector Attrs(10);
    for (size_t J = 0; J < K; ++J)
      Attrs.set(Rand.nextIndex(10));
    B.addObject(Attrs);
    EXPECT_LE(B.numConcepts(), (O + 2) * (size_t(1) << K));
  }
}
