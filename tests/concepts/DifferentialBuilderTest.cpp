//===- tests/concepts/DifferentialBuilderTest.cpp --------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property-based differential suite over four lattice constructions: Godin
// (incremental, the paper's algorithm), NextClosure (lectic batch), its
// budgeted entry point under an unlimited meter (the path Session takes),
// and the pairwise cover scan over NextClosure's concepts (the oracle the
// counted covers replace). ~200 generated contexts of varied density and
// shape, plus the degenerate corners (empty contexts, empty rows/columns,
// full relation) — every construction must produce the same concept set,
// cover relation, and top/bottom, and the budgeted build and the scan
// must be bit-for-bit NextClosure's lattice.
//
//===----------------------------------------------------------------------===//

#include "concepts/GodinBuilder.h"
#include "concepts/NextClosureBuilder.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <set>

using namespace cable;

namespace {

using ExtentIntent = std::pair<std::vector<size_t>, std::vector<size_t>>;

/// Canonical form of a lattice's concept set (node ids differ across
/// builders, extent/intent pairs may not).
std::set<ExtentIntent> conceptSet(const ConceptLattice &L) {
  std::set<ExtentIntent> Out;
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id)
    Out.insert({L.node(Id).Extent.toIndices(), L.node(Id).Intent.toIndices()});
  return Out;
}

/// Canonical form of the cover relation: (parent extent, child extent).
std::set<std::pair<std::vector<size_t>, std::vector<size_t>>>
coverSet(const ConceptLattice &L) {
  std::set<std::pair<std::vector<size_t>, std::vector<size_t>>> Out;
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id)
    for (ConceptLattice::NodeId C : L.children(Id))
      Out.insert({L.node(Id).Extent.toIndices(), L.node(C).Extent.toIndices()});
  return Out;
}

/// Asserts two lattices are bit-for-bit identical: same node ids, same
/// extents/intents, same parent/child adjacency in the same order.
void expectIdenticalLattices(const ConceptLattice &A, const ConceptLattice &B,
                             const char *What) {
  ASSERT_EQ(A.size(), B.size()) << What;
  EXPECT_EQ(A.top(), B.top()) << What;
  EXPECT_EQ(A.bottom(), B.bottom()) << What;
  EXPECT_EQ(A.numEdges(), B.numEdges()) << What;
  for (ConceptLattice::NodeId Id = 0; Id < A.size(); ++Id) {
    EXPECT_TRUE(A.node(Id).Extent == B.node(Id).Extent) << What << " c" << Id;
    EXPECT_TRUE(A.node(Id).Intent == B.node(Id).Intent) << What << " c" << Id;
    EXPECT_EQ(A.parents(Id), B.parents(Id)) << What << " c" << Id;
    EXPECT_EQ(A.children(Id), B.children(Id)) << What << " c" << Id;
  }
}

/// Asserts the four constructions agree on concepts, covers, and
/// top/bottom.
void expectAllBuildersAgree(const Context &Ctx, const char *What) {
  ConceptLattice G = GodinBuilder::buildLattice(Ctx);
  ConceptLattice N = NextClosureBuilder::buildLattice(Ctx);
  BudgetMeter Unlimited{Budget{}};
  LatticeBuildResult B = NextClosureBuilder::buildLatticeBudgeted(Ctx, Unlimited);
  EXPECT_FALSE(B.Truncated) << What;
  expectIdenticalLattices(N, B.Lattice, What);
  std::vector<Concept> Concepts;
  for (ConceptLattice::NodeId Id = 0; Id < N.size(); ++Id)
    Concepts.push_back(N.node(Id));
  expectIdenticalLattices(N, ConceptLattice::fromConcepts(Concepts), What);

  EXPECT_EQ(conceptSet(G), conceptSet(N)) << What;
  EXPECT_EQ(coverSet(G), coverSet(N)) << What;

  // Top/bottom are characterized by their extents, not their ids.
  EXPECT_TRUE(G.node(G.top()).Extent == N.node(N.top()).Extent) << What;
  EXPECT_TRUE(G.node(G.bottom()).Extent == N.node(N.bottom()).Extent) << What;

  std::string Why;
  EXPECT_TRUE(N.verify(Ctx, &Why)) << What << ": " << Why;
}

/// A random context whose shape and density are derived from the seed, so
/// the 200-case sweep covers tall, wide, sparse, and dense regimes.
Context seededContext(uint64_t Seed) {
  RNG Rand(Seed * 6364136223846793005ULL + 1442695040888963407ULL);
  size_t O = Rand.nextIndex(13); // 0..12 objects
  size_t A = Rand.nextIndex(11); // 0..10 attributes
  double Density = 0.05 + 0.9 * Rand.nextDouble();
  Context Ctx(O, A);
  for (size_t I = 0; I < O; ++I)
    for (size_t J = 0; J < A; ++J)
      if (Rand.nextBool(Density))
        Ctx.relate(I, J);
  return Ctx;
}

} // namespace

/// The 200-context differential sweep.
class DifferentialBuilderTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialBuilderTest, AllFourBuildersAgree) {
  Context Ctx = seededContext(GetParam());
  expectAllBuildersAgree(Ctx, "seeded context");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialBuilderTest,
                         ::testing::Range<uint64_t>(0, 200));

TEST(DifferentialBuilderDegenerateTest, EmptyContext) {
  expectAllBuildersAgree(Context(0, 0), "0x0 context");
}

TEST(DifferentialBuilderDegenerateTest, ObjectsWithoutAttributes) {
  expectAllBuildersAgree(Context(5, 0), "5x0 context");
}

TEST(DifferentialBuilderDegenerateTest, AttributesWithoutObjects) {
  expectAllBuildersAgree(Context(0, 6), "0x6 context");
}

TEST(DifferentialBuilderDegenerateTest, EmptyRelation) {
  expectAllBuildersAgree(Context(4, 5), "4x5 empty relation");
}

TEST(DifferentialBuilderDegenerateTest, FullRelation) {
  Context Ctx(4, 5);
  for (size_t O = 0; O < 4; ++O)
    for (size_t A = 0; A < 5; ++A)
      Ctx.relate(O, A);
  expectAllBuildersAgree(Ctx, "full relation");
}

TEST(DifferentialBuilderDegenerateTest, EmptyRowAmongFullOnes) {
  // Object 1 executes nothing (an FA-rejected trace's attribute row).
  Context Ctx(3, 4);
  for (size_t A = 0; A < 4; ++A) {
    Ctx.relate(0, A);
    Ctx.relate(2, A);
  }
  expectAllBuildersAgree(Ctx, "empty row");
}

TEST(DifferentialBuilderDegenerateTest, EmptyColumnAmongFullOnes) {
  // Attribute 2 is never executed (a dead reference-FA transition).
  Context Ctx(4, 4);
  for (size_t O = 0; O < 4; ++O)
    for (size_t A = 0; A < 4; ++A)
      if (A != 2)
        Ctx.relate(O, A);
  expectAllBuildersAgree(Ctx, "empty column");
}

TEST(DifferentialBuilderDegenerateTest, SingleCell) {
  Context Ctx(1, 1);
  Ctx.relate(0, 0);
  expectAllBuildersAgree(Ctx, "1x1 full");
}

TEST(DifferentialBuilderDegenerateTest, IdenticalRowsAndColumns) {
  // Clarifiable context: duplicate rows and duplicate columns.
  Context Ctx(6, 6);
  for (size_t O = 0; O < 6; ++O)
    for (size_t A = 0; A < 6; ++A)
      if ((O / 2 + A / 2) % 2 == 0)
        Ctx.relate(O, A);
  expectAllBuildersAgree(Ctx, "duplicate rows/columns");
}
