//===- tests/concepts/ContextLayoutTest.cpp - Arena layout equivalence ----===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property suite for the blocked arena Context layout: on random and
// degenerate contexts, the fused sigma/tau (packed row/column arenas +
// andSelectInto) must agree bit-for-bit with the retained pre-arena
// reference implementations; and entire lattices built by both builders
// must be identical between the new and legacy derivation paths.
//
//===----------------------------------------------------------------------===//

#include "concepts/GodinBuilder.h"
#include "concepts/NextClosureBuilder.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cable;

namespace {

/// Same shape family as the builder differential sweep: tall, wide,
/// sparse, and dense regimes out of one seed.
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

/// Contranominal scale N: every object has every attribute except its own
/// diagonal — the worst-case 2^N lattice and the bench workload shape.
Context contranominal(size_t N) {
  Context Ctx(N, N);
  for (size_t O = 0; O < N; ++O)
    for (size_t A = 0; A < N; ++A)
      if (O != A)
        Ctx.relate(O, A);
  return Ctx;
}

BitVector randomSubset(RNG &Rand, size_t Universe) {
  BitVector Out(Universe);
  for (size_t I = 0; I < Universe; ++I)
    if (Rand.nextBool(0.4))
      Out.set(I);
  return Out;
}

/// Checks sigma/tau and both closures against the reference path for a
/// battery of random subsets, plus the empty and full subsets.
void expectDerivationsMatchReference(const Context &Ctx, uint64_t Seed,
                                     const char *What) {
  RNG Rand(Seed);
  std::vector<BitVector> ObjSets = {BitVector(Ctx.numObjects()),
                                    BitVector(Ctx.numObjects())};
  ObjSets[1].setAll();
  std::vector<BitVector> AttrSets = {BitVector(Ctx.numAttributes()),
                                     BitVector(Ctx.numAttributes())};
  AttrSets[1].setAll();
  for (int I = 0; I < 20; ++I) {
    ObjSets.push_back(randomSubset(Rand, Ctx.numObjects()));
    AttrSets.push_back(randomSubset(Rand, Ctx.numAttributes()));
  }
  for (const BitVector &X : ObjSets) {
    EXPECT_TRUE(Ctx.sigma(X) == Ctx.sigmaReference(X)) << What;
    EXPECT_TRUE(Ctx.closeExtent(X) == Ctx.closeExtentReference(X)) << What;
  }
  for (const BitVector &Y : AttrSets) {
    EXPECT_TRUE(Ctx.tau(Y) == Ctx.tauReference(Y)) << What;
    EXPECT_TRUE(Ctx.closeIntent(Y) == Ctx.closeIntentReference(Y)) << What;
  }
}

/// Asserts two lattices are bit-for-bit identical (same ids, same sets,
/// same adjacency order) — the strong form, as in the builder suite.
void expectIdenticalLattices(const ConceptLattice &A, const ConceptLattice &B,
                             const std::string &What) {
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

/// Builds with both builders on the arena path and again on the
/// legacy reference path; every pair must be identical.
void expectBuildersIdenticalAcrossPaths(Context Ctx, const char *What) {
  ConceptLattice NewG = GodinBuilder::buildLattice(Ctx);
  ConceptLattice NewN = NextClosureBuilder::buildLattice(Ctx);

  Ctx.setUseReferencePaths(true);
  expectIdenticalLattices(NewG, GodinBuilder::buildLattice(Ctx),
                          std::string(What) + " godin");
  expectIdenticalLattices(NewN, NextClosureBuilder::buildLattice(Ctx),
                          std::string(What) + " next-closure");
}

} // namespace

/// 150-seed sweep: fused derivations equal the reference.
class ContextLayoutTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ContextLayoutTest, DerivationsMatchReferenceAtEveryLevel) {
  Context Ctx = seededContext(GetParam());
  expectDerivationsMatchReference(Ctx, GetParam() ^ 0xD15EA5E,
                                     "seeded context");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextLayoutTest,
                         ::testing::Range<uint64_t>(0, 150));

TEST(ContextLayoutDegenerateTest, EmptyContext) {
  expectDerivationsMatchReference(Context(0, 0), 1, "0x0");
}

TEST(ContextLayoutDegenerateTest, ObjectsWithoutAttributes) {
  expectDerivationsMatchReference(Context(7, 0), 2, "7x0");
}

TEST(ContextLayoutDegenerateTest, AttributesWithoutObjects) {
  expectDerivationsMatchReference(Context(0, 9), 3, "0x9");
}

TEST(ContextLayoutDegenerateTest, Contranominal) {
  // 2^10 concepts; also crosses the one-word boundary at 10 bits? No —
  // the point is the densest off-diagonal shape the bench uses.
  expectDerivationsMatchReference(contranominal(10), 4, "contranominal10");
}

TEST(ContextLayoutDegenerateTest, WideContextCrossesWordBoundaries) {
  // 70 attributes → 2-word rows; 130 objects → 3-word columns, so both
  // arenas exercise multi-word strides and tail masks.
  RNG Rand(99);
  Context Ctx(130, 70);
  for (size_t O = 0; O < 130; ++O)
    for (size_t A = 0; A < 70; ++A)
      if (Rand.nextBool(0.3))
        Ctx.relate(O, A);
  expectDerivationsMatchReference(Ctx, 5, "130x70");
}

/// 60-seed sweep: whole lattices are identical old-path vs new-path for
/// every builder.
class ContextPathEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ContextPathEquivalenceTest, AllBuildersIdenticalOldVsNewPath) {
  expectBuildersIdenticalAcrossPaths(seededContext(GetParam() * 37 + 5),
                                     "seeded context");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextPathEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 60));

TEST(ContextPathEquivalenceTest, DegenerateContexts) {
  expectBuildersIdenticalAcrossPaths(Context(0, 0), "0x0");
  expectBuildersIdenticalAcrossPaths(Context(5, 0), "5x0");
  expectBuildersIdenticalAcrossPaths(Context(0, 6), "0x6");
  expectBuildersIdenticalAcrossPaths(contranominal(8), "contranominal8");
}
