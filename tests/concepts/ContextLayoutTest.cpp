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
// must be exactly the concepts of the reference closure system.
//
//===----------------------------------------------------------------------===//

#include "concepts/GodinBuilder.h"
#include "concepts/NextClosureBuilder.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

#include <set>
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

/// Canonical form of a lattice: its (extent, intent) pairs and its cover
/// edges as (parent extent, child extent), independent of node ids.
using Sets = std::pair<std::vector<size_t>, std::vector<size_t>>;
std::pair<std::set<Sets>, std::set<Sets>> canonical(const ConceptLattice &L) {
  std::set<Sets> Concepts, Covers;
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id) {
    Concepts.insert({L.node(Id).Extent.toIndices(),
                     L.node(Id).Intent.toIndices()});
    for (ConceptLattice::NodeId C : L.children(Id))
      Covers.insert(
          {L.node(Id).Extent.toIndices(), L.node(C).Extent.toIndices()});
  }
  return {Concepts, Covers};
}

/// Checks the lattice both builders derive on the arena path against the
/// closure system of the reference path. The nodes are exactly the
/// reference concepts when the top intent is the reference closure of ∅,
/// every node is a reference concept, and every closed intent one
/// attribute above a node intent is again a node intent (each closed
/// intent is reached from the top by such steps). Godin and NextClosure
/// must agree on concepts and covers.
void expectBuildersMatchReferenceClosures(const Context &Ctx,
                                          const std::string &What) {
  ConceptLattice N = NextClosureBuilder::buildLattice(Ctx);
  ConceptLattice G = GodinBuilder::buildLattice(Ctx);
  EXPECT_TRUE(canonical(G) == canonical(N)) << What;

  size_t M = Ctx.numAttributes();
  std::set<std::vector<size_t>> Intents;
  for (ConceptLattice::NodeId Id = 0; Id < N.size(); ++Id)
    Intents.insert(N.node(Id).Intent.toIndices());
  EXPECT_TRUE(N.node(N.top()).Intent == Ctx.closeIntentReference(BitVector(M)))
      << What;
  for (ConceptLattice::NodeId Id = 0; Id < N.size(); ++Id) {
    const Concept &C = N.node(Id);
    EXPECT_TRUE(Ctx.closeIntentReference(C.Intent) == C.Intent)
        << What << " c" << Id;
    EXPECT_TRUE(Ctx.tauReference(C.Intent) == C.Extent) << What << " c" << Id;
    for (size_t A = 0; A < M; ++A) {
      if (C.Intent.test(A))
        continue;
      BitVector Up = C.Intent;
      Up.set(A);
      EXPECT_TRUE(Intents.count(Ctx.closeIntentReference(Up).toIndices()))
          << What << " c" << Id << " + a" << A;
    }
  }
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

/// 60-seed sweep: whole lattices built on the arena path are exactly the
/// reference path's concepts, for both builders.
class ContextPathEquivalenceTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(ContextPathEquivalenceTest, AllBuildersIdenticalOldVsNewPath) {
  expectBuildersMatchReferenceClosures(seededContext(GetParam() * 37 + 5),
                                       "seeded context");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContextPathEquivalenceTest,
                         ::testing::Range<uint64_t>(0, 60));

TEST(ContextPathEquivalenceTest, DegenerateContexts) {
  expectBuildersMatchReferenceClosures(Context(0, 0), "0x0");
  expectBuildersMatchReferenceClosures(Context(5, 0), "5x0");
  expectBuildersMatchReferenceClosures(Context(0, 6), "0x6");
  expectBuildersMatchReferenceClosures(contranominal(8), "contranominal8");
}
