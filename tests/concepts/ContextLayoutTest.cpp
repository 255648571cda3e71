//===- tests/concepts/ContextLayoutTest.cpp - Arena layout equivalence ----===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Property suite for the arena Context layout: on random and degenerate
// contexts, sigma/tau (selected rows or columns of the packed arenas,
// ANDed word by word) and NextClosure's register-resident intent closure
// (NextClosureReference) at every column stride must agree bit-for-bit
// with the reference derivations (ContextReference); and entire lattices
// built by both builders must be exactly the concepts of the reference
// closure system, on one-word and multi-word rows, before and after
// clarification.
//
//===----------------------------------------------------------------------===//

#include "concepts/ContextReference.h"
#include "concepts/GodinBuilder.h"
#include "concepts/NextClosureBuilder.h"
#include "concepts/NextClosureReference.h"

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

/// Each element with probability 0.4, or, given \p Expected, with
/// probability Expected / Universe.
BitVector randomSubset(RNG &Rand, size_t Universe, size_t Expected = 0) {
  double P = Expected == 0 || Universe <= Expected
                 ? 0.4
                 : static_cast<double>(Expected) / Universe;
  BitVector Out(Universe);
  for (size_t I = 0; I < Universe; ++I)
    if (Rand.nextBool(P))
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
  // A few elements each: on a wide context, a 40% subset derives the
  // empty set almost surely, and these derive non-trivial ones.
  for (int I = 0; I < 10; ++I) {
    ObjSets.push_back(randomSubset(Rand, Ctx.numObjects(), 3));
    AttrSets.push_back(randomSubset(Rand, Ctx.numAttributes(), 3));
  }
  const ContextReference Ref(Ctx);
  for (const BitVector &X : ObjSets) {
    EXPECT_TRUE(Ctx.sigma(X) == Ref.sigma(X)) << What;
    EXPECT_TRUE(Ctx.closeExtent(X) == Ref.closeExtent(X)) << What;
  }
  for (const BitVector &Y : AttrSets) {
    EXPECT_TRUE(Ctx.tau(Y) == Ref.tau(Y)) << What;
    EXPECT_TRUE(Ctx.closeIntent(Y) == Ref.closeIntent(Y)) << What;
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

  const ContextReference Ref(Ctx);
  size_t M = Ctx.numAttributes();
  std::set<std::vector<size_t>> Intents;
  for (ConceptLattice::NodeId Id = 0; Id < N.size(); ++Id)
    Intents.insert(N.node(Id).Intent.toIndices());
  EXPECT_TRUE(N.node(N.top()).Intent == Ref.closeIntent(BitVector(M))) << What;
  for (ConceptLattice::NodeId Id = 0; Id < N.size(); ++Id) {
    const Concept &C = N.node(Id);
    EXPECT_TRUE(Ref.closeIntent(C.Intent) == C.Intent) << What << " c" << Id;
    EXPECT_TRUE(Ref.tau(C.Intent) == C.Extent) << What << " c" << Id;
    for (size_t A = 0; A < M; ++A) {
      if (C.Intent.test(A))
        continue;
      BitVector Up = C.Intent;
      Up.set(A);
      EXPECT_TRUE(Intents.count(Ref.closeIntent(Up).toIndices()))
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

TEST(ContextLayoutDegenerateTest, ContextWiderThanFourWordsBothWays) {
  // 300 attributes → 5-word rows; 577 objects → 10-word columns with a
  // one-bit tail, so sigma and tau both fold more than four words.
  RNG Rand(577);
  Context Ctx(577, 300);
  for (size_t O = 0; O < 577; ++O)
    for (size_t A = 0; A < 300; ++A)
      if (Rand.nextBool(0.7))
        Ctx.relate(O, A);
  expectDerivationsMatchReference(Ctx, 6, "577x300");
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

/// Every column stride of NextClosure's register-resident intent closure
/// (the oracle enumeration's per-candidate closure), and both fallbacks:
/// object counts 64k-1, 64k and 64k+1 for k = 1..9 give column strides 1
/// to 10 (the register path covers 1 to 8), and attribute counts 1, 63, 64
/// and 65 give one-word rows and two-word rows (the fallback).
class ClosureStrideTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ClosureStrideTest, CloseIntentIntoMatchesReference) {
  const size_t K = GetParam();
  for (size_t N : {64 * K - 1, 64 * K, 64 * K + 1})
    for (size_t M : {1, 63, 64, 65}) {
      std::string What = std::to_string(N) + "x" + std::to_string(M);
      RNG Rand(N * 131 + M);
      Context Ctx(N, M);
      for (size_t O = 0; O < N; ++O)
        for (size_t A = 0; A < M; ++A)
          if (Rand.nextBool(0.9))
            Ctx.relate(O, A);
      const ContextReference Ref(Ctx);
      // Scratch reused across calls, as NextClosure reuses it.
      BitVector Extent(N), Intent(M);
      for (int I = 0; I < 24; ++I) {
        // Empty, full, then subsets of a few to a fifth of the attributes.
        BitVector Y(M);
        if (I == 1)
          Y.setAll();
        else if (I > 1)
          for (size_t A = 0; A < M; ++A)
            if (Rand.nextBool(I % 3 == 0 ? 0.02 : I % 3 == 1 ? 0.08 : 0.2))
              Y.set(A);
        NextClosureReference::closeIntentInto(Ctx, Y, Extent, Intent);
        EXPECT_TRUE(Extent == Ref.tau(Y)) << What << " subset " << I;
        EXPECT_TRUE(Intent == Ref.closeIntent(Y)) << What << " subset " << I;
        EXPECT_TRUE(Extent.tailIsClean() && Intent.tailIsClean()) << What;
      }
    }
}

INSTANTIATE_TEST_SUITE_P(K, ClosureStrideTest,
                         ::testing::Range<size_t>(1, 10));

namespace {

/// A sparse context over multi-word rows: about four attributes per
/// object, plus the last attribute and attribute 63 (the last bit of the
/// first word) half the time each. Every seventh object repeats the row
/// before it, and attribute M-2 always has the column of attribute 0, so
/// clarification has objects and attributes to merge.
Context multiWordContext(size_t N, size_t M, uint64_t Seed) {
  RNG Rand(Seed);
  std::vector<std::vector<bool>> Rows(N, std::vector<bool>(M));
  for (size_t O = 0; O < N; ++O) {
    if (O % 7 == 6) {
      Rows[O] = Rows[O - 1];
      continue;
    }
    for (int J = 0; J < 4; ++J)
      Rows[O][Rand.nextIndex(M)] = true;
    if (Rand.nextBool(0.5))
      Rows[O][M - 1] = true;
    if (M > 63 && Rand.nextBool(0.5))
      Rows[O][63] = true;
    Rows[O][M - 2] = Rows[O][0] = Rows[O][0] || Rows[O][M - 2];
  }
  Context Ctx(N, M);
  for (size_t O = 0; O < N; ++O)
    for (size_t A = 0; A < M; ++A)
      if (Rows[O][A])
        Ctx.relate(O, A);
  return Ctx;
}

} // namespace

/// Godin against NextClosure and the reference closures on rows of one
/// word less a bit, one word, one word and a bit, and three words, with
/// more than one word of objects; then the same on the clarified context,
/// whose lattice must have the same shape.
class MultiWordRowsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MultiWordRowsTest, GodinMatchesNextClosureBeforeAndAfterClarifying) {
  const size_t M = GetParam();
  for (size_t N : {65, 100, 130}) {
    std::string What = std::to_string(N) + "x" + std::to_string(M);
    Context Ctx = multiWordContext(N, M, N * 1000 + M);
    expectBuildersMatchReferenceClosures(Ctx, What);

    std::vector<size_t> ObjMap, AttrMap;
    Context C = clarified(Ctx, &ObjMap, &AttrMap);
    std::set<std::vector<bool>> Rows, Cols;
    for (size_t O = 0; O < N; ++O) {
      std::vector<bool> Row(M);
      for (size_t A = 0; A < M; ++A)
        Row[A] = Ctx.related(O, A);
      Rows.insert(Row);
    }
    for (size_t A = 0; A < M; ++A) {
      std::vector<bool> Col(N);
      for (size_t O = 0; O < N; ++O)
        Col[O] = Ctx.related(O, A);
      Cols.insert(Col);
    }
    EXPECT_EQ(C.numObjects(), Rows.size()) << What;
    EXPECT_EQ(C.numAttributes(), Cols.size()) << What;
    EXPECT_LT(C.numObjects(), N) << What;
    EXPECT_LT(C.numAttributes(), M) << What;
    for (size_t O = 0; O < N; ++O)
      for (size_t A = 0; A < M; ++A)
        ASSERT_EQ(Ctx.related(O, A), C.related(ObjMap[O], AttrMap[A]))
            << What << " o" << O << " a" << A;

    ConceptLattice Full = GodinBuilder::buildLattice(Ctx);
    ConceptLattice Small = GodinBuilder::buildLattice(C);
    EXPECT_EQ(Full.size(), Small.size()) << What;
    EXPECT_EQ(Full.numEdges(), Small.numEdges()) << What;
    EXPECT_EQ(Full.height(), Small.height()) << What;
    expectBuildersMatchReferenceClosures(C, What + " clarified");
  }
}

INSTANTIATE_TEST_SUITE_P(Attributes, MultiWordRowsTest,
                         ::testing::Values(63, 64, 65, 130));
