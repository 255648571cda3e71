//===- tests/concepts/ContextTest.cpp --------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/Context.h"
#include "concepts/ContextReference.h"

#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace cable;

namespace {

BitVector bits(size_t N, std::initializer_list<size_t> Set) {
  BitVector BV(N);
  for (size_t I : Set)
    BV.set(I);
  return BV;
}

Context randomContext(RNG &Rand, size_t MaxObjects, size_t MaxAttrs,
                      double Density) {
  size_t O = 1 + Rand.nextIndex(MaxObjects);
  size_t A = 1 + Rand.nextIndex(MaxAttrs);
  Context Ctx(O, A);
  for (size_t I = 0; I < O; ++I)
    for (size_t J = 0; J < A; ++J)
      if (Rand.nextBool(Density))
        Ctx.relate(I, J);
  return Ctx;
}

} // namespace

TEST(ContextTest, RelateAndQuery) {
  Context Ctx(3, 4);
  Ctx.relate(0, 1);
  Ctx.relate(2, 3);
  EXPECT_TRUE(Ctx.related(0, 1));
  EXPECT_FALSE(Ctx.related(1, 0));
  EXPECT_EQ(Ctx.objectRowWords(0)[0], uint64_t(1) << 1);
  EXPECT_EQ(Ctx.attributeColWords(3)[0], uint64_t(1) << 2);
  EXPECT_EQ(Ctx.attributeColWords(0)[0], 0u);
}

TEST(ContextTest, SigmaOfEmptySetIsAllAttributes) {
  Context Ctx(3, 4);
  BitVector Empty(3);
  EXPECT_EQ(Ctx.sigma(Empty).count(), 4u);
}

TEST(ContextTest, TauOfEmptySetIsAllObjects) {
  Context Ctx(3, 4);
  BitVector Empty(4);
  EXPECT_EQ(Ctx.tau(Empty).count(), 3u);
}

TEST(ContextTest, SigmaComputesCommonAttributes) {
  Context Ctx(3, 3);
  // Object 0: {0,1}; object 1: {1,2}; object 2: {1}.
  Ctx.relate(0, 0);
  Ctx.relate(0, 1);
  Ctx.relate(1, 1);
  Ctx.relate(1, 2);
  Ctx.relate(2, 1);
  EXPECT_TRUE(Ctx.sigma(bits(3, {0, 1})) == bits(3, {1}));
  EXPECT_TRUE(Ctx.sigma(bits(3, {0})) == bits(3, {0, 1}));
  EXPECT_TRUE(Ctx.sigma(bits(3, {0, 1, 2})) == bits(3, {1}));
}

TEST(ContextTest, SimilarityIsSigmaCardinality) {
  Context Ctx(2, 5);
  for (size_t A : {0u, 1u, 2u})
    Ctx.relate(0, A);
  for (size_t A : {1u, 2u, 3u})
    Ctx.relate(1, A);
  EXPECT_EQ(Ctx.similarity(bits(2, {0})), 3u);
  EXPECT_EQ(Ctx.similarity(bits(2, {0, 1})), 2u);
}

TEST(ContextTest, ClarifiedMergesDuplicateRowsAndColumns) {
  // Objects 0 and 2 share a row; attributes 1 and 3 share a column
  // (attribute 0 additionally relates to object 1, so it stays separate).
  Context Ctx(3, 4);
  Ctx.relate(0, 0);
  Ctx.relate(0, 1);
  Ctx.relate(0, 3);
  Ctx.relate(2, 0);
  Ctx.relate(2, 1);
  Ctx.relate(2, 3);
  Ctx.relate(1, 0);
  Ctx.relate(1, 2);
  std::vector<size_t> ObjMap, AttrMap;
  Context C = clarified(Ctx, &ObjMap, &AttrMap);
  EXPECT_EQ(C.numObjects(), 2u);
  EXPECT_EQ(C.numAttributes(), 3u);
  EXPECT_EQ(ObjMap[0], ObjMap[2]);
  EXPECT_NE(ObjMap[0], ObjMap[1]);
  EXPECT_EQ(AttrMap[1], AttrMap[3]);
  // Relation preserved through the maps.
  for (size_t O = 0; O < Ctx.numObjects(); ++O)
    for (size_t A = 0; A < Ctx.numAttributes(); ++A)
      EXPECT_EQ(Ctx.related(O, A), C.related(ObjMap[O], AttrMap[A]));
}

TEST(ContextTest, ClarifiedOfClarifiedIsIdentitySized) {
  RNG Rand(5);
  Context Ctx(8, 8);
  for (size_t O = 0; O < 8; ++O)
    for (size_t A = 0; A < 8; ++A)
      if (Rand.nextBool(0.4))
        Ctx.relate(O, A);
  Context C1 = clarified(Ctx);
  Context C2 = clarified(C1);
  EXPECT_EQ(C1.numObjects(), C2.numObjects());
  EXPECT_EQ(C1.numAttributes(), C2.numAttributes());
}

/// Galois-connection laws on random contexts.
class GaloisPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GaloisPropertyTest, Laws) {
  RNG Rand(GetParam());
  Context Ctx = randomContext(Rand, 12, 12, 0.4);
  size_t O = Ctx.numObjects(), A = Ctx.numAttributes();

  for (int Trial = 0; Trial < 20; ++Trial) {
    BitVector X(O), Y(A);
    for (size_t I = 0; I < O; ++I)
      if (Rand.nextBool(0.3))
        X.set(I);
    for (size_t J = 0; J < A; ++J)
      if (Rand.nextBool(0.3))
        Y.set(J);

    // Extensivity: X ⊆ tau(sigma(X)), Y ⊆ sigma(tau(Y)).
    EXPECT_TRUE(X.isSubsetOf(Ctx.closeExtent(X)));
    EXPECT_TRUE(Y.isSubsetOf(Ctx.closeIntent(Y)));

    // Idempotence of closure.
    BitVector CX = Ctx.closeExtent(X);
    EXPECT_TRUE(Ctx.closeExtent(CX) == CX);
    BitVector CY = Ctx.closeIntent(Y);
    EXPECT_TRUE(Ctx.closeIntent(CY) == CY);

    // sigma is antitone: X1 ⊆ X2 implies sigma(X2) ⊆ sigma(X1).
    BitVector X2 = X;
    for (size_t I = 0; I < O; ++I)
      if (Rand.nextBool(0.2))
        X2.set(I);
    EXPECT_TRUE(Ctx.sigma(X2).isSubsetOf(Ctx.sigma(X)));

    // Galois: X ⊆ tau(Y) iff Y ⊆ sigma(X).
    EXPECT_EQ(X.isSubsetOf(Ctx.tau(Y)), Y.isSubsetOf(Ctx.sigma(X)));

    // sigma = sigma ∘ tau ∘ sigma.
    EXPECT_TRUE(Ctx.sigma(Ctx.tau(Ctx.sigma(X))) == Ctx.sigma(X));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GaloisPropertyTest,
                         ::testing::Range<uint64_t>(0, 20));
