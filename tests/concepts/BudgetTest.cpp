//===- tests/concepts/BudgetTest.cpp ---------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Budget-exhaustion suite for the budgeted NextClosure build. The
// adversarial input is the contranominal context of dimension N (object i
// related to every attribute but i), whose lattice is the full powerset:
// 2^N concepts. At N=24 that is ~16.7M concepts — unbuildable within a
// 100 ms deadline — so the build must stop cooperatively, flag the result
// Truncated, and still hand back a well-formed sub-lattice (top, bottom,
// consistent covers) within a small multiple of the deadline.
//
// MaxConcepts truncation is exact and deterministic: the kept concepts are
// the first MaxConcepts of the lectic order, and a cap equal to the true
// concept count does not truncate at all.
//
// std::bad_alloc containment at the budgeted boundary is covered here too,
// via the `lattice-oom` failpoint.
//
//===----------------------------------------------------------------------===//

#include "concepts/BuildResult.h"
#include "concepts/NextClosureBuilder.h"

#include "support/Failpoint.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>

using namespace cable;

// Sanitizers slow wall-clock-sensitive code by an order of magnitude;
// relax the overshoot bound accordingly.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CABLE_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CABLE_TEST_SANITIZED 1
#endif
#endif

namespace {

constexpr int DeadlineMs = 100;
#ifdef CABLE_TEST_SANITIZED
constexpr int OvershootFactor = 20;
#else
constexpr int OvershootFactor = 2;
#endif

/// Object i related to every attribute except i: the concept lattice is
/// the boolean lattice with 2^N concepts.
Context contranominal(size_t N) {
  Context Ctx(N, N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J)
        Ctx.relate(I, J);
  return Ctx;
}

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

/// Structural sanity of any (possibly truncated) lattice over \p Ctx.
void expectWellFormed(const ConceptLattice &L, const Context &Ctx) {
  ASSERT_GE(L.size(), 1u);
  // Top holds every object; bottom holds the objects common to every
  // attribute.
  const Concept &Top = L.node(L.top());
  EXPECT_EQ(Top.Extent.count(), Ctx.numObjects());
  BitVector AllAttrs(Ctx.numAttributes());
  AllAttrs.setAll();
  const Concept &Bottom = L.node(L.bottom());
  EXPECT_EQ(Bottom.Extent.toIndices(), Ctx.tau(AllAttrs).toIndices());
  // Every node is a concept of the full context (a truncated build keeps
  // a lectic prefix of them), and every cover edge is a strict superset
  // relation on extents.
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id) {
    const Concept &C = L.node(Id);
    EXPECT_EQ(Ctx.sigma(C.Extent).toIndices(), C.Intent.toIndices());
    EXPECT_EQ(Ctx.tau(C.Intent).toIndices(), C.Extent.toIndices());
    for (ConceptLattice::NodeId Child : L.children(Id)) {
      EXPECT_TRUE(L.node(Child).Extent.isSubsetOf(C.Extent));
      EXPECT_LT(L.node(Child).Extent.count(), C.Extent.count());
    }
  }
}

/// Node-for-node equality: same size, same extents/intents in the same
/// order, same cover lists.
void expectIdentical(const ConceptLattice &A, const ConceptLattice &B) {
  ASSERT_EQ(A.size(), B.size());
  for (ConceptLattice::NodeId Id = 0; Id < A.size(); ++Id) {
    EXPECT_EQ(A.node(Id).Extent.toIndices(), B.node(Id).Extent.toIndices());
    EXPECT_EQ(A.node(Id).Intent.toIndices(), B.node(Id).Intent.toIndices());
    EXPECT_EQ(A.children(Id), B.children(Id));
  }
  EXPECT_EQ(A.top(), B.top());
  EXPECT_EQ(A.bottom(), B.bottom());
}

struct NamedBuilder {
  const char *Name;
  std::function<LatticeBuildResult(const Context &, const BudgetMeter &)> Run;
};

std::vector<NamedBuilder> allBudgetedBuilders() {
  return {
      {"NextClosure",
       [](const Context &Ctx, const BudgetMeter &M) {
         return NextClosureBuilder::buildLatticeBudgeted(Ctx, M);
       }},
  };
}

} // namespace

TEST(BudgetBuilderTest, DeadlineTruncatesEveryBuilderInTime) {
  Context Ctx = contranominal(24);
  for (const NamedBuilder &B : allBudgetedBuilders()) {
    SCOPED_TRACE(B.Name);
    Budget Limits;
    Limits.TimeLimit = std::chrono::milliseconds(DeadlineMs);
    BudgetMeter Meter(Limits);
    auto T0 = std::chrono::steady_clock::now();
    LatticeBuildResult R = B.Run(Ctx, Meter);
    auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                         std::chrono::steady_clock::now() - T0)
                         .count();
    EXPECT_TRUE(R.Truncated);
    EXPECT_FALSE(R.BuildStatus.isOk());
    EXPECT_EQ(R.BuildStatus.code(), ErrorCode::ResourceExhausted);
    EXPECT_LE(ElapsedMs, DeadlineMs * OvershootFactor)
        << B.Name << " overshot the deadline";
    expectWellFormed(R.Lattice, Ctx);
    // 2^24 concepts can't fit; the result must be a strict subset.
    EXPECT_LT(R.Lattice.size(), size_t(1) << 24);
  }
}

TEST(BudgetBuilderTest, ConceptCapTruncatesEveryBuilder) {
  Context Ctx = contranominal(16); // 65536 concepts in full.
  for (const NamedBuilder &B : allBudgetedBuilders()) {
    SCOPED_TRACE(B.Name);
    Budget Limits;
    Limits.MaxConcepts = 500;
    BudgetMeter Meter(Limits);
    LatticeBuildResult R = B.Run(Ctx, Meter);
    EXPECT_TRUE(R.Truncated);
    EXPECT_EQ(R.BuildStatus.code(), ErrorCode::ResourceExhausted);
    expectWellFormed(R.Lattice, Ctx);
    // Cap + the always-ensured top and bottom.
    EXPECT_LE(R.Lattice.size(), 502u);
  }
}

TEST(BudgetBuilderTest, ConceptCapDeterminismOnRandomContexts) {
  RNG Rand(0xB1D6E7);
  for (int Trial = 0; Trial < 40; ++Trial) {
    Context Ctx = randomContext(Rand, 10, 10, 0.4);
    std::vector<BitVector> Lectic = NextClosureBuilder::allClosedIntents(Ctx);
    size_t TrueSize = Lectic.size();
    // Caps below, at, and above the true size.
    for (size_t Cap : {size_t(1), TrueSize / 2 + 1, TrueSize, TrueSize + 5}) {
      SCOPED_TRACE("trial " + std::to_string(Trial) + " cap " +
                   std::to_string(Cap));
      Budget Limits;
      Limits.MaxConcepts = Cap;
      BudgetMeter Meter(Limits);
      LatticeBuildResult R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
      // The kept concepts are the first Cap of the lectic order, in order.
      size_t Kept = std::min(Cap, TrueSize);
      ASSERT_GE(R.Lattice.size(), Kept);
      for (ConceptLattice::NodeId Id = 0; Id < Kept; ++Id)
        EXPECT_TRUE(R.Lattice.node(Id).Intent == Lectic[Id]) << "c" << Id;
      // The flag is exact: a cap covering the whole lattice never trips.
      if (Cap >= TrueSize) {
        EXPECT_FALSE(R.Truncated);
        EXPECT_EQ(R.Lattice.size(), TrueSize);
        EXPECT_TRUE(R.BuildStatus.isOk());
      } else {
        EXPECT_TRUE(R.Truncated);
      }
    }
  }
}

TEST(BudgetBuilderTest, UnlimitedBudgetMatchesUnbudgetedBuild) {
  RNG Rand(0xFEED);
  for (int Trial = 0; Trial < 20; ++Trial) {
    Context Ctx = randomContext(Rand, 9, 9, 0.5);
    ConceptLattice Full = NextClosureBuilder::buildLattice(Ctx);
    Budget Unlimited;
    BudgetMeter Meter(Unlimited);
    LatticeBuildResult R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
    EXPECT_FALSE(R.Truncated);
    EXPECT_TRUE(R.BuildStatus.isOk());
    expectIdentical(Full, R.Lattice);
  }
}

TEST(BudgetBuilderTest, MeetJoinDegradeGracefullyOnTruncatedLattices) {
  Context Ctx = contranominal(10); // 1024 concepts in full.
  Budget Limits;
  Limits.MaxConcepts = 40;
  BudgetMeter Meter(Limits);
  LatticeBuildResult R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
  ASSERT_TRUE(R.Truncated);
  const ConceptLattice &L = R.Lattice;
  for (ConceptLattice::NodeId A = 0; A < L.size(); ++A) {
    for (ConceptLattice::NodeId B = 0; B < L.size(); ++B) {
      ConceptLattice::NodeId M = L.meet(A, B);
      // Best-approximation meet: a concept below both arguments.
      EXPECT_TRUE(L.node(M).Extent.isSubsetOf(L.node(A).Extent));
      EXPECT_TRUE(L.node(M).Extent.isSubsetOf(L.node(B).Extent));
      ConceptLattice::NodeId J = L.join(A, B);
      EXPECT_TRUE(L.node(J).Intent.isSubsetOf(L.node(A).Intent));
      EXPECT_TRUE(L.node(J).Intent.isSubsetOf(L.node(B).Intent));
    }
  }
}

namespace {

/// A small random context (0-12 objects, 0-10 attributes, random density)
/// fixed by \p Seed.
Context seededContext(uint64_t Seed) {
  RNG Rand(Seed * 6364136223846793005ULL + 1442695040888963407ULL);
  size_t O = Rand.nextIndex(13);
  size_t A = Rand.nextIndex(11);
  double Density = 0.05 + 0.9 * Rand.nextDouble();
  Context Ctx(O, A);
  for (size_t I = 0; I < O; ++I)
    for (size_t J = 0; J < A; ++J)
      if (Rand.nextBool(Density))
        Ctx.relate(I, J);
  return Ctx;
}

/// std::bad_alloc containment at the budgeted boundary, driven by the
/// `lattice-oom` failpoint.
class OomContainmentTest : public ::testing::Test {
protected:
  void TearDown() override { Failpoint::reset(); }
};

} // namespace

TEST_F(OomContainmentTest, SerialBuilderKeepsThePrefixAndReportsExhaustion) {
  Context Ctx = seededContext(4242);
  ASSERT_TRUE(Failpoint::configure("lattice-oom=error@4").isOk());
  BudgetMeter Meter{Budget{}};
  LatticeBuildResult R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
  EXPECT_TRUE(R.Truncated);
  EXPECT_EQ(ErrorCode::ResourceExhausted, R.BuildStatus.code());
  EXPECT_NE(std::string::npos, R.BuildStatus.message().find("memory"));
  std::string Why;
  EXPECT_TRUE(R.Lattice.verify(Ctx, &Why)) << Why;
  EXPECT_GE(R.Lattice.size(), 2u); // Top and bottom survive at minimum.
}
