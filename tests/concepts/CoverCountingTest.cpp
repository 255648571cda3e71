//===- tests/concepts/CoverCountingTest.cpp --------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential oracle for neighbour-counted covers (computeCovers): over
// the same concepts, the counted lattice must have byte-for-byte the
// parents()/children() lists and serialize() bytes of the pairwise
// coversAt scan, and for every concept (A, B) and attribute m outside B,
// the ExtentIndex lookup of A ∩ col(m) must be the concept whose intent
// is closeIntent(B ∪ {m}). Inputs: 200 seeded random contexts (in lectic
// and in shuffled concept order), the degenerate corners, every Table 3
// session, two wide unordered-FA contexts (the second at the
// wide_session scale), and a sk-strings-mined NFA context whose sparse
// rows make generator pruning fire.
//
//===----------------------------------------------------------------------===//

#include "concepts/Covers.h"
#include "concepts/NextClosureBuilder.h"

#include "cable/Session.h"
#include "fa/Templates.h"
#include "miner/Miner.h"
#include "miner/ScenarioExtractor.h"
#include "support/Metrics.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Protocols.h"
#include "workload/ReferenceFA.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>

using namespace cable;

namespace {

std::vector<Concept> conceptsOf(const Context &Ctx) {
  std::vector<Concept> Out;
  for (BitVector &Intent : NextClosureBuilder::allClosedIntents(Ctx)) {
    Concept C;
    C.Extent = Ctx.tau(Intent);
    C.Intent = std::move(Intent);
    Out.push_back(std::move(C));
  }
  return Out;
}

std::vector<Concept> conceptsOf(const ConceptLattice &L) {
  std::vector<Concept> Out;
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id)
    Out.push_back(L.node(Id));
  return Out;
}

/// Asserts that each generator's extent lookup is its closure: for every
/// concept (A, B) and m outside B, the indexed concept with extent
/// A ∩ col(m) has intent closeIntent(B ∪ {m}).
void expectLookupsAreClosures(const Context &Ctx,
                              const std::vector<Concept> &Concepts,
                              const std::string &What) {
  ExtentIndex Index(Concepts);
  for (const Concept &C : Concepts)
    for (size_t M = 0; M < Ctx.numAttributes(); ++M) {
      if (C.Intent.test(M))
        continue;
      BitVector Generated = C.Intent;
      Generated.set(M);
      ExtentIndex::NodeId D = Index.find(C.Extent & Ctx.attributeCol(M));
      ASSERT_NE(D, ExtentIndex::NoNode) << What << " m" << M;
      ASSERT_EQ(Concepts[D].Intent, Ctx.closeIntent(Generated))
          << What << " m" << M;
    }
}

/// Asserts counted covers over \p Concepts equal the scan's, in lists and
/// in artifact bytes, and that every lookup is its closure. With \p Verify,
/// also checks the counted lattice against the context (O(n^3): small
/// cases only).
void expectCountingMatchesScan(const Context &Ctx,
                               const std::vector<Concept> &Concepts,
                               const std::string &What, bool Verify) {
  ConceptLattice Oracle = ConceptLattice::fromConcepts(Concepts);
  LatticeArtifactMeta Meta;
  Meta.ContextHash = Ctx.contentHash();
  Meta.Builder = "nextclosure";
  Meta.Budget = "full";
  Meta.NumObjects = Ctx.numObjects();
  Meta.NumAttributes = Ctx.numAttributes();
  ConceptLattice L = ConceptLattice::fromConcepts(Ctx, Concepts);
  ASSERT_EQ(L.size(), Oracle.size()) << What;
  EXPECT_EQ(L.top(), Oracle.top()) << What;
  EXPECT_EQ(L.bottom(), Oracle.bottom()) << What;
  for (ConceptLattice::NodeId Id = 0; Id < L.size(); ++Id) {
    ASSERT_EQ(L.parents(Id), Oracle.parents(Id)) << What << " c" << Id;
    ASSERT_EQ(L.children(Id), Oracle.children(Id)) << What << " c" << Id;
  }
  EXPECT_EQ(L.serialize(Meta), Oracle.serialize(Meta)) << What;
  expectLookupsAreClosures(Ctx, Concepts, What);
  if (Verify) {
    std::string Why;
    EXPECT_TRUE(L.verify(Ctx, &Why)) << What << ": " << Why;
  }
}

void expectCountingMatchesScan(const Context &Ctx, const std::string &What,
                               bool Verify = true) {
  expectCountingMatchesScan(Ctx, conceptsOf(Ctx), What, Verify);
}

Context seededContext(uint64_t Seed) {
  RNG Rand(Seed * 0x9E3779B97F4A7C15ULL + 7);
  size_t O = Rand.nextIndex(15);
  size_t A = Rand.nextIndex(13);
  double Density = 0.05 + 0.9 * Rand.nextDouble();
  Context Ctx(O, A);
  for (size_t I = 0; I < O; ++I)
    for (size_t J = 0; J < A; ++J)
      if (Rand.nextBool(Density))
        Ctx.relate(I, J);
  return Ctx;
}

/// Checks a session's own lattice (built on the session's NextClosure path)
/// and a re-count over its concepts against the scan.
void expectSessionMatchesScan(const Session &S, const std::string &What) {
  std::vector<Concept> Concepts = conceptsOf(S.lattice());
  ConceptLattice Oracle = ConceptLattice::fromConcepts(Concepts);
  for (ConceptLattice::NodeId Id = 0; Id < Oracle.size(); ++Id) {
    ASSERT_EQ(S.lattice().parents(Id), Oracle.parents(Id)) << What;
    ASSERT_EQ(S.lattice().children(Id), Oracle.children(Id)) << What;
  }
  expectCountingMatchesScan(S.context(), Concepts, What, /*Verify=*/false);
}

/// XtFree scenarios with a \p PoolWidth-event optional pool, deduplicated,
/// in a session against the unordered template.
Session unorderedFASession(size_t PoolWidth, size_t Scenarios) {
  ProtocolModel M = protocolByName("XtFree");
  std::vector<ProtoEvent> Uses;
  for (size_t I = 0; I < PoolWidth; ++I)
    Uses.push_back(ProtoEvent{"Use" + std::to_string(I), {0}});
  M.Shapes[0].second.Steps[1] = ShapeStep::optional(Uses, 0.5);
  EventTable Table;
  WorkloadGenerator Gen(M, Table);
  RNG Rand(44);
  TraceSet Unique = Gen.generateScenarios(Rand, Scenarios).dedup();
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Unique.traces()), Unique.table());
  return Session(std::move(Unique), std::move(Ref));
}

} // namespace

class CoverCountingTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoverCountingTest, MatchesScanInLecticOrder) {
  Context Ctx = seededContext(GetParam());
  expectCountingMatchesScan(Ctx, "seed " + std::to_string(GetParam()));
}

TEST_P(CoverCountingTest, MatchesScanInShuffledOrder) {
  // Node ids out of lectic order exercise the scan-rank sort.
  Context Ctx = seededContext(GetParam());
  std::vector<Concept> Concepts = conceptsOf(Ctx);
  RNG Rand(GetParam() + 1);
  Rand.shuffle(Concepts);
  expectCountingMatchesScan(Ctx, Concepts,
                            "shuffled seed " + std::to_string(GetParam()),
                            /*Verify=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverCountingTest,
                         ::testing::Range<uint64_t>(0, 200));

TEST(CoverScanOrderTest, AscendingCardinalityThenId) {
  RNG Rand(5);
  for (size_t N : {0, 1, 2, 17, 500}) {
    std::vector<size_t> Card(N);
    for (size_t &C : Card)
      C = Rand.nextIndex(1 + N / 4);
    std::vector<ConceptLattice::NodeId> Want(N);
    std::iota(Want.begin(), Want.end(), 0);
    std::sort(Want.begin(), Want.end(), [&](auto A, auto B) {
      return Card[A] != Card[B] ? Card[A] < Card[B] : A < B;
    });
    EXPECT_EQ(ConceptLattice::coverScanOrder(Card), Want) << N;
  }
}

TEST(ExtentIndexTest, SharedTagIsResolvedByExtent) {
  // Two one-word extents whose hashes agree on the tag and on the home
  // slot of a two-concept index (four slots: the top two hash bits), found
  // by search. The second one's probe passes the first one's slot, so
  // only the mark keeps its lookup from stopping there.
  std::unordered_map<uint64_t, uint64_t> Seen;
  RNG Rand(1);
  uint64_t First = 0, Second = 0;
  while (First == Second) {
    uint64_t Word = Rand.next();
    uint64_t H = ExtentIndex::hashFinish(
        ExtentIndex::hashStep(ExtentIndex::HashSeed, Word));
    uint64_t Key = (H >> 62) << 32 | (static_cast<uint32_t>(H) & ~1u);
    auto [It, Inserted] = Seen.emplace(Key, Word);
    if (!Inserted && It->second != Word) {
      First = It->second;
      Second = Word;
    }
  }
  std::vector<Concept> Concepts(2);
  for (Concept &C : Concepts)
    C.Extent = BitVector(64);
  Concepts[0].Extent.words()[0] = First;
  Concepts[1].Extent.words()[0] = Second;
  ExtentIndex Index(Concepts);
  EXPECT_EQ(Index.find(Concepts[0].Extent), 0u);
  EXPECT_EQ(Index.find(Concepts[1].Extent), 1u);
}

TEST(CoverCountingDegenerateTest, EmptyContext) {
  expectCountingMatchesScan(Context(0, 0), "0x0");
}

TEST(CoverCountingDegenerateTest, ObjectsWithoutAttributes) {
  expectCountingMatchesScan(Context(6, 0), "6x0");
}

TEST(CoverCountingDegenerateTest, AttributesWithoutObjects) {
  expectCountingMatchesScan(Context(0, 7), "0x7");
}

TEST(CoverCountingDegenerateTest, SingleAttribute) {
  Context Ctx(5, 1);
  Ctx.relate(1, 0);
  Ctx.relate(3, 0);
  expectCountingMatchesScan(Ctx, "5x1");
}

TEST(CoverCountingDegenerateTest, Contranominal12) {
  // The powerset lattice: 4096 concepts, every intent covered by |M \ B|
  // single-attribute extensions.
  Context Ctx(12, 12);
  for (size_t O = 0; O < 12; ++O)
    for (size_t A = 0; A < 12; ++A)
      if (O != A)
        Ctx.relate(O, A);
  expectCountingMatchesScan(Ctx, "contranominal 12", /*Verify=*/false);
}

TEST(CoverCountingDegenerateTest, NonEmptyBottomExtent) {
  // Object 0 has every attribute, so tau(M) is non-empty and no
  // generator may be pruned.
  RNG Rand(11);
  Context Ctx(8, 9);
  for (size_t A = 0; A < 9; ++A)
    Ctx.relate(0, A);
  for (size_t O = 1; O < 8; ++O)
    for (size_t A = 0; A < 9; ++A)
      if (Rand.nextBool(0.3))
        Ctx.relate(O, A);
  Metrics::setEnabled(true);
  Metrics::reset();
  expectCountingMatchesScan(Ctx, "non-empty bottom extent");
  EXPECT_EQ(Metrics::counterValue("lattice.cover-pruned"), 0u);
  EXPECT_GT(Metrics::counterValue("lattice.cover-closures"), 0u);
  Metrics::setEnabled(false);
  Metrics::reset();
}

TEST(CoverCountingDegenerateTest, DuplicateRowsAndColumns) {
  Context Ctx(8, 8);
  for (size_t O = 0; O < 8; ++O)
    for (size_t A = 0; A < 8; ++A)
      if ((O / 2 + A / 2) % 2 == 0)
        Ctx.relate(O, A);
  expectCountingMatchesScan(Ctx, "duplicate rows/columns");
}

TEST(CoverCountingDegenerateTest, FullAndEmptyRelation) {
  Context Full(4, 5);
  for (size_t O = 0; O < 4; ++O)
    for (size_t A = 0; A < 5; ++A)
      Full.relate(O, A);
  expectCountingMatchesScan(Full, "full relation");
  expectCountingMatchesScan(Context(4, 5), "empty relation");
}

TEST(CoverCountingWorkloadTest, AllTable3Sessions) {
  // The Table 3 evaluation sessions, built as the table binaries build
  // them: scenarios extracted from each protocol's runs, against its
  // reference FA.
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
    expectSessionMatchesScan(S, Model.Name);
  }
}

TEST(CoverCountingWorkloadTest, WideUnorderedFAContext) {
  // XtFree with a ten-event optional pool against the unordered template:
  // the §5.2 shape, thousands of concepts.
  Session S = unorderedFASession(10, 300);
  ASSERT_GT(S.lattice().size(), 500u);
  expectSessionMatchesScan(S, "wide unordered FA");
}

TEST(CoverCountingWorkloadTest, WideSessionScaleContext) {
  // The wide_session shape: a nine-event pool and 1000 scenarios, so
  // extents span 16 words.
  Session S = unorderedFASession(9, 1000);
  ASSERT_GT(S.numObjects(), 15u * 64);
  ASSERT_GT(S.lattice().size(), 3000u);
  expectSessionMatchesScan(S, "wide_session scale");
}

TEST(CoverCountingWorkloadTest, MinedNFAContextPrunesGenerators) {
  // A sk-strings-mined reference FA: many transitions, each trace
  // executing few of them, so most concepts' objects miss most
  // attributes and pruning must fire.
  const ProtocolModel &Model = protocolByName("XtFree");
  RNG Rand(7);
  EventTable Table;
  WorkloadGenerator Gen(Model, Table);
  TraceSet Runs = Gen.generateRuns(Rand);
  MinerOptions Options;
  Options.Extract.SeedNames = Model.Seeds;
  Options.Learn.S = 1.0;
  Miner Mine(Options);
  TraceSet Scenarios = Mine.extract(Runs);
  Specification Mined =
      Mine.learn(Scenarios.traces(), Scenarios.table(), Model.Name);
  Session S(std::move(Scenarios), Mined.FA);
  const Context &Ctx = S.context();
  ASSERT_GT(Ctx.numAttributes(), 64u);

  Metrics::setEnabled(true);
  Metrics::reset();
  std::vector<Concept> Concepts = conceptsOf(S.lattice());
  CoverLists Covers = computeCovers(Ctx, Concepts);
  uint64_t Pruned = Metrics::counterValue("lattice.cover-pruned");
  uint64_t Closures = Metrics::counterValue("lattice.cover-closures");
  uint64_t Edges = Metrics::counterValue("lattice.cover-edges");
  uint64_t TauCalls = Metrics::counterValue("context.tau-calls");
  uint64_t SigmaCalls = Metrics::counterValue("context.sigma-calls");
  Metrics::setEnabled(false);
  Metrics::reset();

  EXPECT_GT(Pruned, 0u);
  // Every generator m outside an intent is either closed or pruned.
  uint64_t Generators = 0;
  for (const Concept &C : Concepts)
    Generators += Ctx.numAttributes() - C.Intent.count();
  EXPECT_EQ(Closures + Pruned, Generators);
  // Covers look extents up: they evaluate no derivation operator.
  EXPECT_GT(Closures, 0u);
  EXPECT_EQ(TauCalls, 0u);
  EXPECT_EQ(SigmaCalls, 0u);
  uint64_t NumEdges = 0;
  for (const auto &P : Covers.Parents)
    NumEdges += P.size();
  EXPECT_EQ(Edges, NumEdges);
  expectSessionMatchesScan(S, "mined NFA");
}
