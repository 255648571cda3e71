//===- tests/learner/SkStringsTest.cpp -------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "learner/SkStrings.h"

#include "../TestHelpers.h"
#include "learner/SkStringsReference.h"
#include "miner/ScenarioExtractor.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"

#include <gtest/gtest.h>

#include <map>

using namespace cable;
using cable::test::makeTrace;
using cable::test::parseTraces;

TEST(SkStringsTest, AcceptsAllTrainingTraces) {
  TraceSet TS = parseTraces("open(v0) read(v0) close(v0)\n"
                            "open(v0) write(v0) close(v0)\n"
                            "open(v0) close(v0)\n");
  Automaton FA = learnSkStringsFA(TS.traces(), TS.table());
  for (const Trace &T : TS.traces())
    EXPECT_TRUE(FA.accepts(T, TS.table())) << T.render(TS.table());
}

TEST(SkStringsTest, GeneralizesRepetition) {
  // Fig. 8's point: traces with 0..3 reads should induce an FA accepting
  // unboundedly many reads once states merge.
  TraceSet TS = parseTraces("open(v0) close(v0)\n"
                            "open(v0) read(v0) close(v0)\n"
                            "open(v0) read(v0) read(v0) close(v0)\n"
                            "open(v0) read(v0) read(v0) read(v0) close(v0)\n");
  SkStringsOptions Options;
  Options.K = 2;
  Options.S = 1.0;
  Options.Agreement = SkStringsOptions::Variant::AND;
  Automaton FA = learnSkStringsFA(TS.traces(), TS.table(), Options);
  Trace Longer = makeTrace(
      TS.table(),
      "open(v0) read(v0) read(v0) read(v0) read(v0) read(v0) close(v0)");
  EXPECT_TRUE(FA.accepts(Longer, TS.table()))
      << "merging must generalize the read loop:\n"
      << FA.renderText(TS.table());
}

TEST(SkStringsTest, MergingReducesStates) {
  TraceSet TS = parseTraces("a b\n"
                            "a a b\n"
                            "a a a b\n"
                            "a a a a b\n");
  CountedAutomaton PTA = CountedAutomaton::buildPTA(TS.traces());
  CountedAutomaton Merged = learnSkStrings(TS.traces());
  EXPECT_LT(Merged.numStates(), PTA.numStates());
}

TEST(SkStringsTest, KeepsDistinctProtocolsApartWithStrictS) {
  // fopen...fclose vs popen...pclose: with s = 1 and AND agreement, the
  // closing events differ, so the final states must not merge into
  // something accepting the cross products.
  TraceSet TS = parseTraces("fopen(v0) fclose(v0)\n"
                            "popen(v0) pclose(v0)\n");
  SkStringsOptions Options;
  Options.K = 2;
  Options.S = 1.0;
  Automaton FA = learnSkStringsFA(TS.traces(), TS.table(), Options);
  EXPECT_TRUE(FA.accepts(makeTrace(TS.table(), "fopen(v0) fclose(v0)"),
                         TS.table()));
  EXPECT_TRUE(FA.accepts(makeTrace(TS.table(), "popen(v0) pclose(v0)"),
                         TS.table()));
  EXPECT_FALSE(FA.accepts(makeTrace(TS.table(), "popen(v0) fclose(v0)"),
                          TS.table()))
      << FA.renderText(TS.table());
}

TEST(SkStringsTest, EmptyAndSingletonInputs) {
  EventTable T;
  Automaton None = learnSkStringsFA({}, T);
  EXPECT_FALSE(None.accepts(Trace(), T));
  TraceSet TS = parseTraces("a\n");
  Automaton One = learnSkStringsFA(TS.traces(), TS.table());
  EXPECT_TRUE(One.accepts(TS[0], TS.table()));
  EXPECT_FALSE(One.accepts(Trace(), TS.table()));
}

TEST(SkStringsTest, AllVariantsProduceValidLearners) {
  // Every agreement variant must stay within the PTA's size and keep
  // accepting the training set. (OR agreement is weaker than AND, so it
  // merges at least as eagerly on any single test; final sizes depend on
  // merge order, so only the sound bounds are asserted.)
  TraceSet TS = parseTraces("a b c\n"
                            "a c\n"
                            "b b c\n"
                            "b c c\n"
                            "a b b c\n");
  size_t PTAStates = CountedAutomaton::buildPTA(TS.traces()).numStates();
  for (auto V :
       {SkStringsOptions::Variant::AND, SkStringsOptions::Variant::OR,
        SkStringsOptions::Variant::LAX}) {
    SkStringsOptions Options;
    Options.K = 2;
    Options.S = 0.5;
    Options.Agreement = V;
    CountedAutomaton Learned = learnSkStrings(TS.traces(), Options);
    EXPECT_LE(Learned.numStates(), PTAStates);
    Automaton FA = Learned.toAutomaton(TS.table());
    for (const Trace &T : TS.traces())
      EXPECT_TRUE(FA.accepts(T, TS.table()));
  }
}

/// Property: whatever the options, the learner accepts every training
/// trace (the sk-strings guarantee Cable's Show FA summary relies on).
class SkStringsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SkStringsPropertyTest, AlwaysAcceptsTrainingSet) {
  RNG Rand(GetParam());
  EventTable T;
  std::vector<std::string> Names{"a", "b", "c", "d"};
  std::vector<Trace> Traces;
  size_t N = 1 + Rand.nextIndex(12);
  for (size_t I = 0; I < N; ++I) {
    Trace Tr;
    size_t Len = Rand.nextIndex(7);
    for (size_t J = 0; J < Len; ++J)
      Tr.append(T.internEvent(Names[Rand.nextIndex(Names.size())]));
    Traces.push_back(std::move(Tr));
  }
  SkStringsOptions Options;
  Options.K = 1 + static_cast<unsigned>(Rand.nextIndex(3));
  Options.S = 0.3 + 0.7 * Rand.nextDouble();
  Options.Agreement = static_cast<SkStringsOptions::Variant>(
      Rand.nextIndex(3));
  Automaton FA = learnSkStringsFA(Traces, T, Options);
  for (const Trace &Tr : Traces)
    EXPECT_TRUE(FA.accepts(Tr, T))
        << "k=" << Options.K << " s=" << Options.S << " trace '"
        << Tr.render(T) << "'\n"
        << FA.renderText(T);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkStringsPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));

/// Differential oracle: learnSkStrings (incremental quotient, cached
/// k-string tables) against learnSkStringsReference (rebuild everything),
/// byte for byte: the same states, final counts, and edges in the same
/// order with the same counts. Each shard takes a slice of the protocols
/// and 250 random trace sets.
class SkStringsDifferentialTest : public ::testing::TestWithParam<size_t> {
public:
  static constexpr size_t Shards = 20;
  static constexpr size_t RandomSetsPerShard = 250;
};

namespace {

std::string describe(const SkStringsOptions &O) {
  static const char *Names[] = {"AND", "OR", "LAX"};
  return "k=" + std::to_string(O.K) + " s=" + std::to_string(O.S) + " " +
         Names[static_cast<int>(O.Agreement)] +
         " cap=" + std::to_string(O.MaxStringsPerState);
}

/// True when both learners return the same automaton; on a mismatch,
/// reports where the two first differ.
::testing::AssertionResult sameAsReference(const std::vector<Trace> &Traces,
                                           const SkStringsOptions &Options) {
  CountedAutomaton Got = learnSkStrings(Traces, Options);
  CountedAutomaton Want = learnSkStringsReference(Traces, Options);
  auto Fail = [&](const std::string &What) {
    return ::testing::AssertionFailure()
           << describe(Options) << ", " << Traces.size()
           << " traces: " << What;
  };
  if (Got.numStates() != Want.numStates())
    return Fail("states " + std::to_string(Got.numStates()) + " vs " +
                std::to_string(Want.numStates()));
  for (StateId S = 0; S < Want.numStates(); ++S)
    if (Got.finalCount(S) != Want.finalCount(S))
      return Fail("final count of state " + std::to_string(S));
  if (Got.numEdges() != Want.numEdges())
    return Fail("edges " + std::to_string(Got.numEdges()) + " vs " +
                std::to_string(Want.numEdges()));
  for (size_t I = 0; I < Want.numEdges(); ++I) {
    const CountedAutomaton::Edge &G = Got.edge(I), &W = Want.edge(I);
    if (G.From != W.From || G.To != W.To || G.Symbol != W.Symbol ||
        G.Count != W.Count)
      return Fail("edge " + std::to_string(I));
  }
  for (StateId S = 0; S < Want.numStates(); ++S)
    if (Got.outgoing(S) != Want.outgoing(S))
      return Fail("out-edge order of state " + std::to_string(S));
  return ::testing::AssertionSuccess();
}

/// A protocol's scenario set as the remine workload mines it, then the
/// good families it re-mines: the unique correct scenarios grouped by
/// their first event.
std::vector<std::vector<Trace>> protocolTraceSets(const ProtocolModel &Model) {
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
  TraceSet Scenarios = extractScenarios(Runs, Extract);
  TraceSet Unique = Scenarios.dedup();
  Oracle Truth(Model, Unique.table());
  std::map<int64_t, std::vector<Trace>> Families;
  for (const Trace &T : Unique.traces())
    if (Truth.isCorrect(T, Unique.table()))
      Families[T.empty() ? -1 : Unique.table().event(T[0]).Name].push_back(T);
  std::vector<std::vector<Trace>> Sets{Scenarios.traces()};
  for (auto &[First, Family] : Families)
    Sets.push_back(std::move(Family));
  return Sets;
}

/// Up to 16 traces of up to 9 events over an alphabet of 1-5.
std::vector<Trace> randomTraces(RNG &Rand, EventTable &T) {
  size_t Alphabet = 1 + Rand.nextIndex(5);
  std::vector<Trace> Traces(Rand.nextIndex(17));
  for (Trace &Tr : Traces)
    for (size_t J = 0, Len = Rand.nextIndex(10); J < Len; ++J)
      Tr.append(T.internEvent(std::string(1, 'a' + Rand.nextIndex(Alphabet))));
  return Traces;
}

/// One random differential case, drawn entirely from \p Seed.
void checkRandomCase(uint64_t Seed) {
  RNG Rand(Seed);
  EventTable T;
  std::vector<Trace> Traces = randomTraces(Rand, T);
  SkStringsOptions Options;
  Options.K = 1 + static_cast<unsigned>(Rand.nextIndex(3));
  Options.S = Rand.nextBool(0.5) ? 1.0 : 1.0 - Rand.nextDouble();
  Options.Agreement =
      static_cast<SkStringsOptions::Variant>(Rand.nextIndex(3));
  // Now and then a small cap, so the enumeration stops early.
  if (Rand.nextBool(0.125))
    Options.MaxStringsPerState = Rand.nextIndex(6);
  EXPECT_TRUE(sameAsReference(Traces, Options)) << "seed " << Seed;
}

} // namespace

/// Every variant at s = 1.0 and 0.5 for k = 1 and the production k = 2;
/// k = 3 at s = 1.0 under AND and OR only, because the reference needs
/// seconds for LAX or s = 0.5 on RegionsBig's 360 scenarios. The random
/// sets below cover k = 3 with every variant and s.
TEST_P(SkStringsDifferentialTest, ProtocolCorpora) {
  using V = SkStringsOptions::Variant;
  std::vector<SkStringsOptions> Sweep;
  for (unsigned K : {1u, 2u})
    for (double S : {1.0, 0.5})
      for (V Agreement : {V::AND, V::OR, V::LAX})
        Sweep.push_back({K, S, Agreement});
  Sweep.push_back({3, 1.0, V::AND});
  Sweep.push_back({3, 1.0, V::OR});
  const std::vector<ProtocolModel> &Models = allProtocols();
  for (size_t M = GetParam(); M < Models.size(); M += Shards)
    for (const std::vector<Trace> &Set : protocolTraceSets(Models[M]))
      for (const SkStringsOptions &Options : Sweep)
        EXPECT_TRUE(sameAsReference(Set, Options)) << Models[M].Name;
}

TEST_P(SkStringsDifferentialTest, RandomTraceSets) {
  for (size_t I = 0; I < RandomSetsPerShard; ++I)
    checkRandomCase(GetParam() * RandomSetsPerShard + I);
}

/// Cases that diverge from the reference when a merge drops the cached
/// tables only k - 1 steps back from the merged class instead of k; found
/// by running checkRandomCase on seeds 0-49,999 with that radius.
TEST(SkStringsInvalidationTest, RadiusIsK) {
  for (uint64_t Seed : {6833, 12118, 15734, 37849})
    checkRandomCase(Seed);
}

/// The key widths no other case reaches: the lone slot of k = 0, a full
/// 128-bit key at k = 4, and the symbol-vector keys beyond it.
TEST(SkStringsKeyWidthTest, MatchesReference) {
  for (uint64_t Seed = 0; Seed < 200; ++Seed) {
    RNG Rand(Seed);
    EventTable T;
    std::vector<Trace> Traces = randomTraces(Rand, T);
    SkStringsOptions Options;
    Options.K = std::vector<unsigned>{0, 4, 5, 6}[Seed % 4];
    Options.S = Rand.nextBool(0.5) ? 1.0 : 1.0 - Rand.nextDouble();
    Options.Agreement =
        static_cast<SkStringsOptions::Variant>(Rand.nextIndex(3));
    EXPECT_TRUE(sameAsReference(Traces, Options)) << "seed " << Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shards, SkStringsDifferentialTest,
    ::testing::Range<size_t>(0, SkStringsDifferentialTest::Shards));
