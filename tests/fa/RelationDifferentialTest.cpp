//===- tests/fa/RelationDifferentialTest.cpp -------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The relation R by match lists (RelationScanner, and the one-trace
// Automaton::executedTransitions) against the three-pass oracle
// executedTransitionsReference, row for row, and acceptance by R's backward
// pass (RelationScanner::accepts, and the one-trace Automaton::accepts)
// against the forward walk acceptsReference: on every session context of
// the 17 protocols plus stdio (the CLI's scenarios under the unordered and
// the recommended reference FA, and Table 3's extracted scenarios), on the
// sk-strings NFAs the mine/re-mine loop learns, on the focus templates, on
// seeded random NFAs with several start and accepting states, and on the
// empty trace, rejected traces and events no label matches. A session's
// context hash and rejected list must equal the ones the oracle's rows give.
//
//===----------------------------------------------------------------------===//

#include "fa/AutomatonReference.h"

#include "../TestHelpers.h"
#include "cable/Session.h"
#include "fa/Templates.h"
#include "learner/SkStrings.h"
#include "miner/ScenarioExtractor.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/ReferenceFA.h"

#include <gtest/gtest.h>

using namespace cable;
using namespace cable::test;

namespace {

std::string render(const BitVector &Row) {
  std::string Out = "{";
  for (size_t A : Row)
    Out += " " + std::to_string(A);
  return Out + " } of " + std::to_string(Row.size());
}

/// One scanner over all of \p Traces, as Session::init uses it, and the
/// one-trace calls, each against the oracles: R and acceptance. The scanner
/// alternates between the two, as a caller may.
void expectSameRelation(const Automaton &FA, const std::vector<Trace> &Traces,
                        const EventTable &Table, const std::string &What) {
  RelationScanner Scanner(FA, Table);
  for (size_t I = 0; I < Traces.size(); ++I) {
    BitVector Want = executedTransitionsReference(FA, Traces[I], Table);
    const BitVector &Got = Scanner.executed(Traces[I]);
    EXPECT_TRUE(Got == Want) << What << ", trace " << I << ": "
                             << render(Got) << " vs " << render(Want);
    EXPECT_TRUE(FA.executedTransitions(Traces[I], Table) == Want)
        << What << ", trace " << I << " (one-trace call)";
    bool Accepted = acceptsReference(FA, Traces[I], Table);
    EXPECT_EQ(Scanner.accepts(Traces[I]), Accepted)
        << What << ", trace " << I << " (acceptance)";
    EXPECT_EQ(FA.accepts(Traces[I], Table), Accepted)
        << What << ", trace " << I << " (one-trace acceptance)";
  }
}

/// Builds a session and expects its context and rejected list to be the
/// ones the oracle's rows give, and the scanner to agree with both oracles
/// on its objects.
void expectSessionMatchesOracle(TraceSet Traces, Automaton Ref,
                                const std::string &What) {
  Session S(std::move(Traces), std::move(Ref));
  const Automaton &FA = S.referenceFA();
  Context Want(S.numObjects(), FA.numTransitions());
  std::vector<size_t> Rejected;
  std::vector<Trace> Objects;
  for (size_t Obj = 0; Obj < S.numObjects(); ++Obj) {
    Objects.push_back(S.object(Obj));
    BitVector Row = executedTransitionsReference(FA, S.object(Obj), S.table());
    if (Row.none() && !S.object(Obj).empty())
      Rejected.push_back(Obj);
    for (size_t A : Row)
      Want.relate(Obj, A);
    for (size_t A = 0; A < FA.numTransitions(); ++A)
      ASSERT_EQ(S.context().related(Obj, A), Row.test(A))
          << What << ", object " << Obj << ", transition " << A;
  }
  EXPECT_EQ(S.context().contentHash(), Want.contentHash()) << What;
  EXPECT_EQ(S.rejectedObjects(), Rejected) << What;
  expectSameRelation(FA, Objects, S.table(), What + " objects");
}

/// The 17 protocols and stdio.
std::vector<ProtocolModel> protocols() {
  std::vector<ProtocolModel> Out = allProtocols();
  Out.push_back(stdioProtocol());
  return Out;
}

/// The seed the table binaries generate a protocol's runs from.
uint64_t nameSeed(const std::string &Name) {
  uint64_t Seed = 0xcbf29ce484222325ULL;
  for (char C : Name) {
    Seed ^= static_cast<unsigned char>(C);
    Seed *= 0x100000001b3ULL;
  }
  return Seed;
}

/// The scenarios `cable-cli --protocol` generates.
TraceSet cliScenarios(const ProtocolModel &Model) {
  EventTable Table;
  WorkloadGenerator Gen(Model, Table);
  RNG Rand(0xC11);
  return Gen.generateScenarios(Rand, Model.NumRuns * Model.ScenariosPerRun);
}

/// The scenarios extracted from the protocol's generated runs.
TraceSet extracted(const ProtocolModel &Model, bool Transitive) {
  RNG Rand(nameSeed(Model.Name));
  EventTable Table;
  WorkloadGenerator Gen(Model, Table);
  TraceSet Runs = Gen.generateRuns(Rand);
  ExtractorOptions Options;
  Options.SeedNames = Model.Seeds;
  Options.TransitiveValues = Transitive;
  return extractScenarios(Runs, Options);
}

/// A random NFA over \p Names with values below 3: 1-10 states, several
/// start and accepting states, Exact (concrete and `*` arguments), NameAny
/// and wildcard labels.
Automaton randomNFA(RNG &Rand, const std::vector<NameId> &Names) {
  Automaton FA;
  size_t States = 1 + Rand.nextIndex(10);
  for (size_t S = 0; S < States; ++S) {
    StateId Id = FA.addState();
    if (S == 0 || Rand.nextIndex(4) == 0)
      FA.setStart(Id);
    if (Rand.nextIndex(3) == 0)
      FA.setAccepting(Id);
  }
  size_t Transitions = Rand.nextIndex(4 * States + 1);
  for (size_t T = 0; T < Transitions; ++T) {
    StateId From = static_cast<StateId>(Rand.nextIndex(States));
    StateId To = static_cast<StateId>(Rand.nextIndex(States));
    NameId Name = Names[Rand.nextIndex(Names.size())];
    TransitionLabel Label;
    switch (Rand.nextIndex(6)) {
    case 0:
      Label = TransitionLabel::wildcard();
      break;
    case 1:
      Label = TransitionLabel::nameAny(Name);
      break;
    default: {
      std::vector<ArgPattern> Args;
      for (size_t K = Rand.nextIndex(3); K > 0; --K)
        Args.push_back(Rand.nextIndex(3) == 0
                           ? ArgPattern::any()
                           : ArgPattern::value(
                                 static_cast<ValueId>(Rand.nextIndex(3))));
      Label = TransitionLabel::exact(Name, std::move(Args));
    }
    }
    FA.addTransition(From, To, std::move(Label));
  }
  return FA;
}

} // namespace

TEST(RelationDifferentialTest, ProtocolSessionContexts) {
  for (const ProtocolModel &Model : protocols()) {
    SCOPED_TRACE(Model.Name);
    {
      TraceSet Traces = cliScenarios(Model);
      Automaton Ref = makeUnorderedFA(templateAlphabet(Traces.traces()),
                                      Traces.table());
      expectSessionMatchesOracle(std::move(Traces), std::move(Ref),
                                 "unordered");
    }
    {
      TraceSet Traces = cliScenarios(Model);
      Automaton Ref =
          makeProtocolReferenceFA(Traces.traces(), Traces.table(), Model);
      expectSessionMatchesOracle(std::move(Traces), std::move(Ref),
                                 "recommended");
    }
    {
      TraceSet Traces = extracted(Model, /*Transitive=*/true);
      Automaton Ref =
          makeProtocolReferenceFA(Traces.traces(), Traces.table(), Model);
      expectSessionMatchesOracle(std::move(Traces), std::move(Ref),
                                 "table3 extraction");
    }
  }
}

TEST(RelationDifferentialTest, MinedNFAsOverTheirScenarios) {
  SkStringsOptions Options;
  Options.S = 1.0;
  for (const ProtocolModel &Model : protocols()) {
    SCOPED_TRACE(Model.Name);
    TraceSet Scenarios = extracted(Model, /*Transitive=*/false);
    Automaton Mined =
        learnSkStringsFA(Scenarios.traces(), Scenarios.table(), Options);
    expectSameRelation(Mined, Scenarios.traces(), Scenarios.table(),
                       "mined NFA");
    // The remine loop's session: the mined FA as the reference FA.
    expectSessionMatchesOracle(std::move(Scenarios), std::move(Mined),
                               "mined session");
  }
}

TEST(RelationDifferentialTest, FocusTemplates) {
  for (const ProtocolModel &Model : protocols()) {
    SCOPED_TRACE(Model.Name);
    TraceSet Traces = cliScenarios(Model);
    EventTable &Table = Traces.table();
    std::vector<EventId> Alphabet = templateAlphabet(Traces.traces());
    expectSameRelation(makeUnorderedFA(Alphabet, Table), Traces.traces(),
                       Table, "unordered");
    for (size_t K = 0; K < Alphabet.size() && K < 4; ++K)
      expectSameRelation(makeSeedOrderFA(Alphabet, Alphabet[K], Table),
                         Traces.traces(), Table, "seed order");
    for (ValueId V = 0; V < 3; ++V)
      expectSameRelation(makeNameProjectionFA(Alphabet, V, Table),
                         Traces.traces(), Table, "name projection");
    // NameAny self-loops on every name but the first event's, so traces
    // holding that name are rejected; then the same with `*` arguments.
    Automaton NameAny, AnyArgs;
    StateId Q = NameAny.addState(), R = AnyArgs.addState();
    NameAny.setStart(Q);
    NameAny.setAccepting(Q);
    AnyArgs.setStart(R);
    AnyArgs.setAccepting(R);
    for (NameId N = 0; N < Table.numNames(); ++N) {
      if (N == Table.event(Alphabet[0]).Name)
        continue;
      NameAny.addTransition(Q, Q, TransitionLabel::nameAny(N));
      for (size_t Arity = 0; Arity < 3; ++Arity)
        AnyArgs.addTransition(
            R, R,
            TransitionLabel::exact(
                N, std::vector<ArgPattern>(Arity, ArgPattern::any())));
    }
    expectSameRelation(NameAny, Traces.traces(), Table, "name any");
    expectSameRelation(AnyArgs, Traces.traces(), Table, "any arguments");
    expectSameRelation(makePrefixTreeFA(Traces.traces(), Table),
                       Traces.traces(), Table, "prefix tree");
  }
}

TEST(RelationDifferentialTest, RandomNFAs) {
  EventTable Table;
  std::vector<NameId> Names;
  for (const char *N : {"a", "b", "c"})
    Names.push_back(Table.internName(N));
  // `z` is in the table but no label names it.
  NameId Unmatched = Table.internName("z");
  for (uint64_t Seed = 0; Seed < 300; ++Seed) {
    RNG Rand(Seed * 0x9E3779B97F4A7C15ULL + 1);
    Automaton FA = randomNFA(Rand, Names);
    std::vector<Trace> Traces{Trace()};
    for (size_t K = 0; K < 12; ++K) {
      Trace T;
      for (size_t Len = Rand.nextIndex(7); Len > 0; --Len) {
        NameId N = Rand.nextIndex(10) == 0
                       ? Unmatched
                       : Names[Rand.nextIndex(Names.size())];
        std::vector<ValueId> Args;
        for (size_t A = Rand.nextIndex(3); A > 0; --A)
          Args.push_back(static_cast<ValueId>(Rand.nextIndex(3)));
        T.append(Table.internEvent(Event(N, std::move(Args))));
      }
      Traces.push_back(std::move(T));
    }
    expectSameRelation(FA, Traces, Table, "seed " + std::to_string(Seed));
  }
}

TEST(RelationDifferentialTest, EmptyRejectedAndUnmatchedTraces) {
  EventTable Table;
  Automaton FA = compileFA("fopen(v0) fread(v0)* fclose(v0)", Table);
  std::vector<Trace> Traces{
      Trace(),
      makeTrace(Table, "fopen(v0) fclose(v0)"),
      makeTrace(Table, "fopen(v0) fread(v0) fread(v0) fclose(v0)"),
      makeTrace(Table, "fopen(v0)"),
      makeTrace(Table, "fclose(v0) fopen(v0)"),
      makeTrace(Table, "fopen(v0) other fclose(v0)"),
      makeTrace(Table, "other"),
      makeTrace(Table, "fopen(v1) fclose(v1)"),
  };
  expectSameRelation(FA, Traces, Table, "regex FA");

  EXPECT_FALSE(FA.accepts(Trace(), Table));

  // An automaton whose start state accepts: the empty trace is accepted
  // yet executes nothing, the same empty row as a rejected trace.
  Automaton Star = compileFA("fread(v0)*", Table);
  expectSameRelation(Star, Traces, Table, "star FA");
  EXPECT_TRUE(Star.executedTransitions(Trace(), Table).none());
  EXPECT_TRUE(Star.accepts(Trace(), Table));
  EXPECT_FALSE(Star.accepts(makeTrace(Table, "other"), Table));

  // No states, and states with no transitions.
  expectSameRelation(Automaton(), Traces, Table, "empty FA");
  Automaton Lone;
  Lone.setStart(Lone.addState());
  Lone.setAccepting(0);
  expectSameRelation(Lone, Traces, Table, "one state");

  // A session over a rejecting FA lists every nonempty class as rejected.
  TraceSet Set = parseTraces("fopen(v0) fclose(v0)\nfopen(v0)\nother\n");
  Automaton Ref = compileFA("fopen(v0) fclose(v0)", Set.table());
  expectSessionMatchesOracle(std::move(Set), std::move(Ref), "rejecting");
}
