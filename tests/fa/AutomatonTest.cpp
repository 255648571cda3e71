//===- tests/fa/AutomatonTest.cpp ------------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fa/Automaton.h"

#include "../TestHelpers.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <set>

using namespace cable;
using cable::test::compileFA;
using cable::test::makeTrace;

namespace {

/// Brute force: enumerate every accepting run of \p FA over \p T (DFS on
/// (state, position)) and collect all transitions used on any of them.
/// Oracle for Automaton::executedTransitions.
BitVector bruteForceExecuted(const Automaton &FA, const Trace &T,
                             const EventTable &Table) {
  BitVector Out(FA.numTransitions());
  std::vector<TransitionId> Path;
  auto DFS = [&](auto &&Self, StateId S, size_t Pos) -> void {
    if (Pos == T.size()) {
      if (FA.isAccepting(S))
        for (TransitionId TI : Path)
          Out.set(TI);
      return;
    }
    const Event &E = Table.event(T[Pos]);
    for (TransitionId TI : FA.outgoing(S)) {
      const Transition &Tr = FA.transition(TI);
      if (!Tr.Label.matches(E))
        continue;
      Path.push_back(TI);
      Self(Self, Tr.To, Pos + 1);
      Path.pop_back();
    }
  };
  for (size_t S = 0; S < FA.numStates(); ++S)
    if (FA.isStart(static_cast<StateId>(S)))
      DFS(DFS, static_cast<StateId>(S), 0);
  return Out;
}

/// Generates a random NFA over \p Names.
Automaton randomNFA(RNG &Rand, EventTable &Table,
                    const std::vector<std::string> &Names) {
  Automaton FA;
  size_t NumStates = 2 + Rand.nextIndex(4);
  for (size_t S = 0; S < NumStates; ++S)
    FA.addState();
  FA.setStart(static_cast<StateId>(Rand.nextIndex(NumStates)));
  FA.setAccepting(static_cast<StateId>(Rand.nextIndex(NumStates)));
  if (Rand.nextBool(0.4))
    FA.setAccepting(static_cast<StateId>(Rand.nextIndex(NumStates)));
  size_t NumTransitions = 3 + Rand.nextIndex(8);
  for (size_t I = 0; I < NumTransitions; ++I) {
    StateId From = static_cast<StateId>(Rand.nextIndex(NumStates));
    StateId To = static_cast<StateId>(Rand.nextIndex(NumStates));
    const std::string &Name = Names[Rand.nextIndex(Names.size())];
    FA.addTransition(From, To,
                     TransitionLabel::exact(Table.internName(Name), {}));
  }
  return FA;
}

Trace randomTrace(RNG &Rand, EventTable &Table,
                  const std::vector<std::string> &Names, size_t MaxLen) {
  Trace T;
  size_t Len = Rand.nextIndex(MaxLen + 1);
  for (size_t I = 0; I < Len; ++I)
    T.append(Table.internEvent(Names[Rand.nextIndex(Names.size())]));
  return T;
}

} // namespace

TEST(AutomatonTest, EmptyAutomatonAcceptsNothing) {
  EventTable T;
  Automaton FA;
  StateId S = FA.addState();
  FA.setStart(S);
  EXPECT_FALSE(FA.accepts(Trace(), T));
  FA.setAccepting(S);
  EXPECT_TRUE(FA.accepts(Trace(), T));
}

TEST(AutomatonTest, AcceptsSimpleSequence) {
  EventTable T;
  Automaton FA = compileFA("a b c", T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "a b c"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "a b"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "a b c c"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "b a c"), T));
}

TEST(AutomatonTest, AcceptsKleeneAndAlternation) {
  EventTable T;
  Automaton FA = compileFA("open(v0) [read(v0) | write(v0)]* close(v0)", T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "open(v0) close(v0)"), T));
  EXPECT_TRUE(FA.accepts(
      makeTrace(T, "open(v0) read(v0) write(v0) read(v0) close(v0)"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "open(v0) read(v0)"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "open(v0) read(v1) close(v0)"), T))
      << "wrong value must not match";
}

TEST(AutomatonTest, MultipleStartStates) {
  EventTable T;
  Automaton FA;
  StateId A = FA.addState();
  StateId B = FA.addState();
  StateId End = FA.addState();
  FA.setStart(A);
  FA.setStart(B);
  FA.setAccepting(End);
  FA.addTransition(A, End, TransitionLabel::exact(T.internName("x"), {}));
  FA.addTransition(B, End, TransitionLabel::exact(T.internName("y"), {}));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "x"), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "y"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "x y"), T));
}

TEST(AutomatonTest, ExecutedTransitionsSimplePath) {
  EventTable T;
  Automaton FA = compileFA("a b", T);
  BitVector Ex = FA.executedTransitions(makeTrace(T, "a b"), T);
  EXPECT_EQ(Ex.count(), 2u);
}

TEST(AutomatonTest, ExecutedTransitionsEmptyForRejectedTrace) {
  EventTable T;
  Automaton FA = compileFA("a b", T);
  EXPECT_TRUE(FA.executedTransitions(makeTrace(T, "a"), T).none());
  EXPECT_TRUE(FA.executedTransitions(makeTrace(T, "b a"), T).none());
}

TEST(AutomatonTest, ExecutedTransitionsOnlyAcceptingRuns) {
  // Two branches on 'a': one leads to acceptance after 'b', the other dead
  // ends. Only the accepting branch's transitions are executed.
  EventTable T;
  Automaton FA;
  StateId S0 = FA.addState(), S1 = FA.addState(), S2 = FA.addState(),
          Dead = FA.addState();
  FA.setStart(S0);
  FA.setAccepting(S2);
  NameId A = T.internName("a"), B = T.internName("b");
  TransitionId Good = FA.addTransition(S0, S1, TransitionLabel::exact(A, {}));
  TransitionId Stray =
      FA.addTransition(S0, Dead, TransitionLabel::exact(A, {}));
  TransitionId Fin = FA.addTransition(S1, S2, TransitionLabel::exact(B, {}));
  BitVector Ex = FA.executedTransitions(makeTrace(T, "a b"), T);
  EXPECT_TRUE(Ex.test(Good));
  EXPECT_TRUE(Ex.test(Fin));
  EXPECT_FALSE(Ex.test(Stray)) << "dead-end branch is not on an accepting run";
}

TEST(AutomatonTest, ExecutedDistinguishesOrder) {
  // The paper's motivating property: traces that call popen before pclose
  // execute different transitions than those calling pclose before popen.
  EventTable T;
  Automaton FA = compileFA("[popen(v0) pclose(v0)] | [pclose(v0) popen(v0)]",
                           T);
  BitVector E1 = FA.executedTransitions(makeTrace(T, "popen(v0) pclose(v0)"),
                                        T);
  BitVector E2 = FA.executedTransitions(makeTrace(T, "pclose(v0) popen(v0)"),
                                        T);
  EXPECT_FALSE(E1.none());
  EXPECT_FALSE(E2.none());
  EXPECT_FALSE(E1.intersects(E2));
}

TEST(AutomatonTest, WildcardTransitionsExecute) {
  EventTable T;
  Automaton FA;
  StateId S = FA.addState();
  FA.setStart(S);
  FA.setAccepting(S);
  TransitionId W = FA.addTransition(S, S, TransitionLabel::wildcard());
  TransitionId X =
      FA.addTransition(S, S, TransitionLabel::exact(T.internName("x"), {}));
  BitVector Ex = FA.executedTransitions(makeTrace(T, "x y"), T);
  EXPECT_TRUE(Ex.test(W));
  EXPECT_TRUE(Ex.test(X));
  BitVector Ey = FA.executedTransitions(makeTrace(T, "y"), T);
  EXPECT_TRUE(Ey.test(W));
  EXPECT_FALSE(Ey.test(X));
}

TEST(AutomatonTest, TrimmedDropsUselessStates) {
  EventTable T;
  Automaton FA;
  StateId S0 = FA.addState(), S1 = FA.addState();
  StateId Unreachable = FA.addState(), DeadEnd = FA.addState();
  FA.setStart(S0);
  FA.setAccepting(S1);
  NameId A = T.internName("a");
  FA.addTransition(S0, S1, TransitionLabel::exact(A, {}));
  FA.addTransition(S0, DeadEnd, TransitionLabel::exact(A, {}));
  FA.addTransition(Unreachable, S1, TransitionLabel::exact(A, {}));
  Automaton Trim = FA.trimmed();
  EXPECT_EQ(Trim.numStates(), 2u);
  EXPECT_EQ(Trim.numTransitions(), 1u);
  EXPECT_TRUE(Trim.accepts(makeTrace(T, "a"), T));
}

TEST(AutomatonTest, RenderTextAndDotContainStructure) {
  EventTable T;
  Automaton FA = compileFA("a b", T);
  std::string Text = FA.renderText(T);
  EXPECT_NE(Text.find("[start]"), std::string::npos);
  EXPECT_NE(Text.find("[accept]"), std::string::npos);
  EXPECT_NE(Text.find("--a-->"), std::string::npos);
  std::string Dot = FA.renderDot(T, "g");
  EXPECT_NE(Dot.find("doublecircle"), std::string::npos);
  EXPECT_NE(Dot.find("label=\"a\""), std::string::npos);
}

TEST(AutomatonTest, LongestAcceptedLengthOnDags) {
  EventTable T;
  EXPECT_EQ(compileFA("a b c", T).longestAcceptedLength(), 3u);
  EXPECT_EQ(compileFA("a | a b", T).longestAcceptedLength(), 2u);
  EXPECT_EQ(compileFA("", T).longestAcceptedLength(), 0u);
  EXPECT_EQ(compileFA("a? b?", T).longestAcceptedLength(), 2u);
}

TEST(AutomatonTest, LongestAcceptedLengthDetectsLoops) {
  EventTable T;
  EXPECT_FALSE(compileFA("a*", T).longestAcceptedLength().has_value());
  EXPECT_FALSE(compileFA("a b+ c", T).longestAcceptedLength().has_value());
  // A cycle outside every accepting path does not count.
  Automaton FA;
  StateId S0 = FA.addState(), S1 = FA.addState(), Spin = FA.addState();
  FA.setStart(S0);
  FA.setAccepting(S1);
  NameId A = T.internName("a");
  FA.addTransition(S0, S1, TransitionLabel::exact(A, {}));
  FA.addTransition(S0, Spin, TransitionLabel::exact(A, {}));
  FA.addTransition(Spin, Spin, TransitionLabel::exact(A, {}));
  EXPECT_EQ(FA.longestAcceptedLength(), 1u)
      << "the dead-end self-loop is trimmed away";
}

TEST(AutomatonTest, ReversedAcceptsReversedStrings) {
  EventTable T;
  Automaton FA = compileFA("a b c*", T);
  Automaton Rev = FA.reversed();
  RNG Rand(21);
  std::vector<std::string> Names{"a", "b", "c"};
  for (int I = 0; I < 100; ++I) {
    Trace Tr = randomTrace(Rand, T, Names, 6);
    std::vector<EventId> Backwards(Tr.events().rbegin(),
                                   Tr.events().rend());
    Trace RevTr{std::move(Backwards)};
    EXPECT_EQ(FA.accepts(Tr, T), Rev.accepts(RevTr, T)) << Tr.render(T);
  }
}

TEST(AutomatonTest, ReversedTwiceIsOriginalLanguage) {
  EventTable T;
  Automaton FA = compileFA("[a | b b]*", T);
  Automaton Twice = FA.reversed().reversed();
  RNG Rand(22);
  std::vector<std::string> Names{"a", "b"};
  for (int I = 0; I < 100; ++I) {
    Trace Tr = randomTrace(Rand, T, Names, 6);
    EXPECT_EQ(FA.accepts(Tr, T), Twice.accepts(Tr, T));
  }
}

TEST(AutomatonTest, DisjointUnionAcceptsEitherLanguage) {
  EventTable T;
  Automaton A = compileFA("a b", T);
  Automaton B = compileFA("c+", T);
  Automaton U = Automaton::disjointUnion(A, B);
  RNG Rand(23);
  std::vector<std::string> Names{"a", "b", "c"};
  for (int I = 0; I < 150; ++I) {
    Trace Tr = randomTrace(Rand, T, Names, 5);
    EXPECT_EQ(U.accepts(Tr, T), A.accepts(Tr, T) || B.accepts(Tr, T))
        << Tr.render(T);
  }
}

TEST(AutomatonTest, DisjointUnionUnionsExecutedTransitions) {
  // The property the recommended reference FAs rely on: the union's
  // attribute row is the concatenation of both components' rows.
  EventTable T;
  Automaton A = compileFA("x* y", T);
  Automaton B = compileFA("[x | y]*", T);
  Automaton U = Automaton::disjointUnion(A, B);
  ASSERT_EQ(U.numTransitions(), A.numTransitions() + B.numTransitions());
  RNG Rand(24);
  std::vector<std::string> Names{"x", "y"};
  for (int I = 0; I < 60; ++I) {
    Trace Tr = randomTrace(Rand, T, Names, 5);
    BitVector RowU = U.executedTransitions(Tr, T);
    BitVector RowA = A.executedTransitions(Tr, T);
    BitVector RowB = B.executedTransitions(Tr, T);
    for (size_t TI = 0; TI < A.numTransitions(); ++TI)
      EXPECT_EQ(RowU.test(TI), RowA.test(TI));
    for (size_t TI = 0; TI < B.numTransitions(); ++TI)
      EXPECT_EQ(RowU.test(A.numTransitions() + TI), RowB.test(TI));
  }
}

/// Property: executedTransitions agrees with brute-force path enumeration
/// on random NFAs and random traces.
class ExecutedTransitionsPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutedTransitionsPropertyTest, MatchesBruteForce) {
  RNG Rand(GetParam());
  EventTable T;
  std::vector<std::string> Names{"a", "b", "c"};
  Automaton FA = randomNFA(Rand, T, Names);
  for (int I = 0; I < 40; ++I) {
    Trace Tr = randomTrace(Rand, T, Names, 6);
    BitVector Fast = FA.executedTransitions(Tr, T);
    BitVector Slow = bruteForceExecuted(FA, Tr, T);
    EXPECT_TRUE(Fast == Slow)
        << "trace: '" << Tr.render(T) << "'\n"
        << FA.renderText(T);
    if (!Tr.empty())
      EXPECT_EQ(!Fast.none(), FA.accepts(Tr, T))
          << "nonempty attribute set iff a nonempty trace is accepted";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecutedTransitionsPropertyTest,
                         ::testing::Range<uint64_t>(0, 30));
