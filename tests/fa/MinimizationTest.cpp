//===- tests/fa/MinimizationTest.cpp ---------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Cross-validation of the three minimization routes: Moore refinement,
// Hopcroft's algorithm, and Brzozowski's double-reversal. All must agree
// on state counts and language.
//
//===----------------------------------------------------------------------===//

#include "fa/Dfa.h"

#include "../TestHelpers.h"
#include "support/Metrics.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace cable;
using cable::test::compileFA;

namespace {

std::vector<EventId> internAlphabet(EventTable &T,
                                    std::initializer_list<const char *> Names) {
  std::vector<EventId> Out;
  for (const char *N : Names)
    Out.push_back(T.internEvent(N));
  return Out;
}

} // namespace

TEST(MinimizationTest, ThreeRoutesAgreeOnSimpleLanguage) {
  EventTable T;
  Automaton NFA = compileFA("[a | a b]* c", T);
  std::vector<EventId> Alpha = internAlphabet(T, {"a", "b", "c"});
  Dfa D = Dfa::determinize(NFA, Alpha, T);
  Dfa Moore = D.minimized();
  Dfa Hopcroft = D.minimizedHopcroft();
  Dfa Brzozowski = Dfa::minimizeBrzozowski(NFA, Alpha, T);
  EXPECT_EQ(Moore.numStates(), Hopcroft.numStates());
  EXPECT_EQ(Moore.numStates(), Brzozowski.numStates());
  EXPECT_TRUE(Dfa::equivalent(Moore, Hopcroft));
  EXPECT_TRUE(Dfa::equivalent(Moore, Brzozowski));
}

TEST(MinimizationTest, LedgerTicksOncePerCall) {
  // The product has unreachable states, which both minimizers drop; the
  // ledger still counts one call with the untrimmed state count.
  EventTable T;
  Automaton NFA = compileFA("a b* | b", T);
  std::vector<EventId> Alpha = internAlphabet(T, {"a", "b"});
  Dfa D = Dfa::determinize(NFA, Alpha, T);
  Dfa P = Dfa::product(D, D.complemented(), /*WantUnion=*/true);
  bool WasEnabled = Metrics::enabled();
  Metrics::setEnabled(true);
  auto Value = [](const char *Name) { return Metrics::counterValue(Name); };
  uint64_t Calls = Value("fa.minimize-calls");
  uint64_t In = Value("fa.minimize-states-in");
  uint64_t Out = Value("fa.minimize-states-out");
  Dfa M = P.minimized();
  EXPECT_EQ(Value("fa.minimize-calls") - Calls, 1u);
  EXPECT_EQ(Value("fa.minimize-states-in") - In, P.numStates());
  EXPECT_EQ(Value("fa.minimize-states-out") - Out, M.numStates());
  Dfa H = P.minimizedHopcroft();
  EXPECT_EQ(Value("fa.minimize-calls") - Calls, 2u);
  EXPECT_EQ(Value("fa.minimize-states-in") - In, 2 * P.numStates());
  EXPECT_EQ(Value("fa.minimize-states-out") - Out,
            M.numStates() + H.numStates());
  Metrics::setEnabled(WasEnabled);
  EXPECT_LT(M.numStates(), P.numStates());
  EXPECT_EQ(M.numStates(), H.numStates());
}

TEST(MinimizationTest, EmptyLanguage) {
  EventTable T;
  Automaton NFA = compileFA("a", T);
  std::vector<EventId> Alpha = internAlphabet(T, {"a"});
  Dfa D = Dfa::determinize(NFA, Alpha, T);
  Dfa Empty = Dfa::product(D, D.complemented(), /*WantUnion=*/false);
  Dfa M = Empty.minimized();
  Dfa H = Empty.minimizedHopcroft();
  EXPECT_EQ(M.numStates(), 1u) << "empty language = one dead state";
  EXPECT_EQ(H.numStates(), 1u);
  EXPECT_TRUE(M.isEmpty());
}

TEST(MinimizationTest, FullLanguage) {
  EventTable T;
  Automaton NFA = compileFA("a*", T);
  std::vector<EventId> Alpha = internAlphabet(T, {"a"});
  Dfa D = Dfa::determinize(NFA, Alpha, T);
  EXPECT_EQ(D.minimized().numStates(), 1u);
  EXPECT_EQ(D.minimizedHopcroft().numStates(), 1u);
}

TEST(MinimizationTest, ProductUnreachableStatesDropped) {
  // Products materialize the full cross product; minimization must not
  // count unreachable pairs.
  EventTable T;
  std::vector<EventId> Alpha = internAlphabet(T, {"a", "b"});
  Dfa A = Dfa::determinize(compileFA("a a a", T), Alpha, T);
  Dfa B = Dfa::determinize(compileFA("b b b", T), Alpha, T);
  Dfa P = Dfa::product(A, B, /*WantUnion=*/true);
  Dfa M = P.minimized();
  Dfa H = P.minimizedHopcroft();
  EXPECT_EQ(M.numStates(), H.numStates());
  EXPECT_LT(M.numStates(), P.numStates());
  EXPECT_TRUE(Dfa::equivalent(M, P));
}

/// Property: all three minimization routes agree on random regexes.
class MinimizationPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MinimizationPropertyTest, RoutesAgree) {
  RNG Rand(GetParam() * 1337 + 7);
  // Random regex over {a, b, c} as in DfaPropertyTest.
  std::string Pattern;
  size_t Alts = 1 + Rand.nextIndex(3);
  for (size_t A = 0; A < Alts; ++A) {
    if (A)
      Pattern += " | ";
    Pattern += "[";
    size_t Atoms = 1 + Rand.nextIndex(5);
    for (size_t I = 0; I < Atoms; ++I) {
      Pattern += " ";
      Pattern += static_cast<char>('a' + Rand.nextIndex(3));
      if (Rand.nextBool(0.3))
        Pattern += "*";
      if (Rand.nextBool(0.15))
        Pattern += "?";
    }
    Pattern += " ]";
  }
  EventTable T;
  Automaton NFA = compileFA(Pattern, T);
  std::vector<EventId> Alpha = internAlphabet(T, {"a", "b", "c"});
  Dfa D = Dfa::determinize(NFA, Alpha, T);
  Dfa Moore = D.minimized();
  Dfa Hopcroft = D.minimizedHopcroft();
  Dfa Brzozowski = Dfa::minimizeBrzozowski(NFA, Alpha, T);
  EXPECT_EQ(Moore.numStates(), Hopcroft.numStates()) << Pattern;
  EXPECT_EQ(Moore.numStates(), Brzozowski.numStates()) << Pattern;
  ASSERT_TRUE(Dfa::equivalent(Moore, Hopcroft)) << Pattern;
  ASSERT_TRUE(Dfa::equivalent(Moore, Brzozowski)) << Pattern;
  ASSERT_TRUE(Dfa::equivalent(Moore, D)) << Pattern;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimizationPropertyTest,
                         ::testing::Range<uint64_t>(0, 40));
