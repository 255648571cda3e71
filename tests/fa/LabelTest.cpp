//===- tests/fa/LabelTest.cpp ----------------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fa/Label.h"

#include <gtest/gtest.h>

using namespace cable;

namespace {

struct LabelTest : ::testing::Test {
  EventTable T;
  NameId F = T.internName("f");
  NameId G = T.internName("g");
};

} // namespace

TEST_F(LabelTest, WildcardMatchesEverything) {
  TransitionLabel W = TransitionLabel::wildcard();
  EXPECT_TRUE(W.matches(Event(F, {})));
  EXPECT_TRUE(W.matches(Event(G, {1, 2})));
}

TEST_F(LabelTest, NameAnyIgnoresArgs) {
  TransitionLabel L = TransitionLabel::nameAny(F);
  EXPECT_TRUE(L.matches(Event(F, {})));
  EXPECT_TRUE(L.matches(Event(F, {7, 8, 9})));
  EXPECT_FALSE(L.matches(Event(G, {})));
}

TEST_F(LabelTest, ExactMatchesNameArityAndValues) {
  TransitionLabel L = TransitionLabel::exact(
      F, {ArgPattern::value(1), ArgPattern::any()});
  EXPECT_TRUE(L.matches(Event(F, {1, 5})));
  EXPECT_TRUE(L.matches(Event(F, {1, 1})));
  EXPECT_FALSE(L.matches(Event(F, {2, 5}))) << "first arg must be 1";
  EXPECT_FALSE(L.matches(Event(F, {1}))) << "arity mismatch";
  EXPECT_FALSE(L.matches(Event(F, {1, 5, 6}))) << "arity mismatch";
  EXPECT_FALSE(L.matches(Event(G, {1, 5}))) << "name mismatch";
}

TEST_F(LabelTest, ExactEventBuildsConcretePatterns) {
  Event E(F, {3, 4});
  TransitionLabel L = TransitionLabel::exactEvent(E);
  EXPECT_TRUE(L.matches(E));
  EXPECT_FALSE(L.matches(Event(F, {3, 5})));
}

TEST_F(LabelTest, MentionsValue) {
  TransitionLabel L = TransitionLabel::exact(
      F, {ArgPattern::value(2), ArgPattern::any()});
  EXPECT_TRUE(L.mentionsValue(2));
  EXPECT_FALSE(L.mentionsValue(0)) << "wildcard arg mentions nothing";
  EXPECT_FALSE(TransitionLabel::wildcard().mentionsValue(2));
  EXPECT_FALSE(TransitionLabel::nameAny(F).mentionsValue(2));
}

TEST_F(LabelTest, Render) {
  EXPECT_EQ(TransitionLabel::wildcard().render(T), "<any>");
  EXPECT_EQ(TransitionLabel::nameAny(F).render(T), "f(..)");
  EXPECT_EQ(TransitionLabel::exact(F, {}).render(T), "f");
  EXPECT_EQ(TransitionLabel::exact(F, {ArgPattern::value(0),
                                       ArgPattern::any()})
                .render(T),
            "f(v0,*)");
}

TEST_F(LabelTest, Equality) {
  TransitionLabel A = TransitionLabel::exact(F, {ArgPattern::value(1)});
  TransitionLabel B = TransitionLabel::exact(F, {ArgPattern::value(1)});
  TransitionLabel C = TransitionLabel::exact(F, {ArgPattern::any()});
  EXPECT_TRUE(A == B);
  EXPECT_FALSE(A == C);
  EXPECT_FALSE(A == TransitionLabel::wildcard());
}
