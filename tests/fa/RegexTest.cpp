//===- tests/fa/RegexTest.cpp ----------------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "fa/Regex.h"

#include "../TestHelpers.h"
#include "fa/Parse.h"
#include "workload/Protocols.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace cable;
using cable::test::compileFA;
using cable::test::makeTrace;

TEST(RegexTest, SingleEvent) {
  EventTable T;
  Automaton FA = compileFA("a", T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "a"), T));
  EXPECT_FALSE(FA.accepts(Trace(), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "a a"), T));
}

TEST(RegexTest, EmptyPatternAcceptsEmptyTrace) {
  EventTable T;
  Automaton FA = compileFA("", T);
  EXPECT_TRUE(FA.accepts(Trace(), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "a"), T));
}

TEST(RegexTest, Concatenation) {
  EventTable T;
  Automaton FA = compileFA("a b c", T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "a b c"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "a c b"), T));
}

TEST(RegexTest, Alternation) {
  EventTable T;
  Automaton FA = compileFA("a | b | c", T);
  for (const char *Good : {"a", "b", "c"})
    EXPECT_TRUE(FA.accepts(makeTrace(T, Good), T)) << Good;
  EXPECT_FALSE(FA.accepts(makeTrace(T, "a b"), T));
}

TEST(RegexTest, StarPlusQuestion) {
  EventTable T;
  Automaton Star = compileFA("a*", T);
  EXPECT_TRUE(Star.accepts(Trace(), T));
  EXPECT_TRUE(Star.accepts(makeTrace(T, "a a a"), T));

  Automaton Plus = compileFA("a+", T);
  EXPECT_FALSE(Plus.accepts(Trace(), T));
  EXPECT_TRUE(Plus.accepts(makeTrace(T, "a"), T));
  EXPECT_TRUE(Plus.accepts(makeTrace(T, "a a"), T));

  Automaton Quest = compileFA("a?", T);
  EXPECT_TRUE(Quest.accepts(Trace(), T));
  EXPECT_TRUE(Quest.accepts(makeTrace(T, "a"), T));
  EXPECT_FALSE(Quest.accepts(makeTrace(T, "a a"), T));
}

TEST(RegexTest, GroupingWithBrackets) {
  EventTable T;
  Automaton FA = compileFA("[a b]* c", T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "c"), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "a b c"), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "a b a b c"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "a c"), T));
}

TEST(RegexTest, DotMatchesAnyEvent) {
  EventTable T;
  Automaton FA = compileFA(". b", T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "a b"), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "zzz b"), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "b b"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "b"), T));
}

TEST(RegexTest, NameAnyAtom) {
  EventTable T;
  Automaton FA = compileFA("~f g", T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "f g"), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "f(v0,v1) g"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "h g"), T));
}

TEST(RegexTest, EventArgumentsAndWildcardArg) {
  EventTable T;
  Automaton FA = compileFA("f(v0,*) g(v1)", T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "f(v0,v7) g(v1)"), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "f(v0,v0) g(v1)"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "f(v1,v7) g(v1)"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "f(v0) g(v1)"), T)) << "arity";
}

TEST(RegexTest, PaperFig1BuggySpecification) {
  // Fig. 1: allows fclose on any pointer regardless of source.
  EventTable T;
  Automaton FA = compileFA(
      "[fopen(v0) | popen(v0)] [fread(v0) | fwrite(v0)]* fclose(v0)", T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "fopen(v0) fread(v0) fclose(v0)"), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "popen(v0) fclose(v0)"), T))
      << "the bug: pipe closed with fclose is (wrongly) accepted";
  EXPECT_FALSE(FA.accepts(makeTrace(T, "popen(v0) pclose(v0)"), T))
      << "the bug: correct pipe usage is (wrongly) rejected";
}

TEST(RegexTest, PaperFig6FixedSpecification) {
  EventTable T;
  Automaton FA = compileFA(
      "[fopen(v0) [fread(v0) | fwrite(v0)]* fclose(v0)] | "
      "[popen(v0) [fread(v0) | fwrite(v0)]* pclose(v0)]",
      T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "fopen(v0) fclose(v0)"), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "popen(v0) fwrite(v0) pclose(v0)"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "popen(v0) fclose(v0)"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "fopen(v0) pclose(v0)"), T));
}

TEST(RegexTest, NestedGroups) {
  EventTable T;
  Automaton FA = compileFA("[[a | b] c]* d", T);
  EXPECT_TRUE(FA.accepts(makeTrace(T, "d"), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "a c b c d"), T));
  EXPECT_FALSE(FA.accepts(makeTrace(T, "a d"), T));
}

TEST(RegexTest, SyntaxErrors) {
  EventTable T;
  std::string Err;
  EXPECT_FALSE(compileRegex("[a", T, Err).has_value());
  EXPECT_FALSE(compileRegex("a]", T, Err).has_value());
  EXPECT_FALSE(compileRegex("*", T, Err).has_value());
  EXPECT_FALSE(compileRegex("f(v0", T, Err).has_value());
  EXPECT_FALSE(compileRegex("f(vx)", T, Err).has_value());
  EXPECT_FALSE(compileRegex("~", T, Err).has_value());
  EXPECT_FALSE(compileRegex("a ) b", T, Err).has_value());
  EXPECT_FALSE(Err.empty());
}

TEST(RegexTest, DoubleStarIsIdempotent) {
  EventTable T;
  Automaton FA = compileFA("a**", T);
  EXPECT_TRUE(FA.accepts(Trace(), T));
  EXPECT_TRUE(FA.accepts(makeTrace(T, "a a"), T));
}

TEST(RegexTest, ClosureRemovalPreservesLanguage) {
  EventTable T;
  Automaton FA = compileFA("a* [b | c]+", T);
  for (const char *Good : {"b", "c", "a b", "a a b c b"})
    EXPECT_TRUE(FA.accepts(makeTrace(T, Good), T)) << Good;
  for (const char *Bad : {"", "a", "b a"})
    EXPECT_FALSE(FA.accepts(makeTrace(T, Bad), T)) << Bad;
}

TEST(RegexTest, CompiledAutomataMatchGolden) {
  // Every protocol's correct language, the buggy stdio specification and
  // one closure-heavy pattern, state for state and transition for
  // transition: the ids are the FCA attribute ids of every session built
  // over a compiled FA.
  std::vector<std::pair<std::string, std::string>> Cases;
  for (const ProtocolModel &M : allProtocols())
    Cases.emplace_back(M.Name, M.CorrectRegex);
  Cases.emplace_back("stdio", stdioProtocol().CorrectRegex);
  Cases.emplace_back("stdio-buggy", stdioBuggyRegex());
  Cases.emplace_back("star-plus", "a* [b | c]+");
  std::string Got;
  for (const auto &[Name, Pattern] : Cases) {
    EventTable T;
    Got += "# " + Name + ": " + Pattern + "\n";
    Got += renderAutomatonText(compileRegexOrDie(Pattern, T), T);
  }
  std::ifstream In(CABLE_TEST_GOLDEN_DIR "/regex_automata.txt");
  ASSERT_TRUE(In.good());
  std::ostringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(Got, Want.str());
}
