//===- tests/fa/FuzzParsersTest.cpp ----------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Robustness sweeps: every text front end (trace sets, regexes, automaton
// files, label files) must survive arbitrary byte soup — returning a clean
// error or a valid object, never crashing.
//
//===----------------------------------------------------------------------===//

#include "cable/Session.h"
#include "fa/Parse.h"
#include "fa/Regex.h"
#include "fa/Templates.h"
#include "support/RNG.h"
#include "trace/TraceSet.h"

#include <gtest/gtest.h>

using namespace cable;

namespace {

/// Random text over a charset likely to hit parser edge cases.
std::string randomText(RNG &Rand, size_t MaxLen) {
  static const char Charset[] =
      "abcxyz019 ()[]|*+?~,.#\n\tv<>=-_\\\"q";
  std::string Out;
  size_t Len = Rand.nextIndex(MaxLen + 1);
  for (size_t I = 0; I < Len; ++I)
    Out += Charset[Rand.nextIndex(sizeof(Charset) - 1)];
  return Out;
}

} // namespace

class FuzzParsersTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzParsersTest, TraceSetParseNeverCrashes) {
  RNG Rand(GetParam());
  for (int I = 0; I < 50; ++I) {
    std::string Text = randomText(Rand, 120);
    std::string Err;
    std::optional<TraceSet> TS = TraceSet::parse(Text, Err);
    if (!TS)
      EXPECT_FALSE(Err.empty());
    else
      // A successful parse must render back without crashing.
      (void)TS->render();
  }
}

TEST_P(FuzzParsersTest, RegexCompileNeverCrashes) {
  RNG Rand(GetParam() * 31 + 1);
  for (int I = 0; I < 50; ++I) {
    std::string Pattern = randomText(Rand, 60);
    EventTable T;
    std::string Err;
    std::optional<Automaton> FA = compileRegex(Pattern, T, Err);
    if (FA) {
      // Whatever parsed must be a usable automaton.
      Trace Probe;
      Probe.append(T.internEvent("a"));
      (void)FA->accepts(Probe, T);
    } else {
      EXPECT_FALSE(Err.empty());
    }
  }
}

TEST_P(FuzzParsersTest, AutomatonParseNeverCrashes) {
  RNG Rand(GetParam() * 131 + 7);
  for (int I = 0; I < 50; ++I) {
    std::string Text = randomText(Rand, 120);
    EventTable T;
    std::string Err;
    std::optional<Automaton> FA = parseAutomaton(Text, T, Err);
    if (FA) {
      Trace Probe;
      Probe.append(T.internEvent("a"));
      (void)FA->accepts(Probe, T);
    } else {
      EXPECT_FALSE(Err.empty());
    }
  }
}

TEST_P(FuzzParsersTest, LabelLoadNeverCrashes) {
  RNG Rand(GetParam() * 733 + 11);
  std::string ParseErr;
  TraceSet Traces = *TraceSet::parse("a(v0) b(v0)\nc(v0)\n", ParseErr);
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  Session S(std::move(Traces), std::move(Ref));
  for (int I = 0; I < 50; ++I) {
    std::string Text = randomText(Rand, 100);
    std::string Err;
    size_t Unmatched = 0;
    bool Ok = S.loadLabels(Text, Err, &Unmatched);
    if (!Ok)
      EXPECT_FALSE(Err.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzParsersTest,
                         ::testing::Range<uint64_t>(0, 12));

namespace {

/// Hand-built malformed inputs targeting specific parser weak spots:
/// truncated lines, bad value tokens, unbalanced brackets/parens, and
/// pathologically oversized events. Shared across the three front ends —
/// a corpus entry is allowed to parse (some are valid for one syntax and
/// not another), but must never crash and must produce a positioned
/// diagnostic when it fails.
std::vector<std::string> malformedCorpus() {
  std::vector<std::string> Out = {
      // Truncated lines.
      "fopen(",
      "fopen(v0",
      "a(v0) b(",
      "start",
      "q0 fopen(v0)",
      "~",
      "a(v0) ~",
      // Bad value tokens.
      "fopen(x)",
      "fopen(v)",
      "fopen(vv1)",
      "fopen(v0,)",
      "fopen(,v0)",
      "fopen(v-1)",
      "fopen(v99999999999999999999)",
      "q0 fopen(w1) q1",
      // Unbalanced brackets and parens.
      "[a(v0)",
      "a(v0)]",
      "[[a(v0)]",
      "a(v0))",
      "(a(v0)",
      "[a(v0) | b(v0)",
      "q0 ) q1",
      // Oversized events.
      std::string(100000, 'a'),
      std::string(1000, 'a') + "(" + std::string(1000, 'v') + ")",
      "a(" + std::string(50000, '*') + ")",
  };
  // One event with 10k comma-separated arguments.
  std::string Wide = "big(";
  for (int I = 0; I < 10000; ++I)
    Wide += (I ? ",v" : "v") + std::to_string(I);
  Wide += ')';
  Out.push_back(Wide);
  return Out;
}

} // namespace

TEST(MalformedCorpusTest, TraceSetParseSurvivesAndPositionsErrors) {
  for (const std::string &Text : malformedCorpus()) {
    Diagnostic Diag;
    std::optional<TraceSet> TS = TraceSet::parse(Text, Diag);
    if (TS) {
      (void)TS->render();
      continue;
    }
    // Failures carry a 1-based line and column inside the input.
    EXPECT_FALSE(Diag.Message.empty());
    EXPECT_GE(Diag.Pos.Line, 1u);
    EXPECT_GE(Diag.Pos.Col, 1u);
    EXPECT_FALSE(Diag.render().empty());
  }
}

TEST(MalformedCorpusTest, RegexCompileSurvivesAndPositionsErrors) {
  for (const std::string &Pattern : malformedCorpus()) {
    EventTable T;
    Diagnostic Diag;
    std::optional<Automaton> FA = compileRegex(Pattern, T, Diag);
    if (FA)
      continue;
    EXPECT_FALSE(Diag.Message.empty());
    EXPECT_EQ(Diag.Pos.Line, 1u); // Patterns are single-line.
    EXPECT_GE(Diag.Pos.Col, 1u);
    EXPECT_LE(Diag.Pos.Col, Pattern.size() + 1);
  }
}

TEST(MalformedCorpusTest, AutomatonParseSurvivesAndPositionsErrors) {
  for (const std::string &Text : malformedCorpus()) {
    EventTable T;
    Diagnostic Diag;
    std::optional<Automaton> FA = parseAutomaton(Text, T, Diag);
    if (FA)
      continue;
    EXPECT_FALSE(Diag.Message.empty());
    EXPECT_GE(Diag.Pos.Line, 1u);
    EXPECT_GE(Diag.Pos.Col, 1u);
  }
}
