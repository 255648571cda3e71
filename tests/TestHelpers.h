//===- tests/TestHelpers.h - Shared test utilities --------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef CABLE_TESTS_TESTHELPERS_H
#define CABLE_TESTS_TESTHELPERS_H

#include "fa/Regex.h"
#include "support/StringUtil.h"
#include "trace/TraceSet.h"

#include <gtest/gtest.h>

namespace cable::test {

/// Parses one trace from space-separated event text.
inline Trace makeTrace(EventTable &Table, std::string_view Text) {
  std::string Err;
  Trace Out;
  for (const std::string &Tok : splitWhitespace(Text)) {
    std::optional<EventId> Id = Table.parseEvent(Tok, Err);
    EXPECT_TRUE(Id.has_value()) << "bad event '" << Tok << "': " << Err;
    if (Id)
      Out.append(*Id);
  }
  return Out;
}

/// Parses a multi-line trace set, failing the test on errors.
inline TraceSet parseTraces(const char *Text) {
  std::string Err;
  std::optional<TraceSet> TS = TraceSet::parse(Text, Err);
  EXPECT_TRUE(TS.has_value()) << Err;
  return TS ? std::move(*TS) : TraceSet();
}

/// Compiles a regex, failing the test on errors.
inline Automaton compileFA(std::string_view Pattern, EventTable &Table) {
  std::string Err;
  std::optional<Automaton> FA = compileRegex(Pattern, Table, Err);
  EXPECT_TRUE(FA.has_value()) << "bad pattern '" << Pattern << "': " << Err;
  return FA ? std::move(*FA) : Automaton();
}

} // namespace cable::test

#endif // CABLE_TESTS_TESTHELPERS_H
