//===- fa/Parse.h - Automaton text format -----------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented text format for automata, hand-writable and round-
/// trippable, used by cable-cli's `--ref-file` and for persisting
/// specifications:
///
///   # comment
///   start q0
///   accept q2 q3
///   q0 fopen(v0) q1      # exact label; args are v<k> or *
///   q1 ~fread q1         # any-arguments label
///   q1 <any> q2          # wildcard label
///
/// States are created on first mention; names must be q<digits> (ids need
/// not be dense — they are compacted on read).
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_FA_PARSE_H
#define CABLE_FA_PARSE_H

#include "fa/Automaton.h"
#include "support/Diagnostic.h"

#include <optional>
#include <string>
#include <string_view>

namespace cable {

/// Parses the text format; returns std::nullopt and sets \p ErrorMsg
/// (with a 1-based `line N, col C:` position) on the first malformed
/// line. Names are interned into \p Table.
std::optional<Automaton> parseAutomaton(std::string_view Text,
                                        EventTable &Table,
                                        std::string &ErrorMsg);

/// As above with a structured diagnostic; Diag.Pos carries the 1-based
/// line and the column of the offending token.
std::optional<Automaton> parseAutomaton(std::string_view Text,
                                        EventTable &Table, Diagnostic &Diag);

/// Renders \p FA in the parseAutomaton format (modulo state renumbering,
/// parse(render(FA)) accepts the same language).
std::string renderAutomatonText(const Automaton &FA, const EventTable &Table);

} // namespace cable

#endif // CABLE_FA_PARSE_H
