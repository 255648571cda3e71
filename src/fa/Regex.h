//===- fa/Regex.h - Event regular expressions -------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small regular-expression language over trace events, compiled to an
/// Automaton by Thompson construction. The paper's users hand Cable FAs
/// when focusing (§4.1); this is the concrete syntax our CLI and tests use
/// to write them:
///
///   atom     := EVENT          e.g. fopen(v0), fclose(*), pclose(v0)
///             | ~NAME          any-arguments event with this name
///             | .              any event (wildcard)
///             | [ regex ]      grouping (square brackets; parentheses
///                              belong to event syntax)
///   postfix  := atom (* | + | ?)*
///   concat   := postfix postfix ...   (whitespace separated)
///   regex    := concat | concat | ...
///
/// Example — the paper's buggy stdio specification (Fig. 1):
///   `[fopen(v0) | popen(v0)] [fread(v0) | fwrite(v0)]* fclose(v0)`
///
/// Thompson construction needs silent moves; the compiler keeps them
/// beside the automaton it builds and removes them before returning, so
/// the result is an ordinary trimmed Automaton, usable as a reference FA.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_FA_REGEX_H
#define CABLE_FA_REGEX_H

#include "fa/Automaton.h"
#include "support/Diagnostic.h"

#include <optional>
#include <string>
#include <string_view>

namespace cable {

/// Compiles \p Pattern to a trimmed automaton. Returns
/// std::nullopt and sets \p ErrorMsg on a syntax error. Event names and
/// events are interned into \p Table.
std::optional<Automaton> compileRegex(std::string_view Pattern,
                                      EventTable &Table,
                                      std::string &ErrorMsg);

/// As above with a structured diagnostic: Diag.Pos.Col is the 1-based
/// offset of the offending character or token within \p Pattern (patterns
/// are single-line, so Diag.Pos.Line is always 1).
std::optional<Automaton> compileRegex(std::string_view Pattern,
                                      EventTable &Table, Diagnostic &Diag);

/// Convenience: compiles \p Pattern and returns the trimmed automaton.
/// Aborts on syntax errors — use only with hardcoded literal
/// patterns (protocol models, benchmarks); anything user-supplied must go
/// through compileRegex and surface the diagnostic instead.
Automaton compileRegexOrDie(std::string_view Pattern, EventTable &Table);

} // namespace cable

#endif // CABLE_FA_REGEX_H
