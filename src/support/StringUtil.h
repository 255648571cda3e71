//===- support/StringUtil.h - String helpers --------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small string helpers used by the trace parser, the command interpreter,
/// and the table printers in bench/.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_STRINGUTIL_H
#define CABLE_SUPPORT_STRINGUTIL_H

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cable {

/// Splits \p Text on \p Sep. Adjacent separators produce empty fields;
/// splitting an empty string yields one empty field.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Splits \p Text on runs of whitespace, dropping empty fields.
std::vector<std::string> splitWhitespace(std::string_view Text);

/// A whitespace-delimited token together with its byte offset in the
/// original text, so parsers can report 1-based column positions.
struct TokenSpan {
  std::string Text;
  size_t Offset;
};

/// Like splitWhitespace, but each token remembers where it started.
std::vector<TokenSpan> splitWhitespaceSpans(std::string_view Text);

/// Returns \p Text with leading and trailing whitespace removed.
std::string_view trimString(std::string_view Text);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// Returns true if \p Text consists only of decimal digits (and is
/// nonempty).
bool isAllDigits(std::string_view Text);

/// Parses \p Text as a decimal unsigned long. Returns std::nullopt on an
/// empty string, a non-digit character, or overflow — never throws, so
/// user-supplied numbers (value tokens, state names, CLI flags) can be
/// rejected with a diagnostic instead of an abort.
std::optional<unsigned long> parseUnsignedLong(std::string_view Text);

/// Left-pads or truncates \p Text to exactly \p Width columns.
std::string padString(std::string_view Text, size_t Width);

/// Appends printf-style formatted text to \p Out (any length). Reports and
/// command output are built with it so they can go to stdout, a file, or
/// a caller in one rendering pass.
void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace cable

#endif // CABLE_SUPPORT_STRINGUTIL_H
