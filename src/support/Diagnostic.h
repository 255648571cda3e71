//===- support/Diagnostic.h - Structured diagnostics ------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structured diagnostics: an error code taxonomy, a severity level, an
/// optional 1-based source position, and a render-to-string that matches the
/// conventional compiler format `file:line:col: severity: message [code]`.
///
/// Positions are 1-based. Line 0 / column 0 mean "no position"; a diagnostic
/// may carry a line without a column (e.g. an error that applies to a whole
/// trace line), but never a column without a line.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_DIAGNOSTIC_H
#define CABLE_SUPPORT_DIAGNOSTIC_H

#include <cstdint>
#include <string>

namespace cable {

/// Coarse error taxonomy, loosely following the gRPC/absl canonical codes.
enum class ErrorCode : uint8_t {
  Ok = 0,
  /// A caller-supplied value is malformed regardless of system state
  /// (bad failpoint spec, a snapshot over another trace set, zero budget).
  InvalidArgument,
  /// Structured text failed to parse (trace file, automaton file, event).
  ParseError,
  /// A named entity does not exist (unknown protocol, unknown label).
  NotFound,
  /// A budget limit was hit (deadline, max concepts) or memory ran out.
  ResourceExhausted,
  /// A file could not be read or written.
  IoError,
  /// An internal invariant failed; indicates a bug in Cable itself.
  Internal,
};

/// Stable lower-case name for \p Code, e.g. "parse-error".
const char *errorCodeName(ErrorCode Code);

enum class Severity : uint8_t {
  Note,
  Warning,
  Error,
  Fatal,
};

/// Stable lower-case name for \p S, e.g. "warning".
const char *severityName(Severity S);

/// A 1-based source position. Zero fields mean "unknown".
struct SourcePos {
  uint32_t Line = 0;
  uint32_t Col = 0;

  bool valid() const { return Line != 0; }
  bool hasCol() const { return Col != 0; }
};

/// One structured diagnostic. Render order: file, position, severity,
/// message, bracketed code name.
struct Diagnostic {
  Severity Level = Severity::Error;
  ErrorCode Code = ErrorCode::Internal;
  SourcePos Pos;
  std::string File;
  std::string Message;

  /// Renders e.g. "traces.txt:3:14: error: bad value token 'vx'
  /// [parse-error]". Omitted fields (file, position) drop cleanly.
  std::string render() const;
};

} // namespace cable

#endif // CABLE_SUPPORT_DIAGNOSTIC_H
