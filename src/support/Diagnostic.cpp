//===- support/Diagnostic.cpp - Structured diagnostics --------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostic.h"

using namespace cable;

const char *cable::errorCodeName(ErrorCode Code) {
  switch (Code) {
  case ErrorCode::Ok:
    return "ok";
  case ErrorCode::InvalidArgument:
    return "invalid-argument";
  case ErrorCode::ParseError:
    return "parse-error";
  case ErrorCode::NotFound:
    return "not-found";
  case ErrorCode::ResourceExhausted:
    return "resource-exhausted";
  case ErrorCode::IoError:
    return "io-error";
  case ErrorCode::Internal:
    return "internal";
  }
  return "unknown";
}

const char *cable::severityName(Severity S) {
  switch (S) {
  case Severity::Note:
    return "note";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  case Severity::Fatal:
    return "fatal";
  }
  return "unknown";
}

std::string Diagnostic::render() const {
  std::string Out;
  if (!File.empty()) {
    Out += File;
    Out += ':';
  }
  if (Pos.valid()) {
    Out += std::to_string(Pos.Line);
    Out += ':';
    if (Pos.hasCol()) {
      Out += std::to_string(Pos.Col);
      Out += ':';
    }
  }
  if (!Out.empty())
    Out += ' ';
  Out += severityName(Level);
  Out += ": ";
  Out += Message;
  if (Code != ErrorCode::Ok) {
    Out += " [";
    Out += errorCodeName(Code);
    Out += ']';
  }
  return Out;
}
