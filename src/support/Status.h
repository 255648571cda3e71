//===- support/Status.h - Recoverable-error results -------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Status / StatusOr<T>: the recoverable-error counterpart to Error.h's
/// fatal machinery. A Status is either ok or carries one Diagnostic; a
/// StatusOr<T> is a Status plus, when ok, a value. The library still never
/// throws — budget exhaustion and malformed user input flow back to
/// callers through these types, while genuine invariant violations
/// keep using CABLE_UNREACHABLE.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_STATUS_H
#define CABLE_SUPPORT_STATUS_H

#include "support/Diagnostic.h"

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace cable {

/// Ok, or exactly one Diagnostic describing why the operation failed.
class Status {
public:
  /// Default-constructs the ok status.
  Status() = default;

  static Status ok() { return Status(); }

  /// Builds a failed status from a full diagnostic.
  static Status error(Diagnostic D) {
    Status S;
    S.Diag = std::move(D);
    return S;
  }

  /// Builds a failed status with just a code and a message.
  static Status error(ErrorCode Code, std::string Message) {
    Diagnostic D;
    D.Level = Severity::Error;
    D.Code = Code;
    D.Message = std::move(Message);
    return error(std::move(D));
  }

  bool isOk() const { return !Diag.has_value(); }
  explicit operator bool() const { return isOk(); }

  ErrorCode code() const { return Diag ? Diag->Code : ErrorCode::Ok; }

  /// The diagnostic message, or "" when ok.
  const std::string &message() const {
    static const std::string Empty;
    return Diag ? Diag->Message : Empty;
  }

  /// The full diagnostic. Only valid on a failed status.
  const Diagnostic &diagnostic() const {
    assert(Diag && "diagnostic() on an ok Status");
    return *Diag;
  }

  /// "ok", or the rendered diagnostic.
  std::string render() const { return Diag ? Diag->render() : "ok"; }

private:
  std::optional<Diagnostic> Diag;
};

/// A Status that, when ok, also carries a value. Minimal by design: enough
/// for Cable's pipeline results, not a general-purpose monad.
template <typename T> class StatusOr {
public:
  /*implicit*/ StatusOr(T Value) : Val(std::move(Value)) {}
  /*implicit*/ StatusOr(Status S) : Stat(std::move(S)) {
    assert(!Stat.isOk() && "StatusOr constructed from an ok Status "
                           "without a value");
  }

  bool isOk() const { return Stat.isOk(); }
  explicit operator bool() const { return isOk(); }

  const Status &status() const { return Stat; }

  T &value() {
    assert(Val && "value() on a failed StatusOr");
    return *Val;
  }
  const T &value() const {
    assert(Val && "value() on a failed StatusOr");
    return *Val;
  }

  T &operator*() { return value(); }
  const T &operator*() const { return value(); }
  T *operator->() { return &value(); }
  const T *operator->() const { return &value(); }

private:
  Status Stat;
  std::optional<T> Val;
};

} // namespace cable

#endif // CABLE_SUPPORT_STATUS_H
