//===- support/Budget.h - Resource budgets ----------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets for the lattice pipeline. Concept lattices are
/// worst-case exponential in the context, so the budgeted build accepts a
/// Budget: a wall-clock deadline and a cap on enumerated concepts (the
/// tools' --time-budget and --max-concepts). A BudgetMeter stamps the
/// deadline at construction and is shared by reference across one
/// single-threaded operation; expiry is sticky.
///
/// Checkpoint granularity is one closure computation (one concept), which
/// dwarfs the cost of a flag test plus an occasional clock sample.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_BUDGET_H
#define CABLE_SUPPORT_BUDGET_H

#include "support/Metrics.h"
#include "support/Status.h"

#include <chrono>
#include <cstddef>
#include <optional>

namespace cable {

/// Declarative resource limits. Absent fields mean unlimited; a
/// default-constructed Budget imposes no limits at all.
struct Budget {
  /// Wall-clock limit for the whole operation.
  std::optional<std::chrono::milliseconds> TimeLimit;
  /// Maximum number of concepts a builder may enumerate.
  std::optional<size_t> MaxConcepts;

  bool unlimited() const { return !TimeLimit && !MaxConcepts; }
};

/// Runtime companion of a Budget: stamps the deadline when constructed and
/// answers "should we stop?" cheaply. Sticky: once expired it stays that
/// way.
class BudgetMeter {
public:
  explicit BudgetMeter(const Budget &B)
      : Limits(B), Start(std::chrono::steady_clock::now()),
        Deadline(deadlineAfter(Start, B.TimeLimit)) {}

  BudgetMeter(const BudgetMeter &) = delete;
  BudgetMeter &operator=(const BudgetMeter &) = delete;

  const Budget &budget() const { return Limits; }

  /// True once the deadline passed. The first call to observe an expired
  /// clock latches the flag, so all subsequent calls are a flag test.
  bool expired() const {
    if (Stopped)
      return true;
    if (Deadline && std::chrono::steady_clock::now() >= *Deadline) {
      // Latching, not per-check: counts operations that tripped their
      // deadline, once each.
      Stopped = true;
      Metrics::counter("budget.deadline-trips").add();
      return true;
    }
    return false;
  }

  /// Elapsed wall-clock time since construction.
  std::chrono::milliseconds elapsed() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - Start);
  }

  /// The status describing a budgeted operation stopped by the deadline.
  Status stopStatus(const char *What) const {
    return Status::error(ErrorCode::ResourceExhausted,
                         std::string(What) + " exceeded the time budget (" +
                             std::to_string(elapsed().count()) +
                             " ms elapsed)");
  }

private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// \p Start + \p Limit, or no deadline when that instant lies beyond
  /// what the clock can represent (a limit of centuries never expires).
  static std::optional<TimePoint>
  deadlineAfter(TimePoint Start,
                std::optional<std::chrono::milliseconds> Limit) {
    if (!Limit)
      return std::nullopt;
    // Compared in milliseconds: converting Limit to the clock's finer
    // period is exactly the overflow this guards against.
    auto Room = std::chrono::duration_cast<std::chrono::milliseconds>(
        TimePoint::max() - Start);
    if (*Limit >= Room)
      return std::nullopt;
    return Start + *Limit;
  }

  const Budget Limits;
  const TimePoint Start;
  const std::optional<TimePoint> Deadline;
  mutable bool Stopped = false;
};

} // namespace cable

#endif // CABLE_SUPPORT_BUDGET_H
