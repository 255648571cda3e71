//===- support/Budget.h - Resource budgets and cancellation -----*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets for the lattice pipeline. Concept lattices are
/// worst-case exponential in the context, so every batch entry point
/// accepts a Budget: a wall-clock deadline, a cap on enumerated concepts,
/// and a cap on context cells (objects × attributes). A BudgetMeter stamps
/// the deadline at construction and is shared by reference across one
/// operation; expiry and external cancellation are sticky and
/// thread-safe, so another thread may cancel a running build.
///
/// Checkpoint granularity is one closure computation (one concept), which
/// dwarfs the cost of an atomic load plus an occasional clock sample.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_BUDGET_H
#define CABLE_SUPPORT_BUDGET_H

#include "support/Metrics.h"
#include "support/Status.h"

#include <atomic>
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
  /// Maximum context size in cells (objects × attributes).
  std::optional<size_t> MaxContextCells;

  bool unlimited() const {
    return !TimeLimit && !MaxConcepts && !MaxContextCells;
  }
};

/// Runtime companion of a Budget: stamps the deadline when constructed and
/// answers "should we stop?" cheaply from many threads. Sticky: once
/// expired or cancelled it stays that way.
class BudgetMeter {
public:
  explicit BudgetMeter(const Budget &B)
      : Limits(B),
        Start(std::chrono::steady_clock::now()),
        Deadline(B.TimeLimit ? std::optional(Start + *B.TimeLimit)
                             : std::nullopt) {}

  BudgetMeter(const BudgetMeter &) = delete;
  BudgetMeter &operator=(const BudgetMeter &) = delete;

  const Budget &budget() const { return Limits; }

  /// True once the deadline passed or cancel() was called. The first
  /// caller to observe an expired clock latches the flag, so all
  /// subsequent calls are a single relaxed atomic load.
  bool expired() const {
    if (Stopped.load(std::memory_order_relaxed))
      return true;
    if (Deadline && std::chrono::steady_clock::now() >= *Deadline) {
      // Latching, not per-check: counts operations that tripped their
      // deadline, and only the first observer reaches this line.
      if (!Stopped.exchange(true, std::memory_order_relaxed))
        Metrics::counter("budget.deadline-trips").add();
      return true;
    }
    return false;
  }

  /// Requests cooperative cancellation from outside the operation.
  void cancel() {
    Cancelled.store(true, std::memory_order_relaxed);
    if (!Stopped.exchange(true, std::memory_order_relaxed))
      Metrics::counter("budget.cancels").add();
  }

  bool wasCancelled() const {
    return Cancelled.load(std::memory_order_relaxed);
  }

  /// Elapsed wall-clock time since construction.
  std::chrono::milliseconds elapsed() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - Start);
  }

  /// The status describing why a budgeted operation stopped early:
  /// Cancelled if cancel() was called, ResourceExhausted otherwise.
  Status stopStatus(const char *What) const {
    if (wasCancelled())
      return Status::error(ErrorCode::Cancelled,
                           std::string(What) + " cancelled");
    return Status::error(ErrorCode::ResourceExhausted,
                         std::string(What) + " exceeded the time budget (" +
                             std::to_string(elapsed().count()) +
                             " ms elapsed)");
  }

private:
  const Budget Limits;
  const std::chrono::steady_clock::time_point Start;
  const std::optional<std::chrono::steady_clock::time_point> Deadline;
  mutable std::atomic<bool> Stopped{false};
  std::atomic<bool> Cancelled{false};
};

} // namespace cable

#endif // CABLE_SUPPORT_BUDGET_H
