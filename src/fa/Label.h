//===- fa/Label.h - Transition labels ---------------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Labels on automaton transitions. A label matches trace events. Three
/// kinds:
///
///  - Exact:    a specific interaction name with per-argument patterns
///              (a concrete canonical value, or "any value");
///  - NameAny:  a specific name, any arguments;
///  - Wildcard: any event (the `wildcard` of the paper's name-projection
///              template, §4.1).
///
/// Every label consumes one event: automata have no silent moves. The
/// regex compiler's Thompson construction keeps its silent moves to itself
/// (fa/Regex.h).
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_FA_LABEL_H
#define CABLE_FA_LABEL_H

#include "trace/Event.h"
#include "trace/EventTable.h"

#include <string>
#include <vector>

namespace cable {

/// Pattern for one event argument.
struct ArgPattern {
  bool IsAny = true;
  ValueId Value = 0;

  static ArgPattern any() { return ArgPattern{true, 0}; }
  static ArgPattern value(ValueId V) { return ArgPattern{false, V}; }

  bool matches(ValueId V) const { return IsAny || Value == V; }
  bool operator==(const ArgPattern &RHS) const {
    return IsAny == RHS.IsAny && (IsAny || Value == RHS.Value);
  }
};

/// A transition label.
class TransitionLabel {
public:
  enum class Kind { Exact, NameAny, Wildcard };

  /// Builds an Exact label matching \p Name with argument patterns \p Args.
  static TransitionLabel exact(NameId Name, std::vector<ArgPattern> Args);

  /// Builds an Exact label matching the concrete event \p E.
  static TransitionLabel exactEvent(const Event &E);

  /// Builds a NameAny label.
  static TransitionLabel nameAny(NameId Name);

  /// Builds the wildcard label.
  static TransitionLabel wildcard();

  Kind kind() const { return K; }

  NameId name() const { return Name; }
  const std::vector<ArgPattern> &args() const { return Args; }

  /// Returns true if this label matches event \p E.
  bool matches(const Event &E) const;

  /// Returns true if the label mentions canonical value \p V in some
  /// argument pattern (used by the name-projection template).
  bool mentionsValue(ValueId V) const;

  bool operator==(const TransitionLabel &RHS) const {
    return K == RHS.K && Name == RHS.Name && Args == RHS.Args;
  }

  /// Renders the label: `eventname(v0,*)`, `eventname(*ANY*)` for NameAny,
  /// `<any>` for wildcard.
  std::string render(const EventTable &Table) const;

private:
  Kind K = Kind::Wildcard;
  NameId Name = 0;
  std::vector<ArgPattern> Args;
};

} // namespace cable

#endif // CABLE_FA_LABEL_H
