//===- workload/Oracle.h - Ground-truth labeling ----------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference labeling for strategy measurement. The paper's evaluation
/// replays an expert's accurate labeling; here the expert is replaced by
/// the protocol's correct-language oracle: a trace is `good` iff the
/// protocol's correct FA accepts it. A multi-label mode reproduces §2.2's
/// defense against overgeneralization by splitting `good` per variant
/// (e.g. `good_fopen` / `good_popen`, keyed on the first event's name).
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_WORKLOAD_ORACLE_H
#define CABLE_WORKLOAD_ORACLE_H

#include "cable/Session.h"
#include "cable/WellFormed.h"
#include "fa/Automaton.h"
#include "workload/Protocols.h"

namespace cable {

/// Classifies traces against a protocol's correct language.
class Oracle {
public:
  /// Compiles \p Model.CorrectRegex over \p Table.
  Oracle(const ProtocolModel &Model, EventTable &Table);

  /// True iff the correct FA accepts \p T.
  bool isCorrect(const Trace &T, const EventTable &Table) const;

  /// The correct-language FA.
  const Automaton &correctFA() const { return CorrectFA; }

  /// Per-object label names ("good"/"bad") for \p S's objects.
  std::vector<std::string> labelNames(const Session &S) const;

  /// Variant labels: `bad`, or `good_<first event name>` (§2.2's several
  /// kinds of good labels).
  std::vector<std::string> variantLabelNames(const Session &S) const;

  /// Convenience: builds the ReferenceLabeling for \p S (interning into
  /// it). \p Variants selects variantLabelNames.
  ReferenceLabeling referenceLabeling(Session &S,
                                      bool Variants = false) const;

private:
  Automaton CorrectFA;
};

} // namespace cable

#endif // CABLE_WORKLOAD_ORACLE_H
