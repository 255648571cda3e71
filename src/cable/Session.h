//===- cable/Session.h - A Cable debugging session --------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Session is one run of the paper's method over a set of traces and a
/// reference FA:
///
///  Step 1b/1c: the context has one object per class of identical traces
///  and one attribute per reference-FA transition, related by the executed-
///  transition relation R; the concept lattice is built with the
///  NextClosure batch builder (lectic-canonical). GodinBuilder, the
///  paper's §3.1.1 algorithm, serves Table 2 and is its differential
///  oracle.
///
///  Step 2: the user partitions traces into labels (`good`, `bad`, or
///  domain-specific labels like `good_fopen`) by labeling whole concepts.
///  The session tracks each concept's state — Unlabeled, PartlyLabeled,
///  FullyLabeled (rendered green/yellow/red, §4.1) — and implements the
///  `Label traces` command's selection semantics and the three summary
///  views (Show FA, Show transitions, Show traces) plus Focus sub-sessions.
///
///  Label state is kept twice: per object (labelOf) and as bitsets — the
///  labeled objects and one set per label — so concept states and trace
///  selections are word operations on the extent rather than walks over
///  it. One private setter keeps the two forms in step.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_CABLE_SESSION_H
#define CABLE_CABLE_SESSION_H

#include "concepts/Context.h"
#include "concepts/Lattice.h"
#include "fa/Automaton.h"
#include "learner/SkStrings.h"
#include "support/Budget.h"
#include "support/Status.h"
#include "trace/TraceSet.h"

#include <chrono>
#include <optional>
#include <string>
#include <vector>

namespace cable {

/// Interned label (e.g. "good", "bad", "good_fopen").
using LabelId = uint32_t;

/// Which traces of a concept an operation applies to (the choice Cable
/// offers when some traces are already labeled).
enum class TraceSelect {
  All,       ///< Every trace in the concept.
  Unlabeled, ///< Only traces with no label yet.
  WithLabel, ///< Only traces currently carrying a specific label (none
             ///< when that label is unset: an unknown label has no traces).
};

/// Labeling state of one concept (§4.1).
enum class ConceptState {
  Unlabeled,     ///< Has unlabeled traces and no labeled ones (green).
  PartlyLabeled, ///< Some labeled, some unlabeled (yellow).
  FullyLabeled,  ///< No unlabeled traces; empty concepts qualify (red).
};

struct FocusSession;

/// Options for Session::build.
struct SessionOptions {
  /// Resource limits for lattice construction. On exhaustion the session
  /// still builds, with truncated() set and buildStatus() explaining why;
  /// the §5 identical-trace baseline clustering (baselineClasses()) is
  /// always complete regardless.
  Budget ResourceBudget;

  /// Directory of the content-addressed lattice artifact store; "" (the
  /// default) disables caching. The key is context hash x builder x
  /// budget fingerprint, none of which depends on the CPU.
  /// Every cache failure (corrupt artifact, I/O error, lock timeout)
  /// degrades to a normal build and is reported via cacheDiagnostics();
  /// a poisoned cache costs time, never correctness.
  /// Builds under a wall-clock budget bypass the cache entirely: deadline
  /// truncation is timing-dependent, so the result is not a pure function
  /// of the key.
  std::string CacheDir;

  /// Bound on waiting for a concurrent process building the same key
  /// (stale-lock breaking: after this, build inline without publishing).
  std::chrono::milliseconds CacheLockTimeout{60000};
};

/// One Cable debugging session.
class Session {
public:
  using NodeId = ConceptLattice::NodeId;

  /// Builds the session: dedups \p Traces into identical-trace classes,
  /// simulates each representative on \p ReferenceFA to obtain its
  /// attribute row, and constructs the concept lattice with NextClosure.
  /// \p ReferenceFA must be epsilon-free. Traces the FA rejects get empty
  /// attribute rows and are reported by rejectedObjects().
  Session(TraceSet Traces, Automaton ReferenceFA);

  /// Budget-aware construction: as the constructor, but an epsilon FA
  /// comes back as a failed Status instead of aborting, and lattice
  /// construction honors Options.ResourceBudget — on exhaustion
  /// the session is still returned with truncated() set, a partial (but
  /// well-formed) lattice, and the complete baseline clustering.
  static StatusOr<Session> build(TraceSet Traces, Automaton ReferenceFA,
                                 const SessionOptions &Options = {});

  /// True when lattice construction stopped early on a budget limit; the
  /// lattice is then a valid sub-lattice (lectic prefix plus top/bottom)
  /// rather than the full concept set.
  bool truncated() const { return Truncated; }

  /// Ok, or the diagnostic explaining why the lattice was truncated.
  const Status &buildStatus() const { return BuildSt; }

  /// True when the lattice was loaded from the artifact store instead of
  /// built (the warm-start path).
  bool cacheHit() const { return CacheHit; }

  /// Non-fatal cache problems encountered during build(): a quarantined
  /// corrupt artifact, an I/O error, a lock timeout. The build itself
  /// succeeded regardless (graceful degradation); tools surface these as
  /// warnings.
  const std::vector<Status> &cacheDiagnostics() const { return CacheDiags; }

  /// The §5 identical-trace-class baseline clustering — always complete,
  /// even when the lattice is truncated (graceful degradation target).
  const TraceClasses &baselineClasses() const { return Classes; }

  // -- Structure ----------------------------------------------------------

  const ConceptLattice &lattice() const { return Lattice; }
  const Context &context() const { return Ctx; }
  const Automaton &referenceFA() const { return RefFA; }
  const EventTable &table() const { return Traces.table(); }

  /// Mutable table access, for interning focus-FA events into the
  /// session's vocabulary.
  EventTable &table() { return Traces.table(); }
  const TraceSet &allTraces() const { return Traces; }

  /// Objects are classes of identical traces (§5: the lattice is built
  /// from representatives).
  size_t numObjects() const { return Classes.numClasses(); }
  const Trace &object(size_t Obj) const {
    return Classes.Representatives[Obj];
  }
  uint32_t multiplicity(size_t Obj) const { return Classes.Multiplicity[Obj]; }

  /// Object indices whose trace the reference FA rejects (their attribute
  /// rows are empty — the paper expects a reference FA that recognizes at
  /// least all the traces, so a nonempty result deserves a diagnostic).
  const std::vector<size_t> &rejectedObjects() const { return Rejected; }

  /// Extent of the concept minus the extents of all its children — the
  /// traces that become labelable only at this concept.
  BitVector ownObjects(NodeId Id) const;

  // -- Labels --------------------------------------------------------------

  /// Interns \p Name, returning its id.
  LabelId internLabel(std::string_view Name);

  /// The id of label \p Name, if it exists; never creates one (read-only
  /// views look labels up, only labeling interns them).
  std::optional<LabelId> findLabel(std::string_view Name) const;
  size_t numLabels() const { return LabelNames.size(); }
  const std::string &labelName(LabelId Id) const { return LabelNames[Id]; }

  /// Current label of an object, if any.
  std::optional<LabelId> labelOf(size_t Obj) const { return Labels[Obj]; }

  /// Clears every label (used by strategy measurement to rerun the same
  /// session).
  void clearLabels();

  /// The `Label traces` command: gives \p NewLabel to the selected traces
  /// of concept \p Id. \p From names the source label when \p Select is
  /// WithLabel. Returns the number of objects whose label changed or was
  /// set. A trace has at most one label; relabeling replaces.
  size_t labelTraces(NodeId Id, TraceSelect Select, LabelId NewLabel,
                     std::optional<LabelId> From = std::nullopt);

  /// Labels a single object directly — the §4.3 fallback for concepts that
  /// are not well-formed ("label the traces in those concepts by hand").
  void setLabel(size_t Obj, LabelId L);

  /// Reverts the most recent labeling operation (one labelTraces, setLabel,
  /// mergeBack, or loadLabels call). Returns false when there is nothing
  /// to undo. The history is discarded by clearLabels().
  bool undo();

  /// Number of operations currently undoable.
  size_t undoDepth() const { return UndoStack.size(); }

  /// Labeling state of \p Id (empty concepts are FullyLabeled).
  ConceptState stateOf(NodeId Id) const;

  /// True once every object has a label.
  bool allLabeled() const { return NumLabeled == Labels.size(); }

  /// Objects of \p Id selected by \p Select (+ \p From for WithLabel).
  BitVector selectObjects(NodeId Id, TraceSelect Select,
                          std::optional<LabelId> From = std::nullopt) const;

  /// Objects with no label, in the whole session.
  BitVector unlabeledObjects() const;

  /// Objects with a label, in the whole session (the complement of
  /// unlabeledObjects(), without the copy).
  const BitVector &labeledObjects() const { return Labeled; }

  /// Objects currently carrying \p L, in the whole session.
  BitVector objectsWithLabel(LabelId L) const;

  // -- Summaries (§4.1) ----------------------------------------------------

  /// Show FA: sk-strings summary of the selected traces of \p Id.
  Automaton showFA(NodeId Id, TraceSelect Select,
                   std::optional<LabelId> From = std::nullopt,
                   const SkStringsOptions &Options = {}) const;

  /// Show transitions: the concept's intent as transition ids.
  std::vector<TransitionId> showTransitions(NodeId Id) const;

  /// Show traces: the selected object indices of \p Id.
  std::vector<size_t> showTraces(NodeId Id, TraceSelect Select,
                                 std::optional<LabelId> From
                                 = std::nullopt) const;

  // -- Focus (§4.1) ---------------------------------------------------------

  /// Starts a Focus sub-session on the traces of \p Id using \p FocusFA.
  FocusSession focus(NodeId Id, Automaton FocusFA) const;

  /// Ends a Focus sub-session: copies every label assigned in \p F back
  /// onto the corresponding parent objects (labels merge by name).
  void mergeBack(const FocusSession &F);

  // -- Persistence ----------------------------------------------------------

  /// Serializes the current labeling, one line per labeled trace:
  /// `<label> <trace>`. Unlabeled traces are omitted.
  std::string serializeLabels() const;

  /// Restores labels from serializeLabels output. Traces are matched by
  /// canonical content, so labels survive re-clustering with a different
  /// reference FA or a different trace order. Lines naming traces not in
  /// this session are counted in \p NumUnmatched (may be null). Returns
  /// false and sets \p ErrorMsg on parse errors.
  bool loadLabels(std::string_view Text, std::string &ErrorMsg,
                  size_t *NumUnmatched = nullptr);

  /// Serializes the complete mutable session state for the journal's
  /// compacted snapshots: the label intern order, every per-object label
  /// (by object index — snapshots are tied to this exact clustering,
  /// unlike the content-matched serializeLabels format), and the full
  /// undo history, so a restored session undoes exactly like the
  /// original. Line-oriented text; see docs/FORMATS.md.
  std::string serializeSnapshot() const;

  /// Restores serializeSnapshot state, replacing labels and undo history.
  /// Fails with a positioned parse-error Diagnostic on malformed input,
  /// and with invalid-argument when the snapshot's object count does not
  /// match this session (journal directory reused with different traces
  /// or reference FA). The session is unchanged on failure.
  Status loadSnapshot(std::string_view Body);

  // -- Rendering -----------------------------------------------------------

  /// DOT rendering of the lattice; nodes colored by state (green / yellow
  /// / red) as the paper's UI does, labeled with object count and
  /// similarity.
  std::string renderDot(std::string_view Name) const;

  /// One-line description of a concept for the CLI.
  std::string describeConcept(NodeId Id) const;

private:
  /// For build(): members are filled in by init().
  Session() = default;

  /// Shared construction tail: context, cache lookup, lattice build.
  void init(const SessionOptions &Options);

  /// Gives object \p Obj label \p L (none = unlabeled), keeping Labels,
  /// Labeled, NumLabeled and PerLabel in step. Every label change goes
  /// through here.
  void assign(size_t Obj, std::optional<LabelId> L);

  /// Every object unlabeled, one empty set per interned label.
  void resetLabelState();

  TraceSet Traces;
  TraceClasses Classes;
  Automaton RefFA;
  Context Ctx;
  ConceptLattice Lattice;
  std::vector<size_t> Rejected;
  bool Truncated = false;
  bool CacheHit = false;
  Status BuildSt;
  std::vector<Status> CacheDiags;

  std::vector<std::optional<LabelId>> Labels;
  /// The same state as bitsets over objects: the labeled ones, their
  /// count, and PerLabel[L] = the objects labeled L.
  BitVector Labeled;
  size_t NumLabeled = 0;
  std::vector<BitVector> PerLabel;
  std::vector<std::string> LabelNames;

  /// Undo history: per operation, the objects it changed with their prior
  /// labels, in the order it changed them.
  using UndoRecord = std::vector<std::pair<size_t, std::optional<LabelId>>>;
  std::vector<UndoRecord> UndoStack;
};

/// A focused sub-session over one concept's traces, clustered with a
/// different FA (§4.1 Focus). Labels assigned in Sub are merged back into
/// the parent with Session::mergeBack().
struct FocusSession {
  Session Sub;
  /// ParentObjects[i] = parent object index of Sub object i.
  std::vector<size_t> ParentObjects;
};

} // namespace cable

#endif // CABLE_CABLE_SESSION_H
