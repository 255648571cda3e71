//===- cable/Session.cpp - A Cable debugging session -----------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "cable/Session.h"

#include "concepts/BuildResult.h"
#include "concepts/NextClosureBuilder.h"
#include "support/ArtifactStore.h"
#include "support/Dot.h"
#include "support/Failpoint.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/StringUtil.h"
#include "support/TraceEvent.h"

#include <optional>
#include <unordered_map>

#include <cassert>

using namespace cable;

namespace {

/// The builder-family half of the cache key: NextClosure, whose lectic
/// enumeration order fixes the node ids of every artifact.
constexpr const char *kLatticeBuilderId = "nextclosure";

/// The relation ledger: one tick per relation R computed, never per trace.
Metrics::Counter &RelationCalls = Metrics::counter("fa.relation-calls");
Metrics::Counter &RelationObjects = Metrics::counter("fa.relation-objects");

/// The budget half of the cache key. Only the deterministic cap
/// participates: a MaxConcepts-truncated lattice is an exact lectic prefix,
/// so the cap must distinguish artifacts; wall-clock deadlines make the
/// result timing-dependent and are handled by bypassing the cache entirely.
std::string budgetFingerprint(const Budget &B) {
  return B.MaxConcepts ? "mc" + std::to_string(*B.MaxConcepts) : "full";
}

} // namespace

Session::Session(TraceSet TracesIn, Automaton ReferenceFA) {
  Traces = std::move(TracesIn);
  RefFA = std::move(ReferenceFA);
  assert(!RefFA.hasEpsilons() &&
         "reference FA must be epsilon-free (apply withoutEpsilons)");
  init(SessionOptions());
}

StatusOr<Session> Session::build(TraceSet Traces, Automaton ReferenceFA,
                                 const SessionOptions &Options) {
  Session S;
  S.Traces = std::move(Traces);
  S.RefFA = std::move(ReferenceFA);
  if (S.RefFA.hasEpsilons())
    return Status::error(
        ErrorCode::InvalidArgument,
        "reference FA has epsilon transitions; apply withoutEpsilons() "
        "before building a session");
  S.init(Options);
  return S;
}

void Session::init(const SessionOptions &Options) {
  TraceSpan Span("session-init");
  Classes = Traces.computeClasses();

  // Step 1b: one object per identical-trace class; one attribute per
  // reference-FA transition; R = executed-on-an-accepting-run.
  {
    TraceSpan RelationSpan("fa-relation",
                           static_cast<int64_t>(Classes.numClasses()));
    RelationCalls.add();
    RelationObjects.add(Classes.numClasses());
    Ctx = Context(Classes.numClasses(), RefFA.numTransitions());
    for (size_t Obj = 0; Obj < Classes.numClasses(); ++Obj) {
      BitVector Row =
          RefFA.executedTransitions(Classes.Representatives[Obj], table());
      if (Row.none() && !Classes.Representatives[Obj].empty())
        Rejected.push_back(Obj);
      for (size_t A : Row)
        Ctx.relate(Obj, A);
    }
  }

  // Content-addressed lattice cache. The key never mentions the kernel
  // level (it is bit-for-bit irrelevant), and a wall-clock budget
  // disables caching outright — a deadline-truncated lattice is not a
  // pure function of the key.
  std::optional<ArtifactStore> Store;
  LatticeArtifactMeta Meta;
  std::string CacheKey;
  if (!Options.CacheDir.empty() && !Options.ResourceBudget.TimeLimit) {
    ArtifactStore Candidate(Options.CacheDir);
    if (Status S = Candidate.prepare(); S.isOk()) {
      Store.emplace(std::move(Candidate));
      Meta.ContextHash = Ctx.contentHash();
      Meta.Builder = kLatticeBuilderId;
      Meta.Budget = budgetFingerprint(Options.ResourceBudget);
      Meta.NumObjects = Ctx.numObjects();
      Meta.NumAttributes = Ctx.numAttributes();
      CacheKey = Meta.ContextHash + "." + Meta.Builder + "." + Meta.Budget;
    } else {
      CABLE_LOG_WARN("cache", "cache-prepare-failed",
                     "cache directory unusable; building uncached",
                     {Log::str("error", S.message())});
      CacheDiags.push_back(std::move(S));
    }
  }
  // Attempts a verified load; any failure other than "not there yet"
  // (corruption -> quarantined by the store, I/O trouble) is recorded and
  // degrades to a normal build.
  auto TryLoad = [&]() -> bool {
    bool Loaded = false;
    Status S = Store->load(CacheKey, [&](std::string_view Bytes) -> Status {
      StatusOr<ConceptLattice> L = ConceptLattice::deserialize(
          Bytes, Meta, Store->artifactPath(CacheKey));
      if (!L.isOk())
        return L.status();
      Lattice = std::move(*L);
      Loaded = true;
      return Status::ok();
    });
    if (!S.isOk() && S.code() != ErrorCode::NotFound) {
      CABLE_LOG_WARN("cache", "cache-load-failed",
                     "cached artifact unusable; degrading to a build",
                     {Log::str("key", CacheKey),
                      Log::str("error", S.message())});
      CacheDiags.push_back(std::move(S));
    }
    return Loaded;
  };

  ArtifactStore::KeyLock Lock;
  if (Store) {
    TraceSpan CacheSpan("cache-lookup");
    CacheHit = TryLoad();
    if (!CacheHit) {
      // Single-flight: whoever holds the key lock builds and publishes;
      // everyone else waits, re-loads, and hits. A timed-out wait (a
      // wedged holder) just means we build inline and skip publishing.
      Lock = Store->lockKey(CacheKey, Options.CacheLockTimeout);
      if (Lock.held())
        CacheHit = TryLoad();
    }
    Metrics::counter(CacheHit ? "cache.hits" : "cache.misses").add();
    CABLE_LOG_INFO("cache", CacheHit ? "cache-hit" : "cache-miss",
                   CacheHit ? "lattice served from the artifact store"
                            : "no usable artifact; building",
                   {Log::str("key", CacheKey)});
  }
  if (CacheHit) {
    Truncated = false;
    BuildSt = Status::ok();
    Metrics::counter("session.builds").add();
    resetLabelState();
    return;
  }

  // Step 1c: concept analysis by NextClosure. A budget stop truncates at
  // a lectic prefix (see BuildResult.h).
  BudgetMeter Meter(Options.ResourceBudget);
  LatticeBuildResult R;
  {
    TraceSpan BuildSpan("lattice-build",
                        static_cast<int64_t>(Ctx.numObjects()));
    R = NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
  }
  Metrics::counter("session.builds").add();
  if (R.Truncated) {
    Metrics::counter("session.truncated-builds").add();
    CABLE_LOG_WARN("session", "build-truncated",
                   "resource budget truncated the lattice",
                   {Log::num("concepts",
                             static_cast<int64_t>(R.Lattice.size()))});
  }
  if (Options.ResourceBudget.TimeLimit) {
    int64_t Headroom = static_cast<int64_t>(
                           Options.ResourceBudget.TimeLimit->count()) -
                       static_cast<int64_t>(Meter.elapsed().count());
    Metrics::gauge("budget.headroom-ms").set(Headroom > 0 ? Headroom : 0);
  }
  Lattice = std::move(R.Lattice);
  Truncated = R.Truncated;
  BuildSt = std::move(R.BuildStatus);

  // Publish the artifact, but only when this process won the key lock
  // (otherwise a peer is publishing, or the wait for one timed out) and
  // the lattice is complete — truncated prefixes under a concept cap
  // would be correct to cache, but deadline-free complete builds are the
  // only artifacts the warm path should ever trust blindly after verify.
  if (Store && Lock.held() && !Truncated && BuildSt.isOk()) {
    Status SS = Failpoint::hit("cache-serialize");
    if (SS.isOk()) {
      TraceSpan StoreSpan("cache-store");
      Meta.Truncated = false;
      SS = Store->store(CacheKey, Lattice.serialize(Meta));
    }
    if (!SS.isOk()) {
      CABLE_LOG_WARN("cache", "cache-store-failed",
                     "artifact publish failed; result still served",
                     {Log::str("key", CacheKey),
                      Log::str("error", SS.message())});
      CacheDiags.push_back(std::move(SS));
    }
  }

  resetLabelState();
}

BitVector Session::ownObjects(NodeId Id) const {
  BitVector Own = Lattice.node(Id).Extent;
  for (NodeId C : Lattice.children(Id))
    Own.andNot(Lattice.node(C).Extent);
  return Own;
}

LabelId Session::internLabel(std::string_view Name) {
  if (std::optional<LabelId> Id = findLabel(Name))
    return *Id;
  LabelNames.emplace_back(Name);
  PerLabel.emplace_back(numObjects());
  return static_cast<LabelId>(LabelNames.size() - 1);
}

std::optional<LabelId> Session::findLabel(std::string_view Name) const {
  for (LabelId Id = 0; Id < LabelNames.size(); ++Id)
    if (LabelNames[Id] == Name)
      return Id;
  return std::nullopt;
}

void Session::assign(size_t Obj, std::optional<LabelId> L) {
  std::optional<LabelId> &Cur = Labels[Obj];
  if (Cur == L)
    return;
  if (Cur) {
    PerLabel[*Cur].reset(Obj);
  } else {
    Labeled.set(Obj);
    ++NumLabeled;
  }
  if (L) {
    PerLabel[*L].set(Obj);
  } else {
    Labeled.reset(Obj);
    --NumLabeled;
  }
  Cur = L;
}

void Session::resetLabelState() {
  size_t N = Classes.numClasses();
  Labels.assign(N, std::nullopt);
  Labeled = BitVector(N);
  NumLabeled = 0;
  PerLabel.assign(LabelNames.size(), BitVector(N));
}

void Session::clearLabels() {
  // assign() clears only bit Obj, behind the scan position.
  for (size_t Obj = Labeled.findFirst(); Obj != BitVector::npos;
       Obj = Labeled.findNext(Obj))
    assign(Obj, std::nullopt);
  UndoStack.clear();
}

BitVector Session::selectObjects(NodeId Id, TraceSelect Select,
                                 std::optional<LabelId> From) const {
  const BitVector &Extent = Lattice.node(Id).Extent;
  switch (Select) {
  case TraceSelect::All:
    return Extent;
  case TraceSelect::Unlabeled: {
    BitVector Out = Extent;
    Out.andNot(Labeled);
    return Out;
  }
  case TraceSelect::WithLabel:
    if (From && *From < PerLabel.size())
      return Extent & PerLabel[*From];
    return BitVector(Extent.size());
  }
  return BitVector(Extent.size());
}

size_t Session::labelTraces(NodeId Id, TraceSelect Select, LabelId NewLabel,
                            std::optional<LabelId> From) {
  assert(NewLabel < LabelNames.size() && "label not interned");
  BitVector Targets = selectObjects(Id, Select, From);
  Targets.andNot(PerLabel[NewLabel]);
  UndoRecord Record;
  Record.reserve(Targets.count());
  for (size_t Obj : Targets) {
    Record.emplace_back(Obj, Labels[Obj]);
    assign(Obj, NewLabel);
  }
  size_t Changed = Record.size();
  UndoStack.push_back(std::move(Record));
  return Changed;
}

void Session::setLabel(size_t Obj, LabelId L) {
  assert(Obj < Labels.size() && L < LabelNames.size() && "bad label/object");
  UndoStack.push_back({{Obj, Labels[Obj]}});
  assign(Obj, L);
}

bool Session::undo() {
  if (UndoStack.empty())
    return false;
  // Last change first: an operation that changed one object twice (a
  // labels file naming a trace twice) restores its original label.
  const UndoRecord &Record = UndoStack.back();
  for (auto It = Record.rbegin(); It != Record.rend(); ++It)
    assign(It->first, It->second);
  UndoStack.pop_back();
  return true;
}

ConceptState Session::stateOf(NodeId Id) const {
  const BitVector &Extent = Lattice.node(Id).Extent;
  if (Extent.isSubsetOf(Labeled))
    return ConceptState::FullyLabeled; // Includes the empty concept.
  return Extent.intersects(Labeled) ? ConceptState::PartlyLabeled
                                    : ConceptState::Unlabeled;
}

BitVector Session::unlabeledObjects() const {
  BitVector Out = Labeled;
  Out.flipAll();
  return Out;
}

BitVector Session::objectsWithLabel(LabelId L) const {
  return L < PerLabel.size() ? PerLabel[L] : BitVector(numObjects());
}

Automaton Session::showFA(NodeId Id, TraceSelect Select,
                          std::optional<LabelId> From,
                          const SkStringsOptions &Options) const {
  std::vector<Trace> Selected;
  for (size_t Obj : selectObjects(Id, Select, From))
    Selected.push_back(Classes.Representatives[Obj]);
  return learnSkStringsFA(Selected, table(), Options);
}

std::vector<TransitionId> Session::showTransitions(NodeId Id) const {
  std::vector<TransitionId> Out;
  for (size_t A : Lattice.node(Id).Intent)
    Out.push_back(static_cast<TransitionId>(A));
  return Out;
}

std::vector<size_t> Session::showTraces(NodeId Id, TraceSelect Select,
                                        std::optional<LabelId> From) const {
  return selectObjects(Id, Select, From).toIndices();
}

FocusSession Session::focus(NodeId Id, Automaton FocusFA) const {
  // Collect the concept's traces into a fresh TraceSet (same event table,
  // one copy per class representative).
  std::vector<size_t> ParentObjects = Lattice.node(Id).Extent.toIndices();
  TraceSet SubTraces;
  SubTraces.table() = Traces.table();
  for (size_t Obj : ParentObjects)
    SubTraces.add(Classes.Representatives[Obj]);
  FocusSession F{Session(std::move(SubTraces), std::move(FocusFA)),
                 std::move(ParentObjects)};
  return F;
}

void Session::mergeBack(const FocusSession &F) {
  // Sub objects are classes over the focused traces; because the focused
  // traces were distinct representatives, classes are singletons and the
  // object order matches ParentObjects.
  assert(F.Sub.numObjects() == F.ParentObjects.size() &&
         "focus sub-session must have one object per parent object");
  UndoRecord Record;
  for (size_t SubObj = 0; SubObj < F.Sub.numObjects(); ++SubObj) {
    std::optional<LabelId> L = F.Sub.labelOf(SubObj);
    if (!L)
      continue;
    LabelId Here = internLabel(F.Sub.labelName(*L));
    size_t Obj = F.ParentObjects[SubObj];
    Record.emplace_back(Obj, Labels[Obj]);
    assign(Obj, Here);
  }
  UndoStack.push_back(std::move(Record));
}

std::string Session::serializeLabels() const {
  std::string Out;
  for (size_t Obj = 0; Obj < numObjects(); ++Obj) {
    if (!Labels[Obj])
      continue;
    Out += LabelNames[*Labels[Obj]];
    Out += ' ';
    Out += Classes.Representatives[Obj].render(table());
    Out += '\n';
  }
  return Out;
}

bool Session::loadLabels(std::string_view Text, std::string &ErrorMsg,
                         size_t *NumUnmatched) {
  // Index current objects by rendered trace text.
  std::unordered_map<std::string, size_t> ByText;
  for (size_t Obj = 0; Obj < numObjects(); ++Obj)
    ByText.emplace(Classes.Representatives[Obj].render(table()), Obj);

  // Parse everything first: a malformed line leaves the session
  // unchanged, label names included.
  size_t Unmatched = 0;
  size_t LineNo = 0;
  std::vector<std::pair<size_t, std::string>> Assignments;
  for (const std::string &Line : splitString(Text, '\n')) {
    ++LineNo;
    std::string_view Body = trimString(Line);
    if (Body.empty() || Body[0] == '#')
      continue;
    size_t Space = Body.find(' ');
    if (Space == std::string_view::npos) {
      ErrorMsg = "line " + std::to_string(LineNo) +
                 ": expected '<label> <trace>'";
      return false;
    }
    std::string TraceText(trimString(Body.substr(Space + 1)));
    auto It = ByText.find(TraceText);
    if (It == ByText.end()) {
      ++Unmatched;
      continue;
    }
    Assignments.emplace_back(It->second, std::string(Body.substr(0, Space)));
  }

  UndoRecord Record;
  for (const auto &[Obj, LabelName] : Assignments) {
    Record.emplace_back(Obj, Labels[Obj]);
    assign(Obj, internLabel(LabelName));
  }
  UndoStack.push_back(std::move(Record));
  if (NumUnmatched)
    *NumUnmatched = Unmatched;
  return true;
}

std::string Session::serializeSnapshot() const {
  std::string Out = "objects " + std::to_string(numObjects()) + "\n";
  if (!LabelNames.empty()) {
    Out += "labels";
    for (const std::string &Name : LabelNames)
      Out += ' ' + Name;
    Out += '\n';
  }
  for (size_t Obj = 0; Obj < Labels.size(); ++Obj)
    if (Labels[Obj])
      Out += "obj " + std::to_string(Obj) + ' ' + LabelNames[*Labels[Obj]] +
             '\n';
  Out += "undo " + std::to_string(UndoStack.size()) + "\n";
  for (const UndoRecord &Record : UndoStack) {
    Out += "record " + std::to_string(Record.size());
    // Prior labels are written as `=<name>` and "no prior label" as `-`,
    // so a label literally named "-" stays unambiguous.
    for (const auto &[Obj, Prior] : Record) {
      Out += ' ' + std::to_string(Obj) + ' ';
      Out += Prior ? '=' + LabelNames[*Prior] : std::string("-");
    }
    Out += '\n';
  }
  return Out;
}

Status Session::loadSnapshot(std::string_view Body) {
  auto Error = [](size_t LineNo, const std::string &Message) {
    Diagnostic D;
    D.Level = Severity::Error;
    D.Code = ErrorCode::ParseError;
    D.Pos.Line = static_cast<uint32_t>(LineNo);
    D.Message = Message;
    return Status::error(std::move(D));
  };

  // Parse into fresh state; the session is only touched once everything
  // checked out.
  std::vector<std::string> NewNames;
  std::vector<std::optional<LabelId>> NewLabels(Classes.numClasses(),
                                                std::nullopt);
  std::vector<UndoRecord> NewUndo;
  auto InternInto = [&NewNames](std::string_view Name) {
    for (LabelId Id = 0; Id < NewNames.size(); ++Id)
      if (NewNames[Id] == Name)
        return Id;
    NewNames.emplace_back(Name);
    return static_cast<LabelId>(NewNames.size() - 1);
  };

  bool SawObjects = false;
  size_t ExpectedUndo = 0;
  bool SawUndo = false;
  size_t LineNo = 0;
  for (const std::string &Line : splitString(Body, '\n')) {
    ++LineNo;
    std::vector<std::string> Fields = splitWhitespace(Line);
    if (Fields.empty() || Fields[0][0] == '#')
      continue;
    const std::string &Kind = Fields[0];
    if (Kind == "objects") {
      std::optional<unsigned long> N =
          Fields.size() == 2 ? parseUnsignedLong(Fields[1]) : std::nullopt;
      if (!N)
        return Error(LineNo, "malformed 'objects' line");
      if (*N != numObjects())
        return Status::error(
            ErrorCode::InvalidArgument,
            "snapshot was taken over " + std::to_string(*N) +
                " object(s) but this session has " +
                std::to_string(numObjects()) +
                " — the journal directory belongs to a different trace "
                "set or reference FA");
      SawObjects = true;
    } else if (Kind == "labels") {
      for (size_t I = 1; I < Fields.size(); ++I)
        InternInto(Fields[I]);
    } else if (Kind == "obj") {
      std::optional<unsigned long> Obj =
          Fields.size() == 3 ? parseUnsignedLong(Fields[1]) : std::nullopt;
      if (!Obj || *Obj >= NewLabels.size())
        return Error(LineNo, "malformed 'obj' line");
      NewLabels[*Obj] = InternInto(Fields[2]);
    } else if (Kind == "undo") {
      std::optional<unsigned long> N =
          Fields.size() == 2 ? parseUnsignedLong(Fields[1]) : std::nullopt;
      if (!N)
        return Error(LineNo, "malformed 'undo' line");
      ExpectedUndo = *N;
      SawUndo = true;
    } else if (Kind == "record") {
      std::optional<unsigned long> N =
          Fields.size() >= 2 ? parseUnsignedLong(Fields[1]) : std::nullopt;
      if (!N || Fields.size() != 2 + 2 * *N)
        return Error(LineNo, "malformed 'record' line");
      UndoRecord Record;
      for (size_t I = 0; I < *N; ++I) {
        std::optional<unsigned long> Obj =
            parseUnsignedLong(Fields[2 + 2 * I]);
        const std::string &Prior = Fields[3 + 2 * I];
        if (!Obj || *Obj >= NewLabels.size())
          return Error(LineNo, "bad object index in 'record' line");
        if (Prior == "-")
          Record.emplace_back(*Obj, std::nullopt);
        else if (Prior.size() > 1 && Prior[0] == '=')
          Record.emplace_back(*Obj,
                              InternInto(std::string_view(Prior).substr(1)));
        else
          return Error(LineNo, "bad prior label '" + Prior +
                                   "' in 'record' line (expected =<name> "
                                   "or -)");
      }
      NewUndo.push_back(std::move(Record));
    } else {
      return Error(LineNo, "unknown snapshot line kind '" + Kind + "'");
    }
  }
  if (!SawObjects)
    return Error(LineNo, "snapshot has no 'objects' line");
  if (SawUndo && NewUndo.size() != ExpectedUndo)
    return Error(LineNo, "snapshot promises " + std::to_string(ExpectedUndo) +
                             " undo record(s) but carries " +
                             std::to_string(NewUndo.size()) +
                             " — truncated snapshot");

  LabelNames = std::move(NewNames);
  resetLabelState();
  for (size_t Obj = 0; Obj < NewLabels.size(); ++Obj)
    assign(Obj, NewLabels[Obj]);
  UndoStack = std::move(NewUndo);
  return Status::ok();
}

std::string Session::describeConcept(NodeId Id) const {
  const Concept &C = Lattice.node(Id);
  std::string State;
  switch (stateOf(Id)) {
  case ConceptState::Unlabeled:
    State = "unlabeled";
    break;
  case ConceptState::PartlyLabeled:
    State = "partly-labeled";
    break;
  case ConceptState::FullyLabeled:
    State = "fully-labeled";
    break;
  }
  return "concept " + std::to_string(Id) + ": " +
         std::to_string(C.Extent.count()) + " trace(s), sim=" +
         std::to_string(C.Intent.count()) + ", " + State;
}

std::string Session::renderDot(std::string_view Name) const {
  DotWriter W{std::string(Name)};
  W.addRaw("rankdir=TB;");
  for (NodeId Id = 0; Id < Lattice.size(); ++Id) {
    const Concept &C = Lattice.node(Id);
    std::string Label = "c" + std::to_string(Id) + "\n|traces|=" +
                        std::to_string(C.Extent.count()) +
                        " sim=" + std::to_string(C.Intent.count());
    const char *Color = nullptr;
    switch (stateOf(Id)) {
    case ConceptState::Unlabeled:
      Color = "palegreen";
      break;
    case ConceptState::PartlyLabeled:
      Color = "khaki";
      break;
    case ConceptState::FullyLabeled:
      Color = "lightcoral";
      break;
    }
    W.addNode("c" + std::to_string(Id), Label,
              std::string("shape=box, style=filled, fillcolor=") + Color);
  }
  for (NodeId Id = 0; Id < Lattice.size(); ++Id)
    for (NodeId C : Lattice.children(Id))
      W.addEdge("c" + std::to_string(Id), "c" + std::to_string(C));
  return W.str();
}
