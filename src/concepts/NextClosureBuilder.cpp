//===- concepts/NextClosureBuilder.cpp - Batch lattice construction -------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "concepts/NextClosureBuilder.h"

#include "support/Failpoint.h"
#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <new>
#include <utility>

using namespace cable;

namespace {

// Total closure computations and concepts emitted in the process.
// The enumeration loop accumulates locally and flushes once per call, so
// the hot loop never touches an atomic.
Metrics::Counter &NumClosures = Metrics::counter("lattice.closures");
Metrics::Counter &NumConcepts = Metrics::counter("lattice.concepts");
Metrics::Counter &OomContained = Metrics::counter("lattice.oom-contained");

// Deterministic OOM for the containment tests: an `error` here is
// translated into a real std::bad_alloc at the enumeration checkpoint.
Failpoint::Registrar RegLatticeOom("lattice-oom");

/// The concepts whose intents are \p Intents, in the same order.
std::vector<Concept> conceptsOf(const Context &Ctx,
                                std::vector<BitVector> Intents) {
  std::vector<Concept> Concepts;
  Concepts.reserve(Intents.size());
  for (BitVector &Intent : Intents) {
    Concept C;
    C.Extent = Ctx.tau(Intent);
    C.Intent = std::move(Intent);
    Concepts.push_back(std::move(C));
  }
  return Concepts;
}

/// NextClosure's lectic enumeration, checking \p Meter before every
/// candidate closure and stopping at Budget::MaxConcepts. The returned
/// vector is always a (possibly complete) prefix of the lectic order; \p
/// Stop reports whether and why it is proper.
std::vector<BitVector> enumerateIntents(const Context &Ctx,
                                        const BudgetMeter &Meter,
                                        BuildStop &Stop) {
  TraceSpan Span("next-closure-enumerate");
  size_t M = Ctx.numAttributes();
  size_t Max = Meter.budget().MaxConcepts.value_or(SIZE_MAX);
  uint64_t LocalClosures = 1;
  std::vector<BitVector> Out;
  Stop = BuildStop::Complete;

  // All candidate/closure buffers live outside the enumeration loop: a
  // rejected candidate (the common case) costs zero allocations, only an
  // accepted concept pays one copy into Out. The lectic least closed
  // intent is emitted unconditionally so even an already-expired meter
  // yields a nonempty prefix (the top concept).
  BitVector A(M), B(M), Closed(M), ObjScratch(Ctx.numObjects());
  Ctx.closeIntentInto(BitVector(M), ObjScratch, A);
  Out.push_back(A);

  try {
    // Each pass finds the lectic successor of A; the enumeration ends when
    // there is none or the budget stops it.
    for (bool Advanced = true; Advanced && Stop == BuildStop::Complete;) {
      Advanced = false;
      for (size_t IPlus1 = M; IPlus1 > 0; --IPlus1) {
        size_t I = IPlus1 - 1;
        if (A.test(I))
          continue;
        // One checkpoint per candidate closure; the closure dominates the
        // cost of the atomic load by orders of magnitude.
        if (Meter.expired()) {
          Stop = BuildStop::Time;
          break;
        }
        if (!Failpoint::hit("lattice-oom").isOk())
          throw std::bad_alloc();
        // Candidate: closure((A ∩ {0..I-1}) ∪ {I}).
        B.resetAll();
        for (size_t J : A) {
          if (J >= I)
            break;
          B.set(J);
        }
        B.set(I);
        Ctx.closeIntentInto(B, ObjScratch, Closed);
        ++LocalClosures;
        // Accept iff the closure agrees with A below I (B +_i A in
        // Ganter's notation).
        bool Agrees = true;
        for (size_t J : Closed) {
          if (J >= I)
            break;
          if (!A.test(J)) {
            Agrees = false;
            break;
          }
        }
        if (!Agrees)
          continue;
        if (Out.size() >= Max) {
          // A successor exists beyond the cap, so the prefix is proper.
          // Deciding this only *after* finding the successor makes the
          // Truncated flag exact: a context with exactly Max concepts
          // builds complete.
          Stop = BuildStop::ConceptCap;
          break;
        }
        Out.push_back(Closed);
        std::swap(A, Closed);
        Advanced = true;
        break;
      }
    }
  } catch (const std::bad_alloc &) {
    // Containment: an allocation failure becomes a Memory stop keeping the
    // lectic prefix enumerated so far, so an OOMing build reports a
    // truncated result instead of terminating.
    Stop = BuildStop::Memory;
    OomContained.add();
  }
  NumClosures.add(LocalClosures);
  NumConcepts.add(Out.size());
  return Out;
}

/// Turns the lectic prefix \p Intents of a stopped enumeration into a
/// truncated result.
LatticeBuildResult truncatedResult(const Context &Ctx,
                                   std::vector<BitVector> Intents,
                                   BuildStop Stop, const BudgetMeter &Meter) {
  LatticeBuildResult R;
  R.Truncated = true;
  R.BuildStatus = truncationStatus(Stop, Meter, "lattice construction");
  // Memory cuts are capped like deadline cuts: the enumerated prefix can
  // be the very allocation pressure that triggered containment, and the
  // pairwise cover scan a truncated subset needs must not re-trip it.
  size_t Cap = Stop == BuildStop::Time || Stop == BuildStop::Memory
                   ? DeadlineKeepCap
                   : SIZE_MAX;
  // Drop past the cap before deriving extents: the lectic prefix starts at
  // the top concept, so the front is already the most general slice.
  if (Intents.size() > Cap)
    Intents.resize(Cap);
  R.Lattice = finalizeTruncatedConcepts(
      Ctx, conceptsOf(Ctx, std::move(Intents)), Cap);
  return R;
}

} // namespace

std::vector<BitVector>
NextClosureBuilder::allClosedIntents(const Context &Ctx) {
  BudgetMeter Unlimited{Budget{}};
  BuildStop Stop;
  std::vector<BitVector> Out = enumerateIntents(Ctx, Unlimited, Stop);
  // Only memory can stop an unlimited meter.
  if (Stop == BuildStop::Memory)
    throw std::bad_alloc();
  return Out;
}

ConceptLattice NextClosureBuilder::buildLattice(const Context &Ctx) {
  return ConceptLattice::fromConcepts(Ctx,
                                      conceptsOf(Ctx, allClosedIntents(Ctx)));
}

LatticeBuildResult
NextClosureBuilder::buildLatticeBudgeted(const Context &Ctx,
                                         const BudgetMeter &Meter) {
  try {
    BuildStop Stop;
    std::vector<BitVector> Intents = enumerateIntents(Ctx, Meter, Stop);
    // If the deadline hit right as enumeration finished, do not start
    // extents and covers over a possibly huge complete set.
    if (Stop == BuildStop::Complete && Meter.expired())
      Stop = BuildStop::Time;
    if (Stop != BuildStop::Complete)
      return truncatedResult(Ctx, std::move(Intents), Stop, Meter);

    LatticeBuildResult R;
    R.Lattice =
        ConceptLattice::fromConcepts(Ctx, conceptsOf(Ctx, std::move(Intents)));
    return R;
  } catch (const std::bad_alloc &) {
    // Last-resort boundary: extent or cover computation ran out of memory
    // after a (possibly complete) enumeration. The intents are gone, but
    // the process survives.
    OomContained.add();
    LatticeBuildResult R;
    R.Truncated = true;
    R.BuildStatus =
        truncationStatus(BuildStop::Memory, Meter, "lattice construction");
    R.Lattice = finalizeTruncatedConcepts(Ctx, {}, DeadlineKeepCap);
    return R;
  }
}
