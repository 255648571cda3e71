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

#include <algorithm>
#include <bit>
#include <new>
#include <utility>

using namespace cable;

namespace {

// Candidates tried (plus the top concept's closure) and concepts emitted
// in the process. The search accumulates locally and flushes once per
// call, so the hot loop never touches an atomic.
Metrics::Counter &NumClosures = Metrics::counter("lattice.closures");
Metrics::Counter &NumConcepts = Metrics::counter("lattice.concepts");
Metrics::Counter &OomContained = Metrics::counter("lattice.oom-contained");

// Deterministic OOM for the containment tests: an `error` here is
// translated into a real std::bad_alloc at the enumeration checkpoint.
Failpoint::Registrar RegLatticeOom("lattice-oom");

/// True iff the \p Words-word object set \p Col contains \p Extent.
bool columnContains(const uint64_t *Col, const uint64_t *Extent,
                    size_t Words) {
  for (size_t W = 0; W < Words; ++W)
    if ((Extent[W] & ~Col[W]) != 0)
      return false;
  return true;
}

/// One level of the search: the concept whose extent and intent sit at
/// this depth of the buffers, and the generators left to try on it,
/// Next - 1 down to Lo.
struct Frame {
  size_t Next;
  size_t Lo;
};

/// Close-by-One (Kuznetsov 1993) with In-Close's canonicity test (Andrews
/// 2009), checking \p Meter before every candidate and stopping at
/// Budget::MaxConcepts. The returned concepts are always a (possibly
/// complete) prefix of the lectic order of intents; \p Stop reports
/// whether and why it is proper.
///
/// The search is a preorder walk from the top concept. A concept (A, B)
/// made by generator y tries each j from M-1 down to y+1 outside B: the
/// candidate extent is C = A ∩ col(j), canonical iff no k < j outside B
/// has col(k) ⊇ C, with intent B ∪ {j} ∪ {k > j outside B : col(k) ⊇ C}.
/// Descending generators make the preorder Ganter's lectic order: every
/// intent below generator j2 agrees with B below j2, so it lacks each
/// j1 < j2 outside B, and the whole j2 subtree precedes the j1 subtree.
std::vector<Concept> enumerateConcepts(const Context &Ctx,
                                       const BudgetMeter &Meter,
                                       BuildStop &Stop) {
  TraceSpan Span("next-closure-enumerate");
  const size_t N = Ctx.numObjects(), M = Ctx.numAttributes();
  const size_t Max = Meter.budget().MaxConcepts.value_or(SIZE_MAX);
  const uint64_t *Cols = Ctx.attributeColWords(0);
  uint64_t LocalClosures = 1;
  std::vector<Concept> Out;
  Stop = BuildStop::Complete;

  // The top concept (every object, the attributes they share) is emitted
  // unconditionally, so even an already-expired meter yields a nonempty
  // prefix.
  Concept Top{BitVector(N), BitVector(M)};
  Ctx.tauInto(BitVector(M), Top.Extent);
  Ctx.sigmaInto(Top.Extent, Top.Intent);
  const size_t EW = Top.Extent.numWords(), IW = Top.Intent.numWords();
  const uint64_t AttrTail = Top.Intent.tailMask();

  // Depth D's extent and intent sit at D * EW and D * IW; depth D + 1's
  // slot is the candidate's scratch, so a rejected candidate (the common
  // case) allocates nothing, and an accepted one pays its two copies into
  // Out. Depth is bounded by M + 1, and the frames live on the heap.
  std::vector<uint64_t> Extents(2 * EW), Intents(2 * IW);
  std::copy_n(Top.Extent.words(), EW, Extents.data());
  std::copy_n(Top.Intent.words(), IW, Intents.data());
  std::vector<Frame> Frames;
  Frames.reserve(M + 1);
  Frames.push_back({M, 0});
  Out.push_back(std::move(Top));

  try {
    while (!Frames.empty()) {
      const size_t D = Frames.size() - 1;
      Frame &F = Frames.back();
      if (F.Next == F.Lo) {
        Frames.pop_back();
        continue;
      }
      const size_t J = --F.Next;
      const uint64_t *B = Intents.data() + D * IW;
      if ((B[J / 64] >> (J % 64)) & 1)
        continue;
      // One checkpoint per candidate; the disarmed failpoint is a relaxed
      // load and an unlimited meter a flag test.
      if (Meter.expired()) {
        Stop = BuildStop::Time;
        break;
      }
      if (!Failpoint::hit("lattice-oom").isOk())
        throw std::bad_alloc();
      ++LocalClosures;

      // Candidate extent: one AND over the column arena.
      const uint64_t *A = Extents.data() + D * EW;
      uint64_t *C = Extents.data() + (D + 1) * EW;
      const uint64_t *ColJ = Cols + J * EW;
      for (size_t W = 0; W < EW; ++W)
        C[W] = A[W] & ColJ[W];

      // Canonicity: no attribute below J outside B may hold all of C.
      bool Canonical = true;
      for (size_t W = 0; W <= J / 64 && Canonical; ++W) {
        uint64_t Outside = ~B[W];
        if (W == J / 64)
          Outside &= (uint64_t(1) << (J % 64)) - 1;
        for (; Outside != 0; Outside &= Outside - 1) {
          size_t K = W * 64 + static_cast<size_t>(std::countr_zero(Outside));
          if (columnContains(Cols + K * EW, C, EW)) {
            Canonical = false;
            break;
          }
        }
      }
      if (!Canonical)
        continue;
      if (Out.size() >= Max) {
        // A concept exists beyond the cap, so the prefix is proper.
        // Deciding this only *after* finding it makes the Truncated flag
        // exact: a context with exactly Max concepts builds complete.
        Stop = BuildStop::ConceptCap;
        break;
      }

      // Intent: B, J, and every attribute above J outside B holding C.
      uint64_t *Intent = Intents.data() + (D + 1) * IW;
      std::copy_n(B, IW, Intent);
      Intent[J / 64] |= uint64_t(1) << (J % 64);
      for (size_t W = J / 64; W < IW; ++W) {
        uint64_t Outside = ~B[W];
        if (W == J / 64)
          Outside &= ~((uint64_t(2) << (J % 64)) - 1);
        if (W + 1 == IW)
          Outside &= AttrTail;
        for (; Outside != 0; Outside &= Outside - 1) {
          size_t K = W * 64 + static_cast<size_t>(std::countr_zero(Outside));
          if (columnContains(Cols + K * EW, C, EW))
            Intent[W] |= uint64_t(1) << (K % 64);
        }
      }

      Concept Next{BitVector(N), BitVector(M)};
      std::copy_n(C, EW, Next.Extent.words());
      std::copy_n(Intent, IW, Next.Intent.words());
      Out.push_back(std::move(Next));

      // Recurse: the child tries generators M-1 down to J+1, and its own
      // candidates need the slot below it.
      Frames.push_back({M, J + 1});
      if (Extents.size() < (D + 3) * EW)
        Extents.resize((D + 3) * EW);
      if (Intents.size() < (D + 3) * IW)
        Intents.resize((D + 3) * IW);
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

/// Every concept of \p Ctx in lectic order. Never truncates: a contained
/// allocation failure is rethrown as std::bad_alloc.
std::vector<Concept> allConcepts(const Context &Ctx) {
  BudgetMeter Unlimited{Budget{}};
  BuildStop Stop;
  std::vector<Concept> Out = enumerateConcepts(Ctx, Unlimited, Stop);
  // Only memory can stop an unlimited meter.
  if (Stop == BuildStop::Memory)
    throw std::bad_alloc();
  return Out;
}

/// Turns the lectic prefix \p Concepts of a stopped enumeration into a
/// truncated result.
LatticeBuildResult truncatedResult(const Context &Ctx,
                                   std::vector<Concept> Concepts,
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
  // The lectic prefix starts at the top concept, so its front is already
  // the most general slice.
  if (Concepts.size() > Cap)
    Concepts.resize(Cap);
  R.Lattice = finalizeTruncatedConcepts(Ctx, std::move(Concepts), Cap);
  return R;
}

} // namespace

std::vector<BitVector>
NextClosureBuilder::allClosedIntents(const Context &Ctx) {
  std::vector<Concept> Concepts = allConcepts(Ctx);
  std::vector<BitVector> Intents;
  Intents.reserve(Concepts.size());
  for (Concept &C : Concepts)
    Intents.push_back(std::move(C.Intent));
  return Intents;
}

ConceptLattice NextClosureBuilder::buildLattice(const Context &Ctx) {
  return ConceptLattice::fromConcepts(Ctx, allConcepts(Ctx));
}

LatticeBuildResult
NextClosureBuilder::buildLatticeBudgeted(const Context &Ctx,
                                         const BudgetMeter &Meter) {
  try {
    BuildStop Stop;
    std::vector<Concept> Concepts = enumerateConcepts(Ctx, Meter, Stop);
    // If the deadline hit right as enumeration finished, do not start
    // covers over a possibly huge complete set.
    if (Stop == BuildStop::Complete && Meter.expired())
      Stop = BuildStop::Time;
    if (Stop != BuildStop::Complete)
      return truncatedResult(Ctx, std::move(Concepts), Stop, Meter);

    LatticeBuildResult R;
    R.Lattice = ConceptLattice::fromConcepts(Ctx, std::move(Concepts));
    return R;
  } catch (const std::bad_alloc &) {
    // Last-resort boundary: cover computation ran out of memory after a
    // (possibly complete) enumeration. The concepts are gone, but the
    // process survives.
    OomContained.add();
    LatticeBuildResult R;
    R.Truncated = true;
    R.BuildStatus =
        truncationStatus(BuildStop::Memory, Meter, "lattice construction");
    R.Lattice = finalizeTruncatedConcepts(Ctx, {}, DeadlineKeepCap);
    return R;
  }
}
