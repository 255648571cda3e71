//===- concepts/ParallelBuilder.cpp - Parallel batch construction ----------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Why the partition is sound. Order attributes 0 < 1 < ... < M-1 and use
// Ganter's lectic order (the set owning the smallest differing attribute
// is the greater one). Then:
//
//  1. closure(∅) is a subset of every closed intent, hence lectically
//     least; every other closed intent B has a well-defined minimum
//     attribute min(B).
//  2. For closed B, C with min(B) < min(C), the smallest differing
//     attribute is min(B), so B > C: intents grouped by minimum attribute
//     occupy contiguous lectic ranges ("blocks"), blocks with larger
//     minima coming first.
//  3. Within block p, the standard NextClosure successor of A is found at
//     some position i > p (a success at i < p would yield closure({i}),
//     which contains i < p and so left the block), and the acceptance
//     test "agrees with A below i" forces the candidate to keep p and
//     exclude everything below p. Restricting the successor scan to
//     positions strictly above p therefore enumerates exactly the rest of
//     the block and stops at its end.
//
// Concatenating closure(∅) and the blocks for p = M-1 down to 0 yields
// the full enumeration in exact lectic order, independent of how blocks
// were scheduled — the canonical order node ids are assigned in.
//
//===----------------------------------------------------------------------===//

#include "concepts/ParallelBuilder.h"

#include "concepts/NextClosureBuilder.h"
#include "support/Failpoint.h"
#include "support/Metrics.h"
#include "support/TraceEvent.h"

#include <cassert>
#include <new>
#include <utility>

using namespace cable;

namespace {

// Same registry entries NextClosureBuilder flushes into; per-block loops
// accumulate locally and flush once per block.
Metrics::Counter &NumClosures = Metrics::counter("lattice.closures");
Metrics::Counter &NumConcepts = Metrics::counter("lattice.concepts");
Metrics::Histogram &PartitionSize =
    Metrics::histogram("lattice.partition-size");
Metrics::Counter &OomContained = Metrics::counter("lattice.oom-contained");

} // namespace

std::vector<BitVector> ParallelBuilder::blockIntents(const Context &Ctx,
                                                     size_t P,
                                                     const BitVector &TopIntent) {
  // args.n is the partition's minimum attribute — the block id.
  TraceSpan Span("lattice-block", static_cast<int64_t>(P));
  size_t M = Ctx.numAttributes();
  uint64_t LocalClosures = 0;
  std::vector<BitVector> Out;

  // Per-block scratch set, reused across every candidate in the block so
  // only accepted concepts allocate (one copy into Out).
  BitVector A(M), B(M), Closed(M), ObjScratch(Ctx.numObjects());
  if (TopIntent.test(P)) {
    // p ∈ closure(∅) forces closure({p}) == closure(∅) (monotonicity both
    // ways), so the probe is free — and must not be counted: the serial
    // enumerator reaches this block by successor steps from closure(∅)
    // without ever computing closure({p}), and lattice.closures is kept
    // schedule-invariant (serial == parallel).
    A = TopIntent;
  } else {
    B.set(P);
    Ctx.closeIntentInto(B, ObjScratch, A);
    ++LocalClosures;
  }
  // closure({p}) is contained in every closed set whose minimum is p, so
  // it is the block's lectic least — unless it pulls in an attribute
  // below p, in which case no closed set has minimum p at all.
  if (A.findFirst() != P) {
    NumClosures.add(LocalClosures);
    PartitionSize.record(0);
    return Out;
  }
  // closure(∅) can coincide with closure({p}); the caller emits it.
  if (!(A == TopIntent))
    Out.push_back(A);

  for (;;) {
    bool Advanced = false;
    // Lectic successor, restricted to candidate positions above P (the
    // prefix-restriction trick; see the file comment).
    for (size_t IPlus1 = M; IPlus1 > P + 1; --IPlus1) {
      size_t I = IPlus1 - 1;
      if (A.test(I))
        continue;
      B.resetAll();
      for (size_t J : A) {
        if (J >= I)
          break;
        B.set(J);
      }
      B.set(I);
      Ctx.closeIntentInto(B, ObjScratch, Closed);
      ++LocalClosures;
      bool Agrees = true;
      for (size_t J : Closed) {
        if (J >= I)
          break;
        if (!A.test(J)) {
          Agrees = false;
          break;
        }
      }
      if (Agrees) {
        Out.push_back(Closed);
        std::swap(A, Closed);
        Advanced = true;
        break;
      }
    }
    if (!Advanced)
      break;
  }
  NumClosures.add(LocalClosures);
  PartitionSize.record(Out.size());
  return Out;
}

std::vector<BitVector> ParallelBuilder::allClosedIntents(const Context &Ctx,
                                                         ThreadPool &Pool) {
  TraceSpan Span("lattice-enumerate");
  size_t M = Ctx.numAttributes();
  BitVector TopIntent = Ctx.closeIntent(BitVector(M));

  // Every closed intent contains closure(∅), so no closed set has a
  // minimum attribute above min(TopIntent): blocks past it are provably
  // empty and are not probed — exactly the positions the serial
  // enumerator never tries, which keeps closure counts schedule-invariant.
  size_t MinTop = TopIntent.findFirst();
  size_t NumBlocks = MinTop == BitVector::npos ? M : MinTop + 1;

  // Each block is an independent task; results are merged by attribute
  // index, so the output does not depend on scheduling.
  std::vector<std::vector<BitVector>> Blocks(NumBlocks);
  Pool.parallelFor(NumBlocks, [&](size_t Begin, size_t End) {
    for (size_t P = Begin; P < End; ++P)
      Blocks[P] = blockIntents(Ctx, P, TopIntent);
  });

  std::vector<BitVector> Out;
  size_t Total = 1;
  for (const std::vector<BitVector> &B : Blocks)
    Total += B.size();
  Out.reserve(Total);
  Out.push_back(std::move(TopIntent));
  for (size_t P = NumBlocks; P > 0; --P)
    for (BitVector &Intent : Blocks[P - 1])
      Out.push_back(std::move(Intent));
  NumClosures.add(1); // TopIntent's closure.
  NumConcepts.add(Out.size());
  return Out;
}

namespace {

/// Shared tail of every complete-construction path: computes extents and
/// the cover relation for \p Intents (which must be a complete lectic
/// enumeration of \p Ctx's closed intents), both split per concept
/// across \p Pool.
ConceptLattice assembleLattice(const Context &Ctx, ThreadPool &Pool,
                               std::vector<BitVector> Intents) {
  // Extents split trivially: every concept is written by exactly one
  // worker, at an index fixed by the canonical enumeration order.
  size_t N = Intents.size();
  std::vector<Concept> Concepts(N);
  Pool.parallelFor(N, [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      Concepts[I].Extent = Ctx.tau(Intents[I]);
      Concepts[I].Intent = std::move(Intents[I]);
    }
  });
  // Covers are counted per concept across the same workers; the lists
  // come out in canonical scan order whatever the thread count.
  return ConceptLattice::fromConcepts(Ctx, std::move(Concepts), &Pool);
}

} // namespace

ConceptLattice ParallelBuilder::buildLattice(const Context &Ctx,
                                             ThreadPool &Pool) {
  return assembleLattice(Ctx, Pool, allClosedIntents(Ctx, Pool));
}

ConceptLattice ParallelBuilder::buildLattice(const Context &Ctx,
                                             unsigned NumThreads) {
  unsigned Resolved = ThreadPool::resolveThreadCount(NumThreads);
  if (Resolved == 1)
    return NextClosureBuilder::buildLattice(Ctx); // Exact serial fallback.
  ThreadPool Pool(Resolved);
  return buildLattice(Ctx, Pool);
}

namespace {

/// Budgeted blockIntents: checks \p Meter before every candidate closure
/// and stops after Budget::MaxConcepts intents *within this block*. The
/// result is always a lectic prefix of the block.
std::vector<BitVector> blockIntentsBudgeted(const Context &Ctx, size_t P,
                                            const BitVector &TopIntent,
                                            const BudgetMeter &Meter,
                                            BuildStop &Stop) {
  TraceSpan Span("lattice-block", static_cast<int64_t>(P));
  size_t M = Ctx.numAttributes();
  size_t Max = Meter.budget().MaxConcepts.value_or(SIZE_MAX);
  uint64_t LocalClosures = 0;
  std::vector<BitVector> Out;
  Stop = BuildStop::Complete;

  BitVector A(M), B(M), Closed(M), ObjScratch(Ctx.numObjects());
  if (TopIntent.test(P)) {
    // See blockIntents: closure({p}) == closure(∅) here, and counting a
    // closure for it would break serial/parallel counter conservation.
    A = TopIntent;
  } else {
    B.set(P);
    Ctx.closeIntentInto(B, ObjScratch, A);
    ++LocalClosures;
  }
  if (A.findFirst() != P) {
    NumClosures.add(LocalClosures);
    PartitionSize.record(0);
    return Out;
  }
  if (!(A == TopIntent))
    Out.push_back(A);

  try {
  for (;;) {
    bool Advanced = false;
    for (size_t IPlus1 = M; IPlus1 > P + 1; --IPlus1) {
      size_t I = IPlus1 - 1;
      if (A.test(I))
        continue;
      // This is the cancellation checkpoint the pool workers run on.
      if (Meter.expired()) {
        Stop = BuildStop::Time;
        NumClosures.add(LocalClosures);
        PartitionSize.record(Out.size());
        return Out;
      }
      if (!Failpoint::hit("lattice-oom").isOk())
        throw std::bad_alloc();
      B.resetAll();
      for (size_t J : A) {
        if (J >= I)
          break;
        B.set(J);
      }
      B.set(I);
      Ctx.closeIntentInto(B, ObjScratch, Closed);
      ++LocalClosures;
      bool Agrees = true;
      for (size_t J : Closed) {
        if (J >= I)
          break;
        if (!A.test(J)) {
          Agrees = false;
          break;
        }
      }
      if (Agrees) {
        if (Out.size() >= Max) {
          // Same exact successor-exists test as the serial enumerator, so
          // the merge below can reconstruct precisely where the serial
          // run would have stopped.
          Stop = BuildStop::ConceptCap;
          NumClosures.add(LocalClosures);
          PartitionSize.record(Out.size());
          return Out;
        }
        Out.push_back(Closed);
        std::swap(A, Closed);
        Advanced = true;
        break;
      }
    }
    if (!Advanced)
      break;
  }
  } catch (const std::bad_alloc &) {
    // Containment as in the serial enumerator: the block keeps its lectic
    // prefix and reports a Memory stop; the canonical merge cuts at this
    // block like any other interrupted one.
    Stop = BuildStop::Memory;
    OomContained.add();
  }
  NumClosures.add(LocalClosures);
  PartitionSize.record(Out.size());
  return Out;
}

/// Budgeted allClosedIntents: always returns a (possibly complete) prefix
/// of the full lectic enumeration; \p Stop reports whether and why it is
/// proper.
std::vector<BitVector> allClosedIntentsBudgeted(const Context &Ctx,
                                                ThreadPool &Pool,
                                                const BudgetMeter &Meter,
                                                BuildStop &Stop) {
  TraceSpan Span("lattice-enumerate");
  size_t M = Ctx.numAttributes();
  size_t Max = Meter.budget().MaxConcepts.value_or(SIZE_MAX);
  BitVector TopIntent = Ctx.closeIntent(BitVector(M));

  // As in allClosedIntents: blocks above min(TopIntent) are empty and
  // skipping them preserves serial/parallel closure-count conservation.
  size_t MinTop = TopIntent.findFirst();
  size_t NumBlocks = MinTop == BitVector::npos ? M : MinTop + 1;

  std::vector<std::vector<BitVector>> Blocks(NumBlocks);
  std::vector<BuildStop> Stops(NumBlocks, BuildStop::Complete);
  Pool.parallelFor(NumBlocks, [&](size_t Begin, size_t End) {
    for (size_t P = Begin; P < End; ++P)
      Blocks[P] = blockIntentsBudgeted(Ctx, P, TopIntent, Meter, Stops[P]);
  });

  // Canonical merge, descending minimum attribute. The concatenation is
  // cut at the first gap: either the global cap (with intents left over —
  // the serial enumerator's exact stopping point) or the first block that
  // was interrupted mid-enumeration. Everything kept is a lectic prefix.
  std::vector<BitVector> Out;
  Stop = BuildStop::Complete;
  Out.push_back(std::move(TopIntent));
  NumClosures.add(1); // TopIntent's closure.
  for (size_t P = NumBlocks; P > 0; --P) {
    for (BitVector &Intent : Blocks[P - 1]) {
      if (Out.size() >= Max) {
        Stop = BuildStop::ConceptCap;
        NumConcepts.add(Out.size());
        return Out;
      }
      Out.push_back(std::move(Intent));
    }
    if (Stops[P - 1] != BuildStop::Complete) {
      Stop = Stops[P - 1];
      NumConcepts.add(Out.size());
      return Out;
    }
  }
  NumConcepts.add(Out.size());
  return Out;
}

} // namespace

LatticeBuildResult
ParallelBuilder::buildLatticeBudgeted(const Context &Ctx,
                                      const BudgetMeter &Meter,
                                      ThreadPool &Pool) {
  Status Cells = checkContextCells(Ctx, Meter.budget());
  if (!Cells.isOk()) {
    LatticeBuildResult R;
    R.Lattice = finalizeTruncatedConcepts(Ctx, {}, DeadlineKeepCap);
    R.BuildStatus = std::move(Cells);
    R.Truncated = true;
    return R;
  }

  try {
    BuildStop Stop;
    std::vector<BitVector> Intents =
        allClosedIntentsBudgeted(Ctx, Pool, Meter, Stop);
    if (Stop == BuildStop::Complete && Meter.expired())
      Stop = BuildStop::Time;
    if (Stop != BuildStop::Complete) {
      // The truncated epilogue is intentionally the serial one, shared
      // with NextClosureBuilder, so truncated lattices agree bit-for-bit
      // across thread counts.
      size_t NumEnumerated = Intents.size();
      return makeTruncatedFromIntents(Ctx, std::move(Intents), Stop, Meter,
                                      NumEnumerated);
    }

    LatticeBuildResult R;
    R.NumEnumerated = Intents.size();
    R.Lattice = assembleLattice(Ctx, Pool, std::move(Intents));
    return R;
  } catch (const std::bad_alloc &) {
    // Boundary containment, as in NextClosureBuilder::buildLatticeBudgeted.
    OomContained.add();
    LatticeBuildResult R;
    R.Truncated = true;
    R.BuildStatus =
        truncationStatus(BuildStop::Memory, Meter, "lattice construction");
    R.Lattice = finalizeTruncatedConcepts(Ctx, {}, DeadlineKeepCap);
    return R;
  }
}

LatticeBuildResult
ParallelBuilder::buildLatticeBudgeted(const Context &Ctx,
                                      const BudgetMeter &Meter,
                                      unsigned NumThreads) {
  unsigned Resolved = ThreadPool::resolveThreadCount(NumThreads);
  if (Resolved == 1)
    return NextClosureBuilder::buildLatticeBudgeted(Ctx, Meter);
  ThreadPool Pool(Resolved);
  return buildLatticeBudgeted(Ctx, Meter, Pool);
}
