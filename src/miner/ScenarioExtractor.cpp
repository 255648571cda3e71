//===- miner/ScenarioExtractor.cpp - Strauss front end ---------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "miner/ScenarioExtractor.h"

#include <algorithm>
#include <limits>
#include <span>
#include <unordered_map>

using namespace cable;

namespace {

constexpr uint32_t Never = std::numeric_limits<uint32_t>::max();

/// One run indexed by value. Each value the run mentions gets a dense id, a
/// posting list of the ascending positions whose event mentions it (each
/// position once, even when the event repeats the value), and the first
/// position of a seed-named event that mentions it (Never if none does).
/// The buffers are reused from run to run.
class RunIndex {
public:
  void build(const Trace &Run, const EventTable &Table,
             const std::vector<bool> &IsSeed) {
    Dense.clear();
    ArgIds.clear();
    ArgBegin.assign(1, 0);
    FirstSeed.clear();
    for (uint32_t P = 0; P < Run.size(); ++P) {
      const Event &E = Table.event(Run[P]);
      for (ValueId V : E.Args) {
        auto [It, New] =
            Dense.try_emplace(V, static_cast<uint32_t>(FirstSeed.size()));
        uint32_t D = It->second;
        if (New) {
          if (D == Post.size())
            Post.emplace_back();
          Post[D].clear();
          FirstSeed.push_back(Never);
        }
        if (!Post[D].empty() && Post[D].back() == P)
          continue;
        Post[D].push_back(P);
        ArgIds.push_back(D);
        if (IsSeed[E.Name] && FirstSeed[D] == Never)
          FirstSeed[D] = P;
      }
      ArgBegin.push_back(static_cast<uint32_t>(ArgIds.size()));
    }
  }

  size_t numValues() const { return FirstSeed.size(); }

  /// The distinct dense values position \p P mentions.
  std::span<const uint32_t> args(uint32_t P) const {
    return {ArgIds.data() + ArgBegin[P], ArgIds.data() + ArgBegin[P + 1]};
  }

  /// The ascending positions that mention dense value \p D.
  const std::vector<uint32_t> &postings(uint32_t D) const { return Post[D]; }

  /// The first position of a seed-named event mentioning \p D, or Never.
  uint32_t firstSeed(uint32_t D) const { return FirstSeed[D]; }

private:
  std::unordered_map<ValueId, uint32_t> Dense;
  std::vector<uint32_t> ArgBegin, ArgIds;
  /// Per dense value, its posting list; lists past numValues() are spare.
  std::vector<std::vector<uint32_t>> Post;
  std::vector<uint32_t> FirstSeed;
};

} // namespace

TraceSet cable::extractScenarios(const TraceSet &Runs,
                                 const ExtractorOptions &Options) {
  const EventTable &RunTable = Runs.table();
  std::vector<bool> IsSeed(RunTable.numNames(), false);
  for (const std::string &Name : Options.SeedNames)
    if (std::optional<NameId> Id = RunTable.lookupName(Name))
      IsSeed[*Id] = true;

  // Scenarios are canonicalized as they are cut, into a copy of the run
  // table that becomes the output's table; run events keep their ids.
  EventTable Table = RunTable;
  std::vector<Trace> Scenarios;

  RunIndex Index;
  // Per-scenario marks are stamps, so a new scenario clears nothing.
  std::vector<uint32_t> ValueMark, PosMark;
  uint32_t Stamp = 0;
  std::vector<uint32_t> Values, Slice;
  for (const Trace &Run : Runs.traces()) {
    Index.build(Run, RunTable, IsSeed);
    ValueMark.assign(Index.numValues(), 0);
    PosMark.assign(Run.size(), 0);
    Stamp = 0;
    for (uint32_t SeedPos = 0; SeedPos < Run.size(); ++SeedPos) {
      std::span<const uint32_t> SeedArgs = Index.args(SeedPos);
      if (!IsSeed[RunTable.event(Run[SeedPos]).Name] || SeedArgs.empty())
        continue;
      ++Stamp;

      // The scenario's value set starts with the seed's values. Growing it
      // transitively is a breadth-first search over the posting lists: a
      // position that mentions a value of the set adds all of its values.
      // The positions it visits are then exactly the scenario's.
      Values.assign(SeedArgs.begin(), SeedArgs.end());
      Slice.clear();
      for (uint32_t D : Values)
        ValueMark[D] = Stamp;
      if (Options.TransitiveValues)
        for (size_t Head = 0; Head < Values.size(); ++Head)
          for (uint32_t P : Index.postings(Values[Head])) {
            if (PosMark[P] == Stamp)
              continue;
            PosMark[P] = Stamp;
            Slice.push_back(P);
            for (uint32_t D : Index.args(P))
              if (ValueMark[D] != Stamp) {
                ValueMark[D] = Stamp;
                Values.push_back(D);
              }
          }

      // One scenario per *first* seed occurrence of an object: a seed-named
      // event before this one that mentions a value of the set opened it
      // already.
      if (std::any_of(Values.begin(), Values.end(), [&](uint32_t D) {
            return Index.firstSeed(D) < SeedPos;
          }))
        continue;

      // The scenario is the ascending union of its values' postings, cut
      // at MaxScenarioLength; each list contributes at most that many.
      if (!Options.TransitiveValues)
        for (uint32_t D : Values) {
          const std::vector<uint32_t> &Postings = Index.postings(D);
          for (size_t K = 0;
               K < Postings.size() && K < Options.MaxScenarioLength; ++K)
            if (PosMark[Postings[K]] != Stamp) {
              PosMark[Postings[K]] = Stamp;
              Slice.push_back(Postings[K]);
            }
        }
      size_t Length = std::min(Slice.size(), Options.MaxScenarioLength);
      std::partial_sort(Slice.begin(), Slice.begin() + Length, Slice.end());
      Trace Scenario;
      for (size_t K = 0; K < Length; ++K)
        Scenario.append(Run[Slice[K]]);
      Scenarios.push_back(Scenario.canonicalized(Table));
    }
  }

  TraceSet Canon;
  Canon.table() = std::move(Table);
  for (Trace &T : Scenarios)
    Canon.add(std::move(T));
  return Canon;
}
