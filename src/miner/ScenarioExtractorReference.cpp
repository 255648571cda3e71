//===- miner/ScenarioExtractorReference.cpp - The extractor oracle --------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "miner/ScenarioExtractorReference.h"

#include <unordered_set>

using namespace cable;

namespace {

/// True if \p E mentions any value in \p Values.
bool mentionsAny(const Event &E, const std::unordered_set<ValueId> &Values) {
  for (ValueId V : E.Args)
    if (Values.count(V))
      return true;
  return false;
}

} // namespace

TraceSet cable::extractScenariosReference(const TraceSet &Runs,
                                          const ExtractorOptions &Options) {
  std::vector<Trace> Raw;
  // Work over a private copy of the run table so scenario canonicalization
  // can intern rewritten events; the copy seeds the output table.
  EventTable Table = Runs.table();

  std::unordered_set<NameId> SeedIds;
  for (const std::string &Name : Options.SeedNames)
    if (std::optional<NameId> Id = Table.lookupName(Name))
      SeedIds.insert(*Id);

  for (const Trace &Run : Runs.traces()) {
    for (size_t SeedPos = 0; SeedPos < Run.size(); ++SeedPos) {
      const Event &Seed = Table.event(Run[SeedPos]);
      if (!SeedIds.count(Seed.Name) || Seed.Args.empty())
        continue;

      // The scenario's value set starts with the seed's values.
      std::unordered_set<ValueId> Values(Seed.Args.begin(), Seed.Args.end());
      if (Options.TransitiveValues) {
        // Fixpoint: any event sharing a value contributes its values.
        bool Changed = true;
        while (Changed) {
          Changed = false;
          for (EventId EI : Run.events()) {
            const Event &E = Table.event(EI);
            if (!mentionsAny(E, Values))
              continue;
            for (ValueId V : E.Args)
              if (Values.insert(V).second)
                Changed = true;
          }
        }
      }

      // The scenario is the subsequence of events touching the value set.
      Trace Scenario;
      for (EventId EI : Run.events()) {
        if (Scenario.size() >= Options.MaxScenarioLength)
          break;
        if (mentionsAny(Table.event(EI), Values))
          Scenario.append(EI);
      }

      // One scenario per *first* seed occurrence of an object: if an
      // earlier position already opened this scenario (same value set
      // origin), skip duplicates caused by later seed events on the same
      // object.
      bool DuplicateOfEarlier = false;
      for (size_t P = 0; P < SeedPos; ++P) {
        const Event &Prev = Table.event(Run[P]);
        if (SeedIds.count(Prev.Name) && mentionsAny(Prev, Values)) {
          DuplicateOfEarlier = true;
          break;
        }
      }
      if (DuplicateOfEarlier)
        continue;

      Raw.push_back(std::move(Scenario));
    }
  }

  // Canonicalize into the output's own table.
  TraceSet Canon;
  Canon.table() = Table;
  for (const Trace &T : Raw)
    Canon.add(T.canonicalized(Canon.table()));
  return Canon;
}
