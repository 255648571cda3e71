//===- tests/miner/ExtractorDifferentialTest.cpp ---------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// Extraction by posting lists (extractScenarios) against the rescanning
// oracle extractScenariosReference: the same traces in the same order over
// the same event table, event for event. Covered: the 17 protocols'
// generated runs with and without transitive values at MaxScenarioLength
// 1, 3 and 64, and hand-made runs for the duplicate rule's corner cases.
//
//===----------------------------------------------------------------------===//

#include "miner/ScenarioExtractorReference.h"

#include "../TestHelpers.h"
#include "support/RNG.h"
#include "workload/Generator.h"
#include "workload/Protocols.h"

#include <gtest/gtest.h>

using namespace cable;
using namespace cable::test;

namespace {

void expectSameTable(const EventTable &Got, const EventTable &Want) {
  ASSERT_EQ(Got.numNames(), Want.numNames());
  for (NameId N = 0; N < Want.numNames(); ++N)
    EXPECT_EQ(Got.nameText(N), Want.nameText(N)) << "name " << N;
  ASSERT_EQ(Got.numEvents(), Want.numEvents());
  for (EventId E = 0; E < Want.numEvents(); ++E)
    EXPECT_TRUE(Got.event(E) == Want.event(E))
        << "event " << E << ": " << Got.renderEvent(E) << " vs "
        << Want.renderEvent(E);
}

/// Both extractors on \p Runs; returns the scenarios for further checks.
TraceSet expectSameExtraction(const TraceSet &Runs,
                              const ExtractorOptions &Options) {
  TraceSet Got = extractScenarios(Runs, Options);
  TraceSet Want = extractScenariosReference(Runs, Options);
  EXPECT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Got.size() && I < Want.size(); ++I)
    EXPECT_TRUE(Got[I] == Want[I])
        << "scenario " << I << ": " << Got[I].render(Got.table()) << " vs "
        << Want[I].render(Want.table());
  expectSameTable(Got.table(), Want.table());
  return Got;
}

std::vector<std::string> rendered(const TraceSet &TS) {
  std::vector<std::string> Out;
  for (const Trace &T : TS.traces())
    Out.push_back(T.render(TS.table()));
  return Out;
}

ExtractorOptions options(std::vector<std::string> Seeds, bool Transitive,
                         size_t MaxLength = 64) {
  ExtractorOptions Options;
  Options.SeedNames = std::move(Seeds);
  Options.TransitiveValues = Transitive;
  Options.MaxScenarioLength = MaxLength;
  return Options;
}

} // namespace

TEST(ExtractorDifferentialTest, ProtocolRuns) {
  for (const ProtocolModel &Model : allProtocols()) {
    SCOPED_TRACE(Model.Name);
    uint64_t Seed = 0xcbf29ce484222325ULL;
    for (char C : Model.Name) {
      Seed ^= static_cast<unsigned char>(C);
      Seed *= 0x100000001b3ULL;
    }
    RNG Rand(Seed);
    EventTable Table;
    WorkloadGenerator Gen(Model, Table);
    TraceSet Runs = Gen.generateRuns(Rand);
    for (bool Transitive : {false, true})
      for (size_t MaxLength : {1, 3, 64}) {
        SCOPED_TRACE(std::string(Transitive ? "transitive" : "direct") +
                     ", max " + std::to_string(MaxLength));
        expectSameExtraction(Runs,
                             options(Model.Seeds, Transitive, MaxLength));
      }
  }
}

TEST(ExtractorDifferentialTest, SeedWithARepeatedArgument) {
  TraceSet Runs = parseTraces("f(v0,v0) g(v0) f(v1,v0) h(v1) g(v0,v0)\n"
                              "h(v4) f(v4,v4) f(v4,v5)\n");
  for (bool Transitive : {false, true})
    for (size_t MaxLength : {1, 2, 3, 64})
      expectSameExtraction(Runs, options({"f"}, Transitive, MaxLength));
  EXPECT_EQ(rendered(extractScenarios(Runs, options({"f"}, false))),
            (std::vector<std::string>{"f(v0,v0) g(v0) f(v1,v0) g(v0,v0)",
                                      "h(v0) f(v0,v0) f(v0,v1)"}));
}

TEST(ExtractorDifferentialTest, SeedWithNoArguments) {
  TraceSet Runs = parseTraces("fopen fopen(v1) fclose(v1) fopen\n");
  for (bool Transitive : {false, true})
    expectSameExtraction(Runs, options({"fopen"}, Transitive));
  EXPECT_EQ(rendered(extractScenarios(Runs, options({"fopen"}, false))),
            (std::vector<std::string>{"fopen(v0) fclose(v0)"}));
}

TEST(ExtractorDifferentialTest, SeedNameAbsentFromTheTable) {
  TraceSet Runs = parseTraces("fopen(v1) fclose(v1)\n");
  for (bool Transitive : {false, true}) {
    expectSameExtraction(Runs, options({"nosuch"}, Transitive));
    expectSameExtraction(Runs, options({"nosuch", "fopen"}, Transitive));
  }
  EXPECT_EQ(extractScenarios(Runs, options({"nosuch"}, false)).size(), 0u);
}

TEST(ExtractorDifferentialTest, LaterSeedSharingOneValue) {
  // The second fopen shares v2 with the first, so it opens nothing; the
  // third shares nothing with either.
  TraceSet Runs =
      parseTraces("fopen(v1,v2) fopen(v2,v3) fclose(v3) fopen(v7) "
                  "fclose(v7)\n");
  for (bool Transitive : {false, true})
    for (size_t MaxLength : {1, 3, 64})
      expectSameExtraction(Runs, options({"fopen"}, Transitive, MaxLength));
  EXPECT_EQ(rendered(extractScenarios(Runs, options({"fopen"}, false))),
            (std::vector<std::string>{"fopen(v0,v1) fopen(v1,v2)",
                                      "fopen(v0) fclose(v0)"}));
}

TEST(ExtractorDifferentialTest, TransitiveChainReachesAnEarlierSeed) {
  // The only seed before fopen(v2) mentions v1, which fopen(v2)'s closure
  // adds through use(v2,v1): a duplicate only when values are transitive.
  TraceSet Runs =
      parseTraces("fopen(v1) link(v2,v3) fopen(v2) use(v2,v1) fclose(v3)\n");
  for (bool Transitive : {false, true})
    for (size_t MaxLength : {1, 3, 64})
      expectSameExtraction(Runs, options({"fopen"}, Transitive, MaxLength));
  EXPECT_EQ(extractScenarios(Runs, options({"fopen"}, false)).size(), 2u);
  EXPECT_EQ(extractScenarios(Runs, options({"fopen"}, true)).size(), 1u);
}

TEST(ExtractorDifferentialTest, ValueOnlyANonSeedEventMentions) {
  // v5 is mentioned at position 0 by a non-seed event; the transitive
  // closure of fopen(v1) adds it. No seed mentions v5, so it must not make
  // the scenario a duplicate (a first-seed position defaulting to 0 would).
  TraceSet Runs = parseTraces("noise(v5) fopen(v1) use(v1,v5) fclose(v1)\n"
                              "noise(v0) noise(v0) fopen(v0) fclose(v0)\n");
  for (bool Transitive : {false, true})
    for (size_t MaxLength : {1, 3, 64})
      expectSameExtraction(Runs, options({"fopen"}, Transitive, MaxLength));
  EXPECT_EQ(rendered(extractScenarios(Runs, options({"fopen"}, true))),
            (std::vector<std::string>{
                "noise(v0) fopen(v1) use(v1,v0) fclose(v1)",
                "noise(v0) noise(v0) fopen(v0) fclose(v0)"}));
}
