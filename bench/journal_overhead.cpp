//===- bench/journal_overhead.cpp - Durable-session cost -------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The --journal flag makes every command durable before it is applied
// (cable/Journal.h). The scripted-session probes put a number on that
// durability tax over a ~60-command labeling session of the shape the
// paper's Step 2 describes — inspect a concept (ls, FA summary, traces),
// label it, occasionally undo — driven through the command interpreter
// cable-cli uses (tool/Commands.h), so the journaled rows time the real
// write-ahead loop: append, apply, render, and a snapshot every 25
// commands (the --snapshot-every default). Both sync policies are
// measured: batch (the --script default, group commit) and always (the
// interactive default, one fsync per command, the price of power-loss
// durability on this filesystem). The google-benchmark sweeps time one
// snapshot compaction and pin the other robustness claim: an unarmed
// Failpoint::hit() is one relaxed atomic load, cheap enough to leave
// compiled into every fsync and rename on the hot path.
//
//===----------------------------------------------------------------------===//

#include "cable/Journal.h"
#include "cable/Session.h"
#include "support/Failpoint.h"
#include "tool/Commands.h"
#include "workload/Protocols.h"

#include "BenchCommon.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

using namespace cable;

namespace {

/// Builds the stdio session once; each interpreter starts from a copy.
Session &stdioSession() {
  static bench::SpecEvaluation Eval =
      bench::evaluateProtocol(stdioProtocol());
  return *Eval.S;
}

/// One scripted labeling pass: 10 rounds of the paper's inspect-then-label
/// loop, 60 command lines.
const std::vector<std::string> &scriptLines() {
  static const std::vector<std::string> Lines = [] {
    std::vector<std::string> Out;
    size_t N = stdioSession().lattice().size();
    for (size_t Round = 0; Round < 10; ++Round) {
      std::string Id = "c" + std::to_string((Round + 1) % N);
      std::string Next = "c" + std::to_string((Round + 2) % N);
      // Inspect before labeling, the way a user would.
      Out.push_back("ls");
      Out.push_back("fa " + Id);
      Out.push_back("traces " + Id);
      Out.push_back("label " + Id + " good all");
      Out.push_back("label " + Next + " bad unlabeled");
      Out.push_back("undo");
    }
    return Out;
  }();
  return Lines;
}

/// Runs the pass, then resets the labels so every pass starts alike.
void runScriptedSession(CommandInterpreter &Cli) {
  for (const std::string &Line : scriptLines())
    benchmark::DoNotOptimize(Cli.run(Line));
  Cli.current().clearLabels();
}

/// An interpreter journaling to a fresh \p Dir under \p Policy, or null
/// (with a warning) when the journal cannot be opened.
std::unique_ptr<CommandInterpreter> journaled(const std::string &Dir,
                                              Journal::SyncPolicy Policy) {
  std::filesystem::remove_all(Dir);
  auto Cli = std::make_unique<CommandInterpreter>(stdioSession());
  CommandResult R = Cli->openJournal(Dir, Policy, /*SnapshotEvery=*/25);
  if (R.Fatal) {
    std::fprintf(stderr, "warning: %s", R.Err.c_str());
    return nullptr;
  }
  return Cli;
}

/// One compaction: serialize the session state, write it atomically,
/// truncate the log. Paid every --snapshot-every commands (default 25)
/// and once at clean shutdown.
void BM_JournalSnapshotCompaction(benchmark::State &State) {
  Session &S = stdioSession();
  std::string Dir = "/tmp/cable_bench_snapshot";
  std::filesystem::remove_all(Dir);
  Journal::Recovery Rec;
  StatusOr<Journal> J = Journal::open(Dir, Rec);
  if (!J.isOk()) {
    State.SkipWithError(J.status().message().c_str());
    return;
  }
  LabelId Good = S.internLabel("good");
  S.labelTraces(0, TraceSelect::All, Good);
  for (auto _ : State)
    benchmark::DoNotOptimize(J->snapshot(S.serializeSnapshot()));
  S.clearLabels();
  benchmark::DoNotOptimize(J->closeClean());
  std::filesystem::remove_all(Dir);
}
BENCHMARK(BM_JournalSnapshotCompaction)->Unit(benchmark::kMicrosecond);

/// A disabled failpoint is one relaxed atomic load; this is the cost paid
/// on every fsync/rename/read with CABLE_FAILPOINTS unset.
void BM_FailpointHitDisabled(benchmark::State &State) {
  Failpoint::reset();
  for (auto _ : State) {
    Status S = Failpoint::hit("journal-append");
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_FailpointHitDisabled);

/// Baseline for the sweep above: the same loop minus the hit() call.
void BM_FailpointLoopBaseline(benchmark::State &State) {
  for (auto _ : State) {
    Status S;
    benchmark::DoNotOptimize(S);
  }
}
BENCHMARK(BM_FailpointLoopBaseline);

} // namespace

// Custom main instead of BENCHMARK_MAIN(): the scripted-session probes
// (plain vs. journaled under both sync policies) go to the BENCH JSON, and
// the google-benchmark sweeps run only outside quick mode. The metrics
// snapshot picks up journal.append-us / fsync-us histograms from the
// probes for free.
int main(int Argc, char **Argv) {
  cable::bench::BenchReport Report("journal_overhead");
  {
    int Samples = cable::bench::BenchReport::quick() ? 3 : 11;
    CommandInterpreter Plain(stdioSession());
    for (int I = 0; I < Samples; ++I)
      Report.timeSample("scripted-session-plain",
                        [&] { runScriptedSession(Plain); });
    for (Journal::SyncPolicy Policy :
         {Journal::SyncPolicy::Batched, Journal::SyncPolicy::EveryRecord}) {
      std::string Dir = "/tmp/cable_bench_journal_json";
      std::unique_ptr<CommandInterpreter> Cli = journaled(Dir, Policy);
      if (!Cli)
        continue;
      const char *Section = Policy == Journal::SyncPolicy::Batched
                                ? "scripted-session-journal-batch"
                                : "scripted-session-journal-fsync";
      for (int I = 0; I < Samples; ++I)
        Report.timeSample(Section, [&] { runScriptedSession(*Cli); });
      benchmark::DoNotOptimize(Cli->close());
      std::filesystem::remove_all(Dir);
    }
  }
  if (!cable::bench::BenchReport::quick()) {
    benchmark::Initialize(&Argc, Argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  Report.write();
  return 0;
}
