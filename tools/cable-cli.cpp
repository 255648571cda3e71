//===- tools/cable-cli.cpp - The Cable tool ---------------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// A command-line rendition of the paper's Dotty-based Cable tool (§4). It
// loads traces (from a file, or a generated protocol workload), clusters
// them against a reference FA, and offers the paper's commands: concept
// listing with the green/yellow/red states, the three summary views, the
// `Label traces` command with its selection semantics, Focus sub-sessions
// with label merge-back, and DOT export. Reads commands from stdin (or a
// --script file), so it works both interactively and scripted.
//
// With --journal DIR every command is write-ahead logged before it is
// applied and the session state is snapshotted periodically, so a crash,
// Ctrl-C, or I/O failure never loses labeling work: restarting with the
// same --journal DIR (and the same input flags) replays the snapshot plus
// the journal tail through the same command interpreter (tool/Commands.h)
// and resumes exactly where the session died. `cable-cli --help` lists the
// flags and commands.
//
//===----------------------------------------------------------------------===//

#include "fa/Parse.h"
#include "fa/Regex.h"
#include "fa/Templates.h"
#include "support/AtomicFile.h"
#include "support/CrashDump.h"
#include "support/RNG.h"
#include "support/StringUtil.h"
#include "tool/Commands.h"
#include "tool/Tool.h"
#include "workload/Generator.h"
#include "workload/ReferenceFA.h"

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

using namespace cable;

namespace {

const char *const kUsage =
    "cable-cli: debug temporal specifications with concept analysis\n"
    "\n"
    "input (one of):\n"
    "  --traces FILE      load traces (one per line: name or name(v0,..))\n"
    "  --protocol NAME    generate the named synthetic workload\n"
    "                     (one of the 17 evaluation protocols or 'stdio')\n"
    "\n"
    "reference FA (default: unordered template):\n"
    "  --ref REGEX        compile REGEX (fa/Regex syntax)\n"
    "  --ref-file FILE    load an automaton in the fa/Parse format\n"
    "  --seed EVENT       seed-order template on EVENT, e.g. XtFree(v0)\n"
    "  --recommended      protocol's recommended FA (with --protocol)\n"
    "\n"
    "durability:\n"
    "  --journal DIR      write-ahead log + snapshots in DIR; restarting\n"
    "                     with the same DIR and input flags resumes the\n"
    "                     session after a crash\n"
    "  --snapshot-every N compact the journal every N commands (default 25)\n"
    "  --journal-sync M   'always' fsyncs each command before applying it\n"
    "                     (interactive default); 'batch' fsyncs at\n"
    "                     snapshots and shutdown (--script default)\n"
    "  --script FILE      read commands from FILE instead of stdin; with\n"
    "                     --journal, resume at the first undurable line\n";

int runCli(Tool &T) {
  std::string TracesFile, RefRegex, RefFile, SeedEvent, ProtocolName;
  std::string JournalDir, ScriptFile, JournalSync;
  bool Recommended = false;
  unsigned long SnapshotEvery = 25;
  if (std::optional<int> Exit = T.parse({
          {"--traces", &TracesFile},
          {"--ref", &RefRegex},
          {"--ref-file", &RefFile},
          {"--seed", &SeedEvent},
          {"--protocol", &ProtocolName},
          {"--recommended", &Recommended},
          {"--journal", &JournalDir},
          {"--script", &ScriptFile},
          {"--snapshot-every", &SnapshotEvery},
          {"--journal-sync", &JournalSync},
      }))
    return *Exit;
  if (!JournalSync.empty() && JournalSync != "always" &&
      JournalSync != "batch") {
    std::fprintf(stderr,
                 "error: --journal-sync expects 'always' or 'batch', got "
                 "'%s'\n",
                 JournalSync.c_str());
    return 1;
  }

  // Assemble the trace set.
  std::optional<ProtocolModel> Protocol;
  TraceSet Traces;
  if (!ProtocolName.empty()) {
    if (ProtocolName == "stdio") {
      Protocol = stdioProtocol();
    } else if (const ProtocolModel *M = findProtocol(ProtocolName)) {
      Protocol = *M;
    } else {
      std::fprintf(stderr, "error: unknown protocol '%s'; valid names:\n",
                   ProtocolName.c_str());
      std::fprintf(stderr, "  stdio\n");
      for (const std::string &Name : protocolNames())
        std::fprintf(stderr, "  %s\n", Name.c_str());
      return 1;
    }
    EventTable Table;
    WorkloadGenerator Gen(*Protocol, Table);
    RNG Rand(0xC11);
    Traces = Gen.generateScenarios(
        Rand, Protocol->NumRuns * Protocol->ScenariosPerRun);
    std::printf("generated %zu scenario traces for protocol %s\n",
                Traces.size(), Protocol->Name.c_str());
  } else if (!TracesFile.empty()) {
    StatusOr<std::string> Text = readFileToString(TracesFile);
    if (!Text)
      return Tool::fail(Text.status());
    Diagnostic Diag;
    std::optional<TraceSet> Parsed = TraceSet::parse(*Text, Diag);
    if (!Parsed)
      return Tool::fail(Diag, TracesFile);
    Traces = std::move(*Parsed);
    std::printf("loaded %zu traces from %s\n", Traces.size(),
                TracesFile.c_str());
  } else {
    T.printUsage();
    return 1;
  }
  if (Traces.empty()) {
    std::fprintf(stderr, "error: no traces\n");
    return 1;
  }

  // Build the reference FA.
  Automaton Ref;
  if (!RefRegex.empty()) {
    Diagnostic Diag;
    std::optional<Automaton> FA = compileRegex(RefRegex, Traces.table(), Diag);
    if (!FA)
      return Tool::fail(Diag, "--ref");
    Ref = std::move(*FA);
  } else if (!RefFile.empty()) {
    StatusOr<std::string> Text = readFileToString(RefFile);
    if (!Text)
      return Tool::fail(Text.status());
    Diagnostic Diag;
    std::optional<Automaton> FA = parseAutomaton(*Text, Traces.table(), Diag);
    if (!FA)
      return Tool::fail(Diag, RefFile);
    Ref = std::move(*FA);
  } else if (!SeedEvent.empty()) {
    std::string Err;
    std::optional<EventId> Seed = Traces.table().parseEvent(SeedEvent, Err);
    if (!Seed) {
      std::fprintf(stderr, "error: bad --seed event: %s\n", Err.c_str());
      return 1;
    }
    Ref = makeSeedOrderFA(templateAlphabet(Traces.traces()), *Seed,
                          Traces.table());
  } else if (Recommended && Protocol) {
    Ref = makeProtocolReferenceFA(Traces.traces(), Traces.table(), *Protocol);
  } else {
    Ref = makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  }

  StatusOr<Session> Built =
      Session::build(std::move(Traces), std::move(Ref), T.Build);
  if (!Built)
    return Tool::fail(Built.status());
  CommandInterpreter Cli(std::move(*Built), std::move(Protocol));
  const Session &Base = Cli.base();
  Tool::warnCacheDiagnostics(Base);
  if (Base.cacheHit())
    std::printf("lattice loaded from cache (%s)\n", T.Build.CacheDir.c_str());
  if (Base.truncated()) {
    if (std::optional<int> Exit = T.truncatedBy(
            Base.buildStatus(), "lattice construction",
            "continue with the partial lattice and the baseline trace "
            "classes"))
      return *Exit;
    std::printf("continuing with a partial lattice (%zu concepts); the "
                "baseline identical-trace clustering (%zu classes) is "
                "complete — see 'classes'\n",
                Base.lattice().size(), Base.baselineClasses().numClasses());
  }
  std::printf("session: %zu unique traces, %zu FA transitions, %zu "
              "concepts\n",
              Base.numObjects(), Base.referenceFA().numTransitions(),
              Base.lattice().size());

  auto Print = [](const CommandResult &R) {
    std::fputs(R.Out.c_str(), stdout);
    std::fputs(R.Err.c_str(), stderr);
  };

  // Open the journal and recover whatever session it holds.
  uint64_t ScriptSkip = 0;
  if (!JournalDir.empty()) {
    // Scripted runs group-commit by default: the script file already
    // re-seeds any tail a power cut could drop, so per-command fsyncs
    // buy nothing there. Interactive sessions keep fsync-per-command.
    bool Batch = JournalSync.empty() ? !ScriptFile.empty()
                                     : JournalSync == "batch";
    CommandResult Opened = Cli.openJournal(
        JournalDir,
        Batch ? Journal::SyncPolicy::Batched
              : Journal::SyncPolicy::EveryRecord,
        SnapshotEvery);
    Print(Opened);
    if (Opened.Fatal)
      return 1;
    CrashDump::installTerminateHandlers(Cli.journal().fd());
    ScriptSkip = Cli.journal().lastSeq();
  }
  std::printf("type 'help' for commands\n");

  // Command source: stdin, or --script FILE (a journal-backed script run
  // resumes at the first command the journal has not made durable; blank
  // and comment lines are never journaled and never counted).
  std::vector<std::string> Script;
  size_t ScriptAt = 0;
  bool FromScript = !ScriptFile.empty();
  if (FromScript) {
    StatusOr<std::string> Text = readFileToString(ScriptFile);
    if (!Text)
      return Tool::fail(Text.status());
    Script = splitString(*Text, '\n');
  }
  std::string Line;
  for (;;) {
    if (FromScript) {
      if (ScriptAt >= Script.size())
        break;
      Line = Script[ScriptAt++];
    } else {
      std::printf("cable> ");
      std::fflush(stdout);
      if (!std::getline(std::cin, Line))
        break;
    }
    std::string_view Body = trimString(Line);
    if (Body.empty() || Body[0] == '#')
      continue;
    if (FromScript && ScriptSkip > 0) {
      --ScriptSkip; // Already durable and replayed; do not re-run.
      continue;
    }
    std::string Cmd = splitWhitespace(Body)[0];
    if (Cmd == "quit" || Cmd == "exit")
      break;
    CommandResult R = Cli.run(Line);
    Print(R);
    if (R.Fatal)
      return 3;
    if (!R.Ok && FromScript) {
      // Fail-stop before any snapshot covers the failed command, so a
      // re-run with the same --journal retries it.
      std::fprintf(stderr,
                   "error: command '%s' failed; a scripted session stops "
                   "at the first error%s\n",
                   Line.c_str(),
                   Cli.journal().isOpen()
                       ? " (re-run with the same --journal to retry it)"
                       : "");
      return 5;
    }
  }

  // Clean shutdown: the signal handlers forget the journal's fd before it
  // closes.
  if (Cli.journal().isOpen()) {
    CrashDump::installTerminateHandlers();
    Print(Cli.close());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Tool T("cable-cli", std::string(kUsage) + "\n" + commandHelp());
  return T.main(Argc, Argv, runCli);
}
