//===- tests/tool/CommandsTest.cpp ----------------------------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
//
// The command interpreter in-process. Fixed cases pin the label-lookup
// rules and the write-ahead loop; the fuzz suite feeds random command
// streams (label with every selection form, undo, focus inside focus,
// unfocus, save/load, malformed ids, arguments and regexes, and `oracle`
// on protocol-backed sessions) to random sessions (complete lattices,
// lattices a concept cap truncated, and protocol scenarios) and, after
// every line, checks labels and undo depth at every focus level against
// SessionModelTest's reference model; the replay suite crashes a
// journaled interpreter at random points (some with a focus still open),
// recovers it, and requires the final session to be byte-identical to the
// uninterrupted run's — including streams where a `load` failed live
// against a file a later `save` created.
//
//===----------------------------------------------------------------------===//

#include "tool/Commands.h"

#include "../TestHelpers.h"
#include "../cable/SessionModel.h"
#include "cable/Strategies.h"
#include "support/Failpoint.h"
#include "support/StringUtil.h"
#include "workload/Generator.h"
#include "workload/Oracle.h"
#include "workload/Protocols.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <unistd.h>

using namespace cable;
using namespace cable::test;

namespace {

/// An empty scratch directory for journals and label files.
std::string freshDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "cable_commands_" + Name + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

Session smallSession() {
  TraceSet Traces = parseTraces("a b\na c\nb\nb c d\n");
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  return Session(std::move(Traces), std::move(Ref));
}

bool contains(const std::string &Text, const char *Part) {
  return Text.find(Part) != std::string::npos;
}

/// The concept a command argument names, as the interpreter parses it.
std::optional<Session::NodeId> conceptOf(const std::string &Token,
                                         const Session &S) {
  std::string_view Id = Token;
  if (!Id.empty() && Id[0] == 'c')
    Id.remove_prefix(1);
  std::optional<unsigned long> N = parseUnsignedLong(Id);
  if (!N || *N >= S.lattice().size())
    return std::nullopt;
  return static_cast<Session::NodeId>(*N);
}

const char *const kNames[] = {"good", "bad", "odd"};
/// Focus patterns over the generator's events; "[[" is malformed.
const char *const kPatterns[] = {".*", "[a | b]*", "a .*", "~c .*", "d",
                                 "[["};

/// 4-11 scenarios of the stdio protocol or one of the first Table 1
/// protocols, clustered with the unordered template.
std::pair<Session, ProtocolModel> makeProtocolSession(RNG &Rand) {
  size_t Pick = Rand.nextIndex(4);
  ProtocolModel Model = Pick == 0 ? stdioProtocol() : allProtocols()[Pick - 1];
  EventTable Table;
  WorkloadGenerator Gen(Model, Table);
  TraceSet Traces = Gen.generateScenarios(Rand, 4 + Rand.nextIndex(8));
  Automaton Ref =
      makeUnorderedFA(templateAlphabet(Traces.traces()), Traces.table());
  return {Session(std::move(Traces), std::move(Ref)), std::move(Model)};
}

/// One random command line against the current session \p S. Label files
/// live in \p Dir. With \p WithOracle, one line in ten is `oracle`.
std::string randomLine(RNG &Rand, const Session &S, const std::string &Dir,
                       bool WithOracle = false) {
  if (WithOracle && Rand.nextBounded(10) == 0)
    return "oracle";
  auto Concept = [&]() -> std::string {
    switch (Rand.nextBounded(12)) {
    case 0:
      return "cx";
    case 1:
      return "c" + std::to_string(S.lattice().size() + Rand.nextIndex(3));
    default:
      return "c" + std::to_string(Rand.nextIndex(S.lattice().size()));
    }
  };
  auto Name = [&] { return std::string(kNames[Rand.nextIndex(3)]); };
  auto File = [&] {
    return Dir + "/labels" + std::to_string(Rand.nextIndex(2)) + ".txt";
  };
  switch (Rand.nextBounded(12)) {
  case 0:
  case 1:
  case 2: {
    std::string Line = "label " + Concept() + " " + Name();
    switch (Rand.nextBounded(6)) {
    case 0:
      return Line;
    case 1:
      return Line + " all";
    case 2:
      return Line + " unlabeled";
    case 3:
      return Line + " " + Name();
    case 4:
      return Line + " from " + Name();
    default:
      return Line + " from"; // Malformed: no OLD label.
    }
  }
  case 3:
  case 4:
    return "undo";
  case 5:
    return "focus " + Concept() + " " + kPatterns[Rand.nextIndex(6)];
  case 6:
    return "unfocus";
  case 7:
    return "save " + File();
  case 8:
    return "load " + File();
  case 9:
    switch (Rand.nextBounded(6)) {
    case 0:
      return "fa " + Concept() + " " + Name();
    case 1:
      return "traces " + Concept() + " from " + Name();
    case 2:
      return "check " + Name();
    case 3:
      return "diff " + Name() + " " + Name();
    case 4:
      return "status";
    default:
      return "ls";
    }
  case 10: {
    const char *Malformed[] = {"label", "label c0", "bogus", "fa",
                               "focus c0", "meet c0"};
    return Malformed[Rand.nextIndex(6)];
  }
  default:
    return (Rand.nextBool(0.5) ? "meet " : "join ") + Concept() + " " +
           Concept();
  }
}

/// Runs an interpreter line by line and keeps SessionModelTest's model
/// of every focus level in step with it, computed from the command
/// semantics rather than read back from the session.
class ModelChecker {
public:
  /// \p Protocol is the interpreter's protocol, if it has one.
  explicit ModelChecker(CommandInterpreter &Cli,
                        const ProtocolModel *Protocol = nullptr)
      : Cli(Cli), Protocol(Protocol) {
    Levels.push_back({Model(Cli.base().numObjects()), {}});
  }

  void step(const std::string &Line) {
    SCOPED_TRACE(Line);
    std::vector<std::string> Args = splitWhitespace(Line);
    const std::string &Cmd = Args[0];
    Session &S = Cli.current();
    Model &M = Levels.back().M;
    size_t LabelsBefore = S.numLabels();
    bool Expect = true;
    bool MayIntern = false;

    if (Cmd == "label" && Args.size() >= 3) {
      std::optional<Session::NodeId> Id = conceptOf(Args[1], S);
      bool MissingOld = Args.size() == 4 && Args[3] == "from";
      Expect = Id && !MissingOld;
      MayIntern = Expect;
      TraceSelect Sel = TraceSelect::Unlabeled;
      std::optional<LabelId> From;
      if (Args.size() > 3 && Args[3] == "all") {
        Sel = TraceSelect::All;
      } else if (Args.size() > 3 && Args[3] != "unlabeled") {
        Sel = TraceSelect::WithLabel;
        From = S.findLabel(Args.back());
      }
      CommandResult R = run(Line, Expect);
      if (!Expect) {
        EXPECT_EQ(Id && MissingOld,
                  contains(R.Out, "'from' needs a label name"))
            << R.Out;
      } else {
        LabelId New = *S.findLabel(Args[2]);
        M.snapshot();
        size_t Changed = 0;
        for (size_t Obj : S.lattice().node(*Id).Extent) {
          bool Selected = Sel == TraceSelect::All ||
                          (Sel == TraceSelect::Unlabeled && !M.Labels[Obj]) ||
                          (Sel == TraceSelect::WithLabel && From &&
                           M.Labels[Obj] == From);
          if (Selected && M.Labels[Obj] != std::optional<LabelId>(New)) {
            M.Labels[Obj] = New;
            ++Changed;
          }
        }
        EXPECT_EQ(R.Out, "labeled " + std::to_string(Changed) +
                             " trace(s) as '" + Args[2] + "'\n");
      }
    } else if (Cmd == "undo") {
      bool Undone = M.undo();
      EXPECT_EQ(run(Line, true).Out, Undone ? "undone\n" : "nothing to undo\n");
    } else if (Cmd == "focus" && Args.size() >= 3) {
      std::optional<Session::NodeId> Id = conceptOf(Args[1], S);
      Expect = Id && Args[2] != "[[";
      run(Line, Expect);
      if (Expect) {
        std::vector<size_t> Parents = S.lattice().node(*Id).Extent.toIndices();
        ASSERT_EQ(Cli.focusStack().size(), Levels.size());
        EXPECT_EQ(Cli.focusStack().back()->ParentObjects, Parents);
        Levels.push_back({Model(Parents.size()), Parents});
      }
    } else if (Cmd == "unfocus") {
      Expect = Levels.size() > 1;
      // Label names of the closing level, by sub-object, before it goes.
      std::vector<std::optional<std::string>> Names;
      for (const std::optional<LabelId> &L : M.Labels)
        Names.push_back(L ? std::optional(S.labelName(*L)) : std::nullopt);
      run(Line, Expect);
      if (Expect) {
        std::vector<size_t> Parents = Levels.back().ParentObjects;
        Levels.pop_back();
        Session &P = Cli.current();
        Model &PM = Levels.back().M;
        PM.snapshot();
        for (size_t Sub = 0; Sub < Names.size(); ++Sub)
          if (Names[Sub])
            PM.Labels[Parents[Sub]] = *P.findLabel(*Names[Sub]);
      }
    } else if (Cmd == "save") {
      std::vector<std::pair<std::string, std::string>> Saved;
      for (size_t Obj = 0; Obj < M.Labels.size(); ++Obj)
        if (M.Labels[Obj])
          Saved.emplace_back(S.labelName(*M.Labels[Obj]),
                             S.object(Obj).render(S.table()));
      run(Line, true);
      Files[Args[1]] = std::move(Saved);
    } else if (Cmd == "load") {
      auto It = Files.find(Args[1]);
      Expect = It != Files.end();
      MayIntern = Expect;
      CommandResult R = run(Line, Expect);
      if (Expect) {
        M.snapshot();
        size_t Unmatched = 0;
        for (const auto &[Name, Text] : It->second) {
          bool Found = false;
          for (size_t Obj = 0; Obj < S.numObjects(); ++Obj)
            if (S.object(Obj).render(S.table()) == Text) {
              M.Labels[Obj] = *S.findLabel(Name);
              Found = true;
            }
          Unmatched += !Found;
        }
        EXPECT_EQ(R.Out, "labels loaded (" + std::to_string(Unmatched) +
                             " line(s) matched no trace here)\n");
      }
    } else if (Cmd == "oracle") {
      Expect = Protocol != nullptr;
      MayIntern = Expect;
      if (!Expect) {
        run(Line, false);
      } else {
        expectOracleRun(Line, S, M);
      }
    } else if ((Cmd == "fa" || Cmd == "traces") && Args.size() >= 2) {
      run(Line, conceptOf(Args[1], S).has_value());
    } else if ((Cmd == "meet" || Cmd == "join") && Args.size() >= 3) {
      run(Line, conceptOf(Args[1], S) && conceptOf(Args[2], S));
    } else if (Cmd == "check" || Cmd == "diff" || Cmd == "status" ||
               Cmd == "ls") {
      run(Line, Args.size() >= (Cmd == "diff" ? 3u : Cmd == "check" ? 2u : 1u));
    } else {
      run(Line, false); // Malformed or unknown.
    }

    // Only labeling interns label names; the read-only views never do.
    // (A successful unfocus destroyed S; merge-back may intern.)
    if (!MayIntern && Cmd != "unfocus") {
      EXPECT_EQ(S.numLabels(), LabelsBefore);
    }
    ASSERT_EQ(Cli.focusStack().size() + 1, Levels.size());
    expectAgreement(Cli.current(), Levels.back().M);
    expectAgreement(Cli.base(), Levels.front().M);
  }

private:
  /// `oracle` labels the session with the protocol oracle's labels, one
  /// label command at a time, after clearing labels and undo history. The
  /// labels it must reach come straight from Oracle; the states between
  /// its label commands, which undo walks back through, come from the
  /// same expert strategy run on a copy of the session and unwound.
  void expectOracleRun(const std::string &Line, Session &S, Model &M) {
    Session Copy = S;
    Oracle Truth(*Protocol, Copy.table());
    std::vector<std::string> Names = Truth.labelNames(Copy);
    ExpertSimStrategy Expert;
    StrategyCost Cost = Expert.run(Copy, Truth.referenceLabeling(Copy));
    char Want[128];
    std::snprintf(Want, sizeof(Want),
                  "expert simulation: %zu inspections + %zu label ops (%s)\n",
                  Cost.Inspections, Cost.LabelOps,
                  Cost.Finished ? "finished" : "DID NOT FINISH");
    EXPECT_EQ(run(Line, true).Out, Want);

    // States after 0..LabelOps label commands, as names per object.
    std::vector<std::vector<std::optional<std::string>>> States;
    do {
      States.emplace_back();
      for (size_t Obj = 0; Obj < Copy.numObjects(); ++Obj) {
        std::optional<LabelId> L = Copy.labelOf(Obj);
        States.back().push_back(L ? std::optional(Copy.labelName(*L))
                                  : std::nullopt);
        // A label command only ever gives a trace its oracle label.
        if (L)
          EXPECT_EQ(*States.back().back(), Names[Obj]) << "object " << Obj;
      }
    } while (Copy.undo());
    std::reverse(States.begin(), States.end());
    ASSERT_EQ(States.size(), Cost.LabelOps + 1);
    auto Ids = [&](const std::vector<std::optional<std::string>> &State) {
      std::vector<std::optional<LabelId>> Out;
      for (const std::optional<std::string> &Name : State)
        Out.push_back(Name ? S.findLabel(*Name) : std::nullopt);
      return Out;
    };
    M.History.clear();
    for (size_t I = 0; I < Cost.LabelOps; ++I)
      M.History.push_back(Ids(States[I]));
    for (size_t Obj = 0; Obj < M.Labels.size(); ++Obj) {
      EXPECT_FALSE(States.front()[Obj]) << "object " << Obj;
      if (Cost.Finished || States.back()[Obj])
        M.Labels[Obj] = S.findLabel(Names[Obj]);
      else
        M.Labels[Obj] = std::nullopt;
    }
  }

  CommandResult run(const std::string &Line, bool ExpectOk) {
    CommandResult R = Cli.run(Line);
    EXPECT_EQ(R.Ok, ExpectOk) << R.Out;
    EXPECT_FALSE(R.Fatal);
    return R;
  }

  struct Level {
    Model M;
    std::vector<size_t> ParentObjects; ///< Empty for the base.
  };

  CommandInterpreter &Cli;
  const ProtocolModel *Protocol;
  std::vector<Level> Levels;
  /// What each label file holds: (label, rendered trace) per line.
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      Files;
};

} // namespace

TEST(CommandsTest, ReadOnlyCommandsCreateNoLabels) {
  CommandInterpreter Cli(smallSession());
  for (const char *Line :
       {"traces c0 typo", "fa c0 other", "check nolabel", "diff one two",
        "traces c0 from ghost", "fa c0 from ghost"})
    EXPECT_TRUE(Cli.execute(Line).Ok) << Line;
  EXPECT_EQ(Cli.base().numLabels(), 0u);
  EXPECT_TRUE(contains(Cli.execute("status").Out, "; 0 labels;"));
  EXPECT_FALSE(contains(Cli.base().serializeSnapshot(), "labels"));
}

TEST(CommandsTest, UnknownSourceLabelSelectsNoTraces) {
  CommandInterpreter Cli(smallSession());
  EXPECT_EQ(Cli.execute("label c0 good all").Out,
            "labeled 4 trace(s) as 'good'\n");
  EXPECT_EQ(Cli.execute("traces c0 typo").Out, "");
  EXPECT_EQ(Cli.execute("label c0 bad from typo").Out,
            "labeled 0 trace(s) as 'bad'\n");
  EXPECT_EQ(Cli.execute("label c0 bad good").Out,
            "labeled 4 trace(s) as 'bad'\n");
  EXPECT_EQ(Cli.base().numLabels(), 2u);
  EXPECT_FALSE(Cli.base().findLabel("typo"));
}

TEST(CommandsTest, LabelFromWithoutOldLabelFails) {
  CommandInterpreter Cli(smallSession());
  CommandResult R = Cli.execute("label c0 good from");
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Out, "error: 'from' needs a label name\n");
  EXPECT_EQ(Cli.base().numLabels(), 0u);
  EXPECT_EQ(Cli.base().undoDepth(), 0u);
}

TEST(CommandsTest, RecoveryReplaysTheTailWithoutItsText) {
  std::string Dir = freshDir("recovery");
  {
    CommandInterpreter Cli(smallSession());
    ASSERT_FALSE(
        Cli.openJournal(Dir, Journal::SyncPolicy::Batched, 100).Fatal);
    EXPECT_TRUE(Cli.run("label c0 good all").Ok);
    EXPECT_TRUE(Cli.run("focus c0 .*").Ok);
  } // Dies without a clean close.
  CommandInterpreter Cli(smallSession());
  CommandResult R = Cli.openJournal(Dir, Journal::SyncPolicy::Batched, 100);
  EXPECT_EQ(R.Out, "journal: unclean shutdown detected; recovered the "
                   "session (snapshot seq 0 + 2 replayed command(s))\n");
  EXPECT_EQ(Cli.journal().lastSeq(), 2u);
  EXPECT_EQ(Cli.focusStack().size(), 1u);
  EXPECT_EQ(Cli.base().objectsWithLabel(0).count(), 4u);
  EXPECT_TRUE(Cli.close().Err.empty());
  std::filesystem::remove_all(Dir);
}

TEST(CommandsTest, FailedAppendIsFatalAndNotApplied) {
  std::string Dir = freshDir("append");
  CommandInterpreter Cli(smallSession());
  ASSERT_FALSE(Cli.openJournal(Dir, Journal::SyncPolicy::Batched, 25).Fatal);
  ASSERT_TRUE(Failpoint::configure("journal-append=error").isOk());
  CommandResult R = Cli.run("label c0 good all");
  Failpoint::reset();
  EXPECT_TRUE(R.Fatal);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(contains(R.Err, "journal append failed")) << R.Err;
  EXPECT_EQ(Cli.base().numLabels(), 0u);
  EXPECT_EQ(Cli.base().undoDepth(), 0u);
  Cli.close();
  std::filesystem::remove_all(Dir);
}

class CommandsFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// Seeds from this one on build their session under a concept cap that
/// truncates the lattice (the tools' --max-concepts --keep-going path).
constexpr uint64_t kFirstTruncatedSeed = 40;
/// Seeds from this one on build a protocol-backed session (the tools'
/// --protocol path), whose streams also run `oracle`.
constexpr uint64_t kFirstProtocolSeed = 60;

TEST_P(CommandsFuzzTest, RandomCommandStreamsAgreeWithModel) {
  RNG Rand(GetParam() * 7919 + 11);
  bool WithProtocol = GetParam() >= kFirstProtocolSeed;
  bool Truncated = !WithProtocol && GetParam() >= kFirstTruncatedSeed;
  std::optional<CommandInterpreter> Cli;
  std::optional<ProtocolModel> Protocol;
  if (WithProtocol) {
    auto [S, Model] = makeProtocolSession(Rand);
    Protocol = Model;
    Cli.emplace(std::move(S), std::move(Model));
  } else {
    Cli.emplace(Truncated ? makeTruncatedSession(Rand)
                          : makeRandomSession(Rand));
  }
  ASSERT_EQ(Cli->base().truncated(), Truncated);
  std::string Dir = freshDir("fuzz" + std::to_string(GetParam()));
  ModelChecker Checker(*Cli, Protocol ? &*Protocol : nullptr);
  // Once the model disagrees, later steps check nothing: stop there.
  for (int Step = 0; Step < 120 && !::testing::Test::HasFailure(); ++Step)
    Checker.step(randomLine(Rand, Cli->current(), Dir, WithProtocol));
  std::filesystem::remove_all(Dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommandsFuzzTest,
                         ::testing::Range<uint64_t>(0, 80));

class CommandsReplayTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CommandsReplayTest, ReplayEqualsLive) {
  RNG Rand(GetParam() * 104729 + 5);
  const Session Proto = makeRandomSession(Rand);
  std::string Dir = freshDir("replay" + std::to_string(GetParam()));
  unsigned long Every = std::vector<unsigned long>{0, 1, 3, 25}[GetParam() % 4];

  // The uninterrupted run generates the stream as it goes.
  std::vector<std::string> Lines;
  std::vector<size_t> Depth;     ///< Focus depth after each line.
  std::vector<size_t> Journaled; ///< Journal records up to each line.
  CommandInterpreter Live(Proto);
  for (int I = 0; I < 80; ++I) {
    Lines.push_back(randomLine(Rand, Live.current(), Dir));
    // A load of a missing file is refused before it is journaled.
    std::vector<std::string> Args = splitWhitespace(Lines.back());
    bool Skipped = Args[0] == "load" && Args.size() >= 2 &&
                   !std::filesystem::exists(Args[1]);
    Live.run(Lines.back());
    Depth.push_back(Live.focusStack().size());
    Journaled.push_back((Journaled.empty() ? 0 : Journaled.back()) +
                        !Skipped);
  }
  std::string Golden = Live.base().serializeSnapshot();
  std::string GoldenTop = Live.current().serializeSnapshot();

  // Crash points: a few with a focus still open, a few anywhere.
  std::vector<size_t> Crashes;
  for (size_t K = 1; K < Lines.size() && Crashes.size() < 3; K += 7)
    if (Depth[K - 1] > 0)
      Crashes.push_back(K);
  for (int I = 0; I < 3; ++I)
    Crashes.push_back(1 + Rand.nextIndex(Lines.size() - 1));

  for (size_t K : Crashes) {
    SCOPED_TRACE("crash after line " + std::to_string(K));
    // Label files start empty, as they did for the live run.
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
    std::string JournalDir = Dir + "/journal";
    {
      CommandInterpreter Crashed(Proto);
      ASSERT_FALSE(
          Crashed.openJournal(JournalDir, Journal::SyncPolicy::Batched, Every)
              .Fatal);
      for (size_t I = 0; I < K; ++I)
        EXPECT_FALSE(Crashed.run(Lines[I]).Fatal);
    } // Destroyed without close(): the ACTIVE marker stays.
    EXPECT_TRUE(std::filesystem::exists(Journal::markerPath(JournalDir)));

    CommandInterpreter Resumed(Proto);
    CommandResult R =
        Resumed.openJournal(JournalDir, Journal::SyncPolicy::Batched, Every);
    ASSERT_FALSE(R.Fatal) << R.Err;
    EXPECT_TRUE(contains(R.Out, "unclean shutdown")) << R.Out;
    EXPECT_EQ(Resumed.journal().lastSeq(), Journaled[K - 1]);
    EXPECT_EQ(Resumed.focusStack().size(), Depth[K - 1]);
    for (size_t I = K; I < Lines.size(); ++I)
      Resumed.run(Lines[I]);
    EXPECT_EQ(Resumed.base().serializeSnapshot(), Golden);
    EXPECT_EQ(Resumed.current().serializeSnapshot(), GoldenTop);
    EXPECT_EQ(Resumed.focusStack().size(), Depth.back());
    EXPECT_TRUE(Resumed.close().Err.empty());
  }
  std::filesystem::remove_all(Dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CommandsReplayTest,
                         ::testing::Range<uint64_t>(0, 16));
