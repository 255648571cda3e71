//===- tool/Commands.h - The Cable command interpreter ----------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's §4 command set as one interpreter: concept listing with the
/// green/yellow/red states, Show FA/transitions/traces, `Label traces`,
/// Focus sub-sessions with label merge-back, undo, label save/load, DOT
/// export and the protocol oracle. A base session, its focus stack and the
/// optional protocol go in; each command line comes out as text plus
/// ok/failed, printed by nobody. The interpreter also owns a journaled
/// session's write-ahead loop (cable/Journal.h); recovery replays the log
/// tail through the dispatcher live input goes through, dropping its text.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_TOOL_COMMANDS_H
#define CABLE_TOOL_COMMANDS_H

#include "cable/Journal.h"
#include "cable/Session.h"
#include "workload/Protocols.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cable {

/// What one command (or a journal open/close) produced.
struct CommandResult {
  bool Ok = true;     ///< False when the command failed.
  bool Fatal = false; ///< The journal failed; the session must end.
  std::string Out;    ///< The command's output (stdout).
  std::string Err;    ///< Diagnostics and warnings (stderr).
};

/// The command list, as `help` prints it and the tools' --help embeds it.
const char *commandHelp();

class CommandInterpreter {
public:
  explicit CommandInterpreter(Session Base,
                              std::optional<ProtocolModel> Protocol = {})
      : Base(std::move(Base)), Protocol(std::move(Protocol)) {}

  /// Applies one command line to the current session, unjournaled. A
  /// journal record's `load FILE\n<bytes>` form loads the bytes.
  CommandResult execute(std::string_view Line);

  /// Opens the journal in \p Dir and recovers its session: restores the
  /// snapshot, replays the tail through execute(), and compacts it. Fatal
  /// when the journal cannot be opened or its snapshot does not fit.
  CommandResult openJournal(const std::string &Dir, Journal::SyncPolicy Policy,
                            unsigned long SnapshotEvery);

  /// Live input. With a journal open the line is appended before it is
  /// applied (a failed append is Fatal; a `load` record carries the file's
  /// bytes, and a `load` of an unreadable file is not journaled), and the
  /// base session is snapshotted every SnapshotEvery commands.
  CommandResult run(std::string_view Line);

  /// Clean shutdown: a last snapshot (unless a focus is open) and removal
  /// of the ACTIVE marker. A no-op without a journal.
  CommandResult close();

  /// The session commands apply to: the innermost focus, else the base.
  Session &current() { return Stack.empty() ? Base : Stack.back()->Sub; }
  const Session &base() const { return Base; }
  /// Focus sub-sessions above the base, outermost first.
  const std::vector<std::unique_ptr<FocusSession>> &focusStack() const {
    return Stack;
  }
  const Journal &journal() const { return Wal; }

private:
  /// Snapshot + compact when due (with \p Force: when anything is
  /// pending). Snapshots hold base state only, so a focus defers them.
  void maybeSnapshot(bool Force, std::string &Err);

  /// Runs one split command, writing its text to \p Out; false when it
  /// failed. \p Loaded, when set, is what a `load` uses instead of
  /// reading its file.
  bool apply(const std::vector<std::string> &Args,
             const StatusOr<std::string> *Loaded, std::string &Out);

  Session Base;
  std::vector<std::unique_ptr<FocusSession>> Stack;
  std::optional<ProtocolModel> Protocol;

  Journal Wal; ///< Idle unless openJournal() succeeded.
  std::string JournalDir;
  unsigned long SnapshotEvery = 25;
  uint64_t SinceSnapshot = 0;
};

} // namespace cable

#endif // CABLE_TOOL_COMMANDS_H
