//===- tool/Tool.h - Setup shared by the command-line tools -----*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What cable-cli and spec-lint do alike: the shared flag families (cache,
/// budgets, observability, --version, --list-failpoints, --help) with their
/// environment defaults, failpoints, the crash recorder, the observability
/// artifacts, and the `main` wrapper that turns an escaping exception into
/// exit 4 with a crash dump. A tool passes only its own flags.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_TOOL_TOOL_H
#define CABLE_TOOL_TOOL_H

#include "cable/Session.h"

#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>
#include <variant>
#include <vector>

namespace cable {

/// One flag: a string, a number (optional when unset differs from every
/// value), or a switch.
struct ToolFlag {
  const char *Name;
  std::variant<std::string *, unsigned long *, std::optional<unsigned long> *,
               bool *>
      Target;
};

class Tool {
public:
  /// \p Usage is the tool's own part of --help; the shared families follow.
  Tool(const char *Name, std::string Usage)
      : Name(Name), Usage(std::move(Usage)) {}

  /// Runs \p Body as the tool's main: signal handling from the start, an
  /// escaping exception as exit 4 with a crash dump, and the observability
  /// artifacts on every exit path (a failed run still leaves evidence).
  int main(int Argc, char **Argv, int (*Body)(Tool &));

  /// Parses the shared families plus \p Own. Returns the exit code when the
  /// run ends here (0 after --help, --version or --list-failpoints; 1 on a
  /// bad flag or a missing value); otherwise applies the environment
  /// defaults and arms the crash recorder.
  std::optional<int> parse(std::initializer_list<ToolFlag> Own);

  void printUsage() const { std::printf("%s%s", Usage.c_str(), CommonUsage); }

  /// Prints a failure's diagnostic on stderr (naming \p File when given)
  /// and returns 1, the tools' error exit.
  static int fail(const Status &St) { return fail(St.diagnostic()); }
  static int fail(Diagnostic D, const std::string &File = "");

  /// A budget stopped \p Stage early (\p Why says how). Without
  /// --keep-going: prints \p Why and the advice to rerun with it to
  /// \p KeepGoingDoes, and returns 1. With it: prints \p Why as a warning
  /// and returns nothing. The run report records the truncation.
  std::optional<int> truncatedBy(const Status &Why, const char *Stage,
                                 const char *KeepGoingDoes);

  /// Cache problems degrade to a normal build, but each gets a warning (a
  /// quarantined artifact means disk corruption or a foreign file).
  static void warnCacheDiagnostics(const Session &S);

  SessionOptions Build; ///< Cache, budgets and --keep-going.
  /// The run report's clean_exit; unset means "exit code 0" (spec-lint's
  /// exit 1 also means "violations found").
  std::optional<bool> CleanExit;

private:
  static const char *const CommonUsage;
  void emitObservability(int ExitCode) const;

  const char *Name;
  std::string Usage;
  std::vector<std::string> Args; ///< argv[1..] as invoked.
  bool Truncated = false;
  std::string TraceOut, MetricsOut, RunReportOut, LogOut;
  bool PrintStats = false;
};

} // namespace cable

#endif // CABLE_TOOL_TOOL_H
