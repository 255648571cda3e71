//===- support/RunReport.h - Self-describing run artifacts ------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Writers for the two self-describing JSON artifacts a tool run can
/// leave behind (docs/FORMATS.md, docs/OBSERVABILITY.md):
///
///  - `--metrics-out FILE`: schema "cable-metrics/1" — the build stamp
///    plus the full Metrics snapshot.
///  - `--run-report FILE`: schema "cable-run-report/1" — tool name,
///    version, git SHA, the exact argv the tool was invoked with,
///    truncation/interruption flags, and the metrics snapshot, so a run
///    is reproducible and auditable from the one file.
///
/// Both are written atomically (support/AtomicFile.h).
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_RUNREPORT_H
#define CABLE_SUPPORT_RUNREPORT_H

#include "support/Status.h"

#include <string>
#include <string_view>
#include <vector>

namespace cable {

/// Renders the "cable-metrics/1" document (build stamp + metrics
/// snapshot) as a string.
std::string renderMetricsJson(std::string_view Tool);

/// renderMetricsJson written atomically to \p Path.
Status writeMetricsJson(const std::string &Path, std::string_view Tool);

/// Everything a run report carries besides the metrics snapshot.
struct RunReportInfo {
  std::string Tool;
  std::vector<std::string> Args;  ///< argv[1..] as invoked.
  bool Truncated = false;         ///< Budget tripped / output clipped.
  bool CleanExit = true;          ///< False when exiting on error.
  int ExitCode = 0;
};

/// Renders the "cable-run-report/1" document as a string.
std::string renderRunReport(const RunReportInfo &Info);

/// renderRunReport written atomically to \p Path.
Status writeRunReport(const std::string &Path, const RunReportInfo &Info);

} // namespace cable

#endif // CABLE_SUPPORT_RUNREPORT_H
