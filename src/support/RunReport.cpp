//===- support/RunReport.cpp - Self-describing run artifacts ---------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/RunReport.h"

#include "support/AtomicFile.h"
#include "support/BuildInfo.h"
#include "support/Json.h"
#include "support/Metrics.h"

using namespace cable;

namespace {

void emitBuildStamp(JsonWriter &W) {
  W.member("version", std::string_view(buildinfo::kVersion));
  W.member("git_sha", std::string_view(buildinfo::kGitSha));
  W.member("build_type", std::string_view(buildinfo::kBuildType));
  W.member("sanitize", std::string_view(buildinfo::kSanitize));
  W.member("instrumented", buildinfo::kInstrumented);
}

/// Emits the `cache` summary object when this run consulted the lattice
/// artifact store: hit/miss/store tallies, verification failures with
/// their quarantines, and lock-contention totals. Runs without a cache
/// directory get no section at all.
void emitCacheSection(JsonWriter &W) {
  uint64_t Hits = Metrics::counterValue("cache.hits");
  uint64_t Misses = Metrics::counterValue("cache.misses");
  if (Hits == 0 && Misses == 0)
    return;
  W.key("cache");
  W.beginObject();
  W.member("hits", Hits);
  W.member("misses", Misses);
  W.member("stores", Metrics::counterValue("cache.stores"));
  W.member("verify_failed", Metrics::counterValue("cache.verify-failed"));
  W.member("quarantined", Metrics::counterValue("cache.quarantined"));
  W.member("lock_waits", Metrics::counterValue("cache.lock-waits"));
  W.member("lock_wait_ms", Metrics::counterValue("cache.lock-wait-ms"));
  W.member("lock_timeouts", Metrics::counterValue("cache.lock-timeouts"));
  W.endObject();
}

} // namespace

std::string cable::renderMetricsJson(std::string_view Tool) {
  JsonWriter W;
  W.beginObject();
  W.member("schema", std::string_view("cable-metrics/1"));
  W.member("tool", Tool);
  emitBuildStamp(W);
  emitCacheSection(W);
  W.key("metrics");
  W.rawValue(Metrics::snapshotJson());
  W.endObject();
  return W.take();
}

Status cable::writeMetricsJson(const std::string &Path,
                               std::string_view Tool) {
  return AtomicFile::write(Path, renderMetricsJson(Tool));
}

std::string cable::renderRunReport(const RunReportInfo &Info) {
  JsonWriter W;
  W.beginObject();
  W.member("schema", std::string_view("cable-run-report/1"));
  W.member("tool", std::string_view(Info.Tool));
  emitBuildStamp(W);
  W.key("args");
  W.beginArray();
  for (const std::string &A : Info.Args)
    W.value(std::string_view(A));
  W.endArray();
  W.member("truncated", Info.Truncated);
  W.member("clean_exit", Info.CleanExit);
  W.member("exit_code", static_cast<int64_t>(Info.ExitCode));
  emitCacheSection(W);
  W.key("metrics");
  W.rawValue(Metrics::snapshotJson());
  W.endObject();
  return W.take();
}

Status cable::writeRunReport(const std::string &Path,
                             const RunReportInfo &Info) {
  return AtomicFile::write(Path, renderRunReport(Info));
}
