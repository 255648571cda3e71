//===- support/Failpoint.cpp - Fault-injection points ----------------------===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Failpoint.h"

#include "support/CrashDump.h"
#include "support/Log.h"
#include "support/Metrics.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <cstdlib>
#include <map>

using namespace cable;

std::atomic<uint32_t> Failpoint::NumArmed{0};

namespace {

enum class FailMode { Error, Crash };

struct ArmedPoint {
  FailMode Mode = FailMode::Error;
  uint64_t TriggerAt = 1; ///< 1-based hit index that fires the fault.
  uint64_t Hits = 0;
  bool Fired = false; ///< error mode fires exactly once.
};

struct Registry {
  std::map<std::string, ArmedPoint, std::less<>> Armed;
  std::vector<std::string> Registered;
};

/// Meyers singleton: hit sites register from static initializers, so the
/// registry must be constructed on first use, not in link order.
Registry &registry() {
  static Registry R;
  return R;
}

} // namespace

Failpoint::Registrar::Registrar(const char *Name) {
  Registry &R = registry();
  R.Registered.emplace_back(Name);
}

std::vector<std::string> Failpoint::registeredNames() {
  Registry &R = registry();
  std::vector<std::string> Names = R.Registered;
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  return Names;
}

uint64_t Failpoint::hitCount(std::string_view Name) {
  Registry &R = registry();
  auto It = R.Armed.find(Name);
  return It == R.Armed.end() ? 0 : It->second.Hits;
}

void Failpoint::reset() {
  Registry &R = registry();
  R.Armed.clear();
  NumArmed.store(0, std::memory_order_relaxed);
}

Status Failpoint::configure(std::string_view Spec) {
  std::map<std::string, ArmedPoint, std::less<>> Armed;
  for (const std::string &Clause : splitString(Spec, ',')) {
    std::string_view Text = trimString(Clause);
    if (Text.empty())
      continue;
    size_t Eq = Text.find('=');
    if (Eq == std::string_view::npos || Eq == 0)
      return Status::error(ErrorCode::InvalidArgument,
                           "bad failpoint clause '" + std::string(Text) +
                               "' (expected name=error|crash[@N])");
    std::string Name(Text.substr(0, Eq));
    std::string_view ModeText = Text.substr(Eq + 1);
    ArmedPoint P;
    if (size_t At = ModeText.find('@'); At != std::string_view::npos) {
      std::optional<unsigned long> N =
          parseUnsignedLong(ModeText.substr(At + 1));
      if (!N || *N == 0)
        return Status::error(ErrorCode::InvalidArgument,
                             "bad failpoint trigger index in '" +
                                 std::string(Text) + "' (expected @N, N >= 1)");
      P.TriggerAt = *N;
      ModeText = ModeText.substr(0, At);
    }
    if (ModeText == "error")
      P.Mode = FailMode::Error;
    else if (ModeText == "crash")
      P.Mode = FailMode::Crash;
    else
      return Status::error(ErrorCode::InvalidArgument,
                           "bad failpoint mode '" + std::string(ModeText) +
                               "' in '" + std::string(Text) +
                               "' (expected error or crash)");
    Armed.insert_or_assign(std::move(Name), P);
  }

  Registry &R = registry();
  R.Armed = std::move(Armed);
  NumArmed.store(static_cast<uint32_t>(R.Armed.size()),
                 std::memory_order_relaxed);
  return Status::ok();
}

Status Failpoint::configureFromEnv() {
  const char *Spec = std::getenv("CABLE_FAILPOINTS");
  if (!Spec || !*Spec)
    return Status::ok();
  return configure(Spec);
}

Status Failpoint::hitSlow(const char *Name) {
  Registry &R = registry();
  auto It = R.Armed.find(std::string_view(Name));
  if (It == R.Armed.end())
    return Status::ok();
  ArmedPoint &P = It->second;
  ++P.Hits;
  Metrics::counter("failpoint.hits").add();
  if (P.Hits != P.TriggerAt || P.Fired)
    return Status::ok();
  const char *ModeName = P.Mode == FailMode::Crash ? "crash" : "error";
  CABLE_LOG_WARN("failpoint", "failpoint-hit", "armed failpoint triggered",
                 {Log::str("name", Name), Log::str("mode", ModeName),
                  Log::num("hit", static_cast<int64_t>(P.Hits))});
  if (P.Mode == FailMode::Crash) {
    // Simulate abrupt process death: no stdio flush, no destructors, no
    // atexit — buffered-but-unsynced state must not survive. The flight
    // recorder is the one component allowed to see this coming: the dump
    // (when installed) is what the kill matrix reads post-mortem.
    CABLE_LOG_ERROR("failpoint", "failpoint-crash",
                    "failpoint killing the process",
                    {Log::str("name", Name)});
    CrashDump::dumpNow("failpoint-crash");
    std::_Exit(kCrashExitCode);
  }
  P.Fired = true;
  return Status::error(ErrorCode::IoError,
                       "failpoint '" + std::string(Name) +
                           "' injected an error (hit " +
                           std::to_string(P.Hits) + ")");
}
