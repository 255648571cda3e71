//===- support/Failpoint.h - Fault-injection points -------------*- C++ -*-===//
//
// Part of the Cable reproduction of "Debugging Temporal Specifications with
// Concept Analysis" (PLDI 2003). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A failpoint is a named hook compiled into an I/O or dispatch path where
/// the crash-recovery suite can inject a fault. Production cost is one
/// relaxed atomic load per hit: when no failpoint is armed, hit() never
/// touches the registry.
///
/// Arming happens through the environment:
///
///   CABLE_FAILPOINTS=journal-append=crash@7,file-read=error
///
/// Each clause is `name=mode[@N]` (N >= 1, default 1). The Nth time the
/// named failpoint is hit,
///
///  - `error` makes that hit return an io-error Status, once; the caller
///    propagates it like a real syscall failure;
///  - `crash` terminates the process immediately with std::_Exit(86) —
///    no stdio flush, no destructors — simulating power loss / SIGKILL
///    (kCrashExitCode, so harnesses can tell an injected crash from a
///    genuine one).
///
/// Hit sites self-register via Failpoint::Registrar globals so harnesses
/// can enumerate every instrumented point (`cable-cli --list-failpoints`)
/// without grepping the source.
///
/// The registry takes no lock: like Log and TraceLog, failpoints are
/// configured and hit on the one thread that runs a Cable process.
///
//===----------------------------------------------------------------------===//

#ifndef CABLE_SUPPORT_FAILPOINT_H
#define CABLE_SUPPORT_FAILPOINT_H

#include "support/Status.h"

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

namespace cable {

class Failpoint {
public:
  /// Exit code of a `crash`-mode termination.
  static constexpr int kCrashExitCode = 86;

  /// The fault check. Call at the top of an instrumented operation; on an
  /// ok Status proceed, otherwise propagate the injected failure. With no
  /// failpoint armed this is a single relaxed atomic load.
  static Status hit(const char *Name) {
    if (NumArmed.load(std::memory_order_relaxed) == 0)
      return Status::ok();
    return hitSlow(Name);
  }

  /// True when any failpoint is armed (the hit() fast-path predicate).
  static bool anyArmed() {
    return NumArmed.load(std::memory_order_relaxed) != 0;
  }

  /// Arms failpoints from a spec string (see file comment). Replaces the
  /// current configuration. Unknown names are accepted — registration
  /// happens at static-init time in whatever binary links the hit site,
  /// and a spec may name a point the current binary never reaches.
  /// Returns invalid-argument on a malformed clause.
  static Status configure(std::string_view Spec);

  /// configure(getenv("CABLE_FAILPOINTS")), a no-op when unset. Returns
  /// the configure() status.
  static Status configureFromEnv();

  /// Disarms everything and clears hit counters (test isolation).
  static void reset();

  /// Names of every failpoint compiled into this binary, sorted.
  static std::vector<std::string> registeredNames();

  /// Times the named failpoint has been hit while armed (testing).
  static uint64_t hitCount(std::string_view Name);

  /// Registers a failpoint name at static-init time:
  ///   static Failpoint::Registrar Reg("journal-append");
  class Registrar {
  public:
    explicit Registrar(const char *Name);
  };

private:
  static Status hitSlow(const char *Name);

  static std::atomic<uint32_t> NumArmed;
};

} // namespace cable

#endif // CABLE_SUPPORT_FAILPOINT_H
