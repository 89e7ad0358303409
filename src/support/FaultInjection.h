//===- support/FaultInjection.h - Deterministic fault points ---*- C++ -*-===//
///
/// \file
/// A seed-driven deterministic fault-point registry for exercising the
/// recoverable-error paths. Library code marks each recoverable failure
/// site with a *named point* and asks `FaultInjection::fire(Point)` whether
/// to inject a failure there; in normal operation every call is a single
/// relaxed atomic load and answers false.
///
/// Arming is explicit and process-wide, via the `RMD_FAULTS` environment
/// variable or the CLIs' `--faults=` flag. The spec is a comma-separated
/// list of triggers:
///
///   point          fire on every hit of `point`
///   point:N        fire on the Nth hit only (1-based)
///   point:N+       fire on the Nth and every later hit
///   point%P        fire on ~P percent of hits, chosen deterministically
///                  from the seed (same seed + same hit sequence => same
///                  injections, on every platform)
///   seed=S         the seed for %P triggers (default 0)
///   *              every registered point, every hit
///
/// e.g. RMD_FAULTS="cache.read,reduce.verify:2" or
///      RMD_FAULTS="seed=7,threadpool.task%25".
///
/// Points are registered statically below so tests can sweep every one of
/// them; configure() rejects unknown names, so a stale spec fails loudly
/// instead of silently testing nothing.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_SUPPORT_FAULTINJECTION_H
#define RMD_SUPPORT_FAULTINJECTION_H

#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rmd {

/// The registered fault points. Each constant is the canonical spelling
/// used in specs and in library call sites.
namespace faultpoints {
/// ReductionCache::load treats the entry as corrupt.
inline constexpr const char *CacheRead = "cache.read";
/// ReductionCache::store fails (entry dropped, best-effort contract).
inline constexpr const char *CacheWrite = "cache.write";
/// parseMdl reports an injected parse error.
inline constexpr const char *MdlParse = "mdl.parse";
/// A ThreadPool::parallelFor block throws; the pool must capture the
/// exception and rethrow it at the join point.
inline constexpr const char *ThreadPoolTask = "threadpool.task";
/// PipelineAutomaton::build behaves as if the state cap was exceeded.
inline constexpr const char *AutomatonCap = "automaton.cap";
/// reduceMachineChecked behaves as if re-verification found a mismatch.
inline constexpr const char *ReduceVerify = "reduce.verify";
/// The schedulers' deadline check behaves as if the deadline expired.
inline constexpr const char *SchedDeadline = "sched.deadline";
/// RmdServer's accept loop behaves as if accept() failed; the connection
/// attempt is dropped and the loop keeps serving.
inline constexpr const char *ServerAccept = "server.accept";
/// RmdServer's request admission behaves as if every execution slot and
/// waiting place was taken; the client receives a structured Overloaded
/// error.
inline constexpr const char *ServerEnqueue = "server.enqueue";
/// RmdServer's open-session path behaves as if session allocation failed;
/// the client receives a structured error and no session is registered.
inline constexpr const char *ServerSessionAlloc = "server.session_alloc";
} // namespace faultpoints

/// Process-wide fault-point registry; see the file comment for the spec
/// grammar. Thread-safe: fire() may be called concurrently with other
/// fire() calls (configure()/reset() must not race with fire()).
class FaultInjection {
public:
  /// The singleton registry.
  static FaultInjection &instance();

  /// Every registered point name, for sweeps and spec validation.
  static const std::vector<const char *> &registeredPoints();

  /// Parses and arms \p Spec (replacing any previous configuration).
  /// Returns ParseError naming the offending entry on a malformed spec or
  /// an unknown point.
  Status configure(std::string_view Spec);

  /// Disarms every point and zeroes all hit counters.
  void reset();

  /// True when the registry has any armed trigger.
  bool armed() const { return Armed.load(std::memory_order_relaxed); }

  /// Called by library code at fault point \p Point: counts the hit and
  /// returns true when a failure should be injected there. While disarmed
  /// this is one relaxed load (and hits are not counted). On the first
  /// call of the process, arms from the RMD_FAULTS environment variable
  /// (a malformed RMD_FAULTS aborts: a fault spec that silently tests
  /// nothing is worse than no spec).
  static bool fire(const char *Point);

  /// Total hits (injected or not) of \p Point since the last reset();
  /// hits are counted only while the registry is armed.
  uint64_t hits(const char *Point) const;

  /// Hits of \p Point that injected a failure since the last reset().
  uint64_t fired(const char *Point) const;

private:
  FaultInjection() = default;

  bool shouldFire(const char *Point);

  struct Trigger {
    enum Kind { Always, NthHit, FromNthHit, Percent } TheKind = Always;
    uint64_t N = 0;   ///< hit ordinal for NthHit / FromNthHit
    uint64_t Pct = 0; ///< 0..100 for Percent
  };

  struct PointState {
    bool HasTrigger = false;
    Trigger TheTrigger;
    uint64_t Hits = 0;
    uint64_t Fired = 0;
  };

  int pointIndex(std::string_view Name) const;

  std::atomic<bool> Armed{false};
  mutable std::mutex Mutex;
  uint64_t Seed = 0;
  std::vector<PointState> Points; ///< parallel to registeredPoints()
  std::once_flag EnvOnce;
};

} // namespace rmd

#endif // RMD_SUPPORT_FAULTINJECTION_H
