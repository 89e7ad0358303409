//===- support/Status.h - Recoverable-error result types -------*- C++ -*-===//
///
/// \file
/// The library's recoverable-error layer. Input-triggered failures — a bad
/// MDL feed, an infeasible recurrence, an automaton that blows its state
/// cap, a corrupt cache entry, a reduction that fails re-verification, a
/// deadline that expires — are reported as a Status (or an Expected<T>
/// carrying one) and threaded to the caller, never aborted on. fatalError()
/// remains only for true internal invariants (see the allowlist in
/// tests/fatal-allowlist.txt and docs/architecture.md's failure model).
///
/// The paper's Theorem 1 makes this layer unusually cheap to exploit:
/// because a *verified* reduced description preserves the forbidden latency
/// matrix exactly, every failure in the reduce/cache path has a provably
/// safe fallback — the original description — so most errors here feed a
/// degradation ladder (support/Degradation.h) rather than a hard stop.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_SUPPORT_STATUS_H
#define RMD_SUPPORT_STATUS_H

#include <cassert>
#include <string>
#include <utility>

namespace rmd {

/// Machine-readable classification of a recoverable failure.
enum class ErrorCode {
  Ok = 0,
  /// Malformed textual input (MDL, loop graph, fault spec, ...).
  ParseError,
  /// A zero-distance positive-delay dependence cycle: no II is feasible.
  InfeasibleRecurrence,
  /// Automaton construction exceeded its state cap (state explosion).
  StateCapExceeded,
  /// A reduced description failed forbidden-latency re-verification.
  VerificationFailed,
  /// Cache I/O failed or an entry was corrupt.
  CacheIO,
  /// A deadline expired before the operation completed.
  TimedOut,
  /// A cancellation token was triggered.
  Cancelled,
  /// A worker task failed; its exception was captured and rethrown at the
  /// join point (support/ThreadPool.h) and converted here.
  WorkerFailed,
  /// A workload role has no operation in the machine model.
  RoleUnresolved,
  /// A deterministically injected fault (support/FaultInjection.h).
  FaultInjected,
  /// A server rejected work because every execution slot was busy and its
  /// waiting room was full.
  /// Explicit backpressure: the client should retry later or shed load.
  Overloaded,
  /// A malformed, truncated, or version-mismatched wire frame, or a
  /// request referencing an unknown machine/session handle.
  ProtocolError,
};

/// Stable lowercase name of \p Code ("verification-failed", ...), for
/// diagnostics and logs.
const char *errorCodeName(ErrorCode Code);

/// An error code plus a human-readable message. Default-constructed and
/// Status::ok() mean success.
class Status {
public:
  Status() = default;
  Status(ErrorCode TheCode, std::string TheMessage)
      : Code(TheCode), Message(std::move(TheMessage)) {}

  static Status ok() { return Status(); }

  bool isOk() const { return Code == ErrorCode::Ok; }
  explicit operator bool() const { return isOk(); }

  ErrorCode code() const { return Code; }
  const std::string &message() const { return Message; }

  /// "<code-name>: <message>" (or "ok").
  std::string render() const;

private:
  ErrorCode Code = ErrorCode::Ok;
  std::string Message;
};

/// A value of type \p T or the Status explaining why there is none.
/// Minimal by design: the library's fallible entry points return
/// Expected<T>, callers test and either consume the value or thread /
/// degrade on the status.
template <typename T> class Expected {
public:
  Expected(T Value) : Val(std::move(Value)), Ok(true) {}
  Expected(Status TheStatus) : Err(std::move(TheStatus)), Ok(false) {
    assert(!Err.isOk() && "Expected built from a success Status");
  }

  bool hasValue() const { return Ok; }
  explicit operator bool() const { return Ok; }

  T &value() {
    assert(Ok && "value() on an errored Expected");
    return Val;
  }
  const T &value() const {
    assert(Ok && "value() on an errored Expected");
    return Val;
  }
  T take() {
    assert(Ok && "take() on an errored Expected");
    return std::move(Val);
  }

  /// The failure status; Status::ok() when a value is present.
  const Status &status() const { return Err; }

private:
  T Val{};
  Status Err;
  bool Ok;
};

} // namespace rmd

#endif // RMD_SUPPORT_STATUS_H
