//===- perfbench/cpp/QueryProbe.h - Timing query-module wrapper -*- C++ -*-===//
///
/// \file
/// A ContentionQueryModule that forwards every call to a module built by
/// the library's own factory and, around it, optionally times the call
/// and optionally busy-waits before each check (the sensitivity
/// self-test's calibrated regression). Counters mirror the inner module's,
/// so the scheduler's accounting is unchanged by the wrapper.
///
//===----------------------------------------------------------------------===//

#ifndef RMDBENCH_QUERYPROBE_H
#define RMDBENCH_QUERYPROBE_H

#include "Common.h"

#include "query/QueryModule.h"

#include <functional>
#include <memory>
#include <string>

namespace rmdbench {

/// Aggregates of every module one factory built.
struct QueryProbe {
  /// Time each call and construction (one clock read before and after).
  bool Timed = false;
  /// When set, each construction also becomes a span.
  TraceRecorder *Trace = nullptr;
  std::string Label;
  uint64_t CheckDelayNs = 0;

  uint64_t CheckCalls = 0, AssignCalls = 0, FreeCalls = 0,
           AssignFreeCalls = 0;
  double CheckNs = 0, AssignNs = 0, FreeNs = 0, AssignFreeNs = 0;
  uint64_t WorkUnits = 0;
  uint64_t Builds = 0;
  double BuildMs = 0;

  /// Filled by the workload: time inside the calls that drive the modules
  /// (moduloSchedule or the replay loop), their pass wall time, passes.
  double ImsMs = 0;
  double PassWallMs = 0;
  uint64_t Passes = 0;

  uint64_t calls() const {
    return CheckCalls + AssignCalls + FreeCalls + AssignFreeCalls;
  }
  double queryMs() const {
    return (CheckNs + AssignNs + FreeNs + AssignFreeNs) / 1e6;
  }
  /// Records <Prefix>{check,assign,assign_free,free}_ns (mean per call)
  /// and <Prefix>{calls,work_units} (per pass).
  void publish(Report &Out, const std::string &Prefix) const;
  /// Counts and total times so far, as span arguments.
  std::string argsJson() const;
};

/// Wraps \p Inner so every module it builds reports into \p Probe, which
/// must outlive every module built.
std::function<std::unique_ptr<rmd::ContentionQueryModule>(rmd::QueryConfig)>
probedFactory(
    std::function<std::unique_ptr<rmd::ContentionQueryModule>(rmd::QueryConfig)>
        Inner,
    QueryProbe &Probe);

/// Wraps the already built \p Inner (the server replay's single module).
std::unique_ptr<rmd::ContentionQueryModule>
probeModule(std::unique_ptr<rmd::ContentionQueryModule> Inner,
            QueryProbe &Probe);

} // namespace rmdbench

#endif // RMDBENCH_QUERYPROBE_H
