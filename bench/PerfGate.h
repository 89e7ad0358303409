//===- bench/PerfGate.h - Pinned-corpus perf measurements ------*- C++ -*-===//
///
/// \file
/// The perf-regression gate's measurement and comparison layer: replays a
/// pinned mini-corpus (the seven catalog machines), measures
/// reduction time and query throughput per machine, serializes the result
/// as the versioned "rmd-bench-v1" JSON document (docs/observability.md),
/// and compares a fresh measurement against a checked-in baseline with a
/// tolerance band.
///
/// Shared between the `perf_gate` CLI (writes BENCH_*.json, refreshes the
/// baseline) and `PerfGateTest` (ctest `perf` label: fails the build when
/// throughput regresses past the tolerance).
///
//===----------------------------------------------------------------------===//

#ifndef RMD_BENCH_PERFGATE_H
#define RMD_BENCH_PERFGATE_H

#include <iosfwd>
#include <string>
#include <vector>

namespace rmd {
namespace bench {

/// One machine's measurements. Throughputs are millions of queries per
/// second over the pinned 4096-event query mix; reduce time is the full
/// checked pipeline (verify on) at one thread.
struct PerfEntry {
  std::string Machine;
  double ReduceMs = 0.0;
  double DiscreteMqps = 0.0;
  double BitvectorMqps = 0.0;
};

/// Measures every catalog machine (machineNames(), in report order),
/// taking the min of \p Repeats runs per metric (min-of-N is the standard
/// noise filter for wall-clock gates).
std::vector<PerfEntry> measurePerfCorpus(int Repeats);

/// Writes entries as the "rmd-bench-v1" JSON document.
void writeBenchJson(std::ostream &OS, const std::vector<PerfEntry> &Entries,
                    const std::string &Tool);

/// Parses a document written by writeBenchJson(). Returns false (and
/// leaves \p Entries empty) on malformed input; tolerant only of the
/// writer's own formatting.
bool loadBenchJson(std::istream &IS, std::vector<PerfEntry> &Entries);

/// One baseline-vs-current comparison verdict.
struct PerfRegression {
  std::string Machine;
  std::string Metric;
  double Baseline = 0.0;
  double Current = 0.0;
};

/// Compares \p Current against \p Baseline: a regression is a reduce time
/// above baseline * (1 + Tolerance) or a throughput below
/// baseline / (1 + Tolerance). Machines missing from either side are
/// ignored (the corpus may grow). Returns the offending metrics.
std::vector<PerfRegression>
comparePerf(const std::vector<PerfEntry> &Baseline,
            const std::vector<PerfEntry> &Current, double Tolerance);

} // namespace bench
} // namespace rmd

#endif // RMD_BENCH_PERFGATE_H
