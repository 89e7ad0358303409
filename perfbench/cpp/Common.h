//===- perfbench/cpp/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
///
/// \file
/// Clocks, order statistics, host calibration, the run options every
/// workload receives and the report it fills. A workload records metrics
/// by name; perfbench/run.py picks the ones BENCHMARK.json lists for the
/// run (the end-to-end set when untraced, the per-layer set when traced).
///
//===----------------------------------------------------------------------===//

#ifndef RMDBENCH_COMMON_H
#define RMDBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rmdbench {

class TraceRecorder;

using Clock = std::chrono::steady_clock;

/// Seconds since \p Start on the steady clock.
double secondsSince(Clock::time_point Start);

/// Milliseconds between two steady-clock points.
double msBetween(Clock::time_point A, Clock::time_point B);

/// CPU time of the calling thread, in seconds.
double threadCpuSeconds();

/// CPU time (user + system) of process \p Pid, in seconds, read from
/// /proc/<pid>/stat; negative if it cannot be read.
double processCpuSeconds(int Pid);

/// Median of \p Values (0 for an empty set).
double median(std::vector<double> Values);

/// The \p Q quantile (0..1) of \p Values by linear interpolation between
/// order statistics (0 for an empty set).
double quantile(std::vector<double> Values, double Q);

/// Reads a whole file; throws std::runtime_error if it cannot.
std::string readFile(const std::string &Path);

/// Times one run of the benchmark's calibration suite, in ms: fixed
/// CPU-bound kernels that share no code with the library.
double calibrationMs();

/// The calibration time that defines the reference host. End-to-end
/// times are reported as measured times scaled by reference / measured
/// calibration time of the same run ("host-normalized"), so that a host
/// that runs everything 30% slower for a minute does not read as a
/// regression; raw values are printed beside them.
constexpr double kReferenceCalibrationMs = 10.0;

/// splitmix64: the benchmark's own seed expansion, identical everywhere.
uint64_t splitmix64(uint64_t &State);

/// Everything the command line decides.
struct RunOptions {
  std::string Workload;
  uint64_t Seed = 4903;
  /// ims-corpus only: the buildCorpus seed (0x1327, CorpusParams' own).
  uint64_t CorpusSeed = 4903;
  double Seconds = 10;
  bool Traced = false;
  /// Directory holding the machines/*.mdl texts.
  std::string MachinesDir = "machines";
  /// The daemon binary the server workload spawns.
  std::string ServerBinary;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string TraceJsonPath;
  /// Busy-wait added to every check call of the IMS query modules (the
  /// sensitivity self-test's injected regression); 0 = none.
  uint64_t CheckDelayNs = 0;
  /// Provenance passed in by the launcher (the build tree knows neither).
  std::string Commit = "unknown";
  std::string SourceDigest = "unknown";
};

/// What a workload run produced.
struct Report {
  struct Metric {
    double Value = 0;
    std::string Unit;
  };
  /// Every metric the workload measured, by its BENCHMARK.json name.
  std::map<std::string, Metric> Metrics;
  /// Human-readable "name = value unit" lines, printed before the result.
  std::vector<std::string> Lines;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Number of timed passes (reported in the run metadata).
  uint64_t Passes = 0;
  /// Correctness-check failures; any entry makes the run exit non-zero.
  std::vector<std::string> Errors;
  /// Calibration-suite times taken during the run.
  std::vector<double> CalibrationMs;

  void set(const std::string &Name, double Value, const std::string &Unit) {
    Metrics[Name] = Metric{Value, Unit};
  }
  /// Records a human-readable line for \p Name (and nothing else).
  void line(const std::string &Name, double Value, const std::string &Unit,
            const std::string &Note = "");
  void error(const std::string &What) { Errors.push_back(What); }
  /// Times the calibration suite once more.
  void calibrate();
  /// Reference / median measured calibration time: multiply a measured
  /// time by it (divide a rate) to get the host-normalized value.
  double hostFactor() const;
  /// Records the end-to-end metrics, host-normalized: the set-up time,
  /// the wall and CPU time of the workload's unit of work, and the work
  /// done per CPU-second. Adds a line with the host factor.
  void endToEnd(double SetUpS, double UnitMs, double UnitCpuMs,
                double WorkPerCpuS);
  /// error() when \p Got differs from \p Want.
  void expectEq(const std::string &What, uint64_t Got, uint64_t Want);
};

/// The workloads. Each fills \p Out; \p Trace is null in untraced runs.
void runReduceCorpus(const RunOptions &Opts, Report &Out,
                     TraceRecorder *Trace);
void runImsCorpus(const RunOptions &Opts, Report &Out, TraceRecorder *Trace);
void runServerBatch(const RunOptions &Opts, Report &Out,
                    TraceRecorder *Trace);

/// Runs \p SetUp \p Times times and returns the median wall time in
/// seconds; the state of the last call is what the workload then uses.
template <typename Fn> double timedSetUps(int Times, Fn &&SetUp) {
  std::vector<double> Seconds;
  for (int I = 0; I < Times; ++I) {
    Clock::time_point Start = Clock::now();
    SetUp();
    Seconds.push_back(secondsSince(Start));
  }
  return median(Seconds);
}

} // namespace rmdbench

#endif // RMDBENCH_COMMON_H
