//===- bench/perf_gate.cpp - Perf-regression gate CLI ---------------------===//
//
// Replays the pinned mini-corpus (the seven catalog machines),
// measures reduction time and query throughput, and writes the
// "rmd-bench-v1" JSON document. Modes:
//
//   perf_gate [--out=FILE] [--repeats=N]
//     Measure and write the document (default: BENCH_pr7.json at the
//     repository root when built in-tree, else in the current directory;
//     --out=- for stdout).
//
//   perf_gate --check [--baseline=FILE] [--tolerance=PCT] ...
//     Additionally compare against the checked-in baseline
//     (bench/perf_baseline.json by default when built in-tree); exits 1 on
//     any metric regressing past the tolerance (default 25%).
//
//   perf_gate --write-baseline [--baseline=FILE] ...
//     Refresh the baseline from this machine's measurements, with headroom
//     applied (times scaled up, throughputs scaled down) so the gate trips
//     on real regressions, not run-to-run noise.
//
// Also honours --stats-json=<file> / RMD_STATS_JSON like every other
// binary (the corpus replay exercises the whole instrumented pipeline).
//
//===----------------------------------------------------------------------===//

#include "PerfGate.h"

#include "support/Stats.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

using namespace rmd;
using namespace rmd::bench;

#ifndef RMD_SOURCE_DIR
#define RMD_SOURCE_DIR ""
#endif

static void usage() {
  std::cerr << "usage: perf_gate [--check] [--write-baseline] "
               "[--baseline=FILE] [--out=FILE|-] [--repeats=N] "
               "[--tolerance=PCT] [--headroom=PCT] [--stats-json=FILE]\n";
}

int main(int Argc, char **Argv) {
  StatsJsonGuard StatsJson(Argc, Argv, "perf_gate");

  bool Check = false;
  bool WriteBaseline = false;
  std::string BaselinePath;
  std::string OutPath = std::string(RMD_SOURCE_DIR).empty()
                            ? "BENCH_pr7.json"
                            : std::string(RMD_SOURCE_DIR) + "/BENCH_pr7.json";
  int Repeats = 3;
  double Tolerance = 0.25;
  double Headroom = 0.50;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--check") {
      Check = true;
    } else if (Arg == "--write-baseline") {
      WriteBaseline = true;
    } else if (Arg.rfind("--baseline=", 0) == 0) {
      BaselinePath = Arg.substr(sizeof("--baseline=") - 1);
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Arg.substr(sizeof("--out=") - 1);
    } else if (Arg.rfind("--repeats=", 0) == 0) {
      Repeats = std::atoi(Arg.c_str() + sizeof("--repeats=") - 1);
      if (Repeats < 1) {
        std::cerr << "perf_gate: error: bad repeat count\n";
        return 2;
      }
    } else if (Arg.rfind("--tolerance=", 0) == 0) {
      Tolerance = std::atof(Arg.c_str() + sizeof("--tolerance=") - 1) / 100.0;
    } else if (Arg.rfind("--headroom=", 0) == 0) {
      Headroom = std::atof(Arg.c_str() + sizeof("--headroom=") - 1) / 100.0;
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "perf_gate: error: unknown argument '" << Arg << "'\n";
      usage();
      return 2;
    }
  }

  if (BaselinePath.empty())
    BaselinePath = std::string(RMD_SOURCE_DIR).empty()
                       ? "perf_baseline.json"
                       : std::string(RMD_SOURCE_DIR) +
                             "/bench/perf_baseline.json";

  std::vector<PerfEntry> Entries = measurePerfCorpus(Repeats);
  for (const PerfEntry &E : Entries)
    std::cerr << "perf_gate: " << E.Machine << ": reduce " << E.ReduceMs
              << " ms, discrete " << E.DiscreteMqps << " Mq/s, bitvector "
              << E.BitvectorMqps << " Mq/s\n";

  if (OutPath == "-") {
    writeBenchJson(std::cout, Entries, "perf_gate");
  } else {
    std::ofstream Out(OutPath, std::ios::trunc);
    if (!Out) {
      std::cerr << "perf_gate: error: cannot write '" << OutPath << "'\n";
      return 2;
    }
    writeBenchJson(Out, Entries, "perf_gate");
    std::cerr << "perf_gate: wrote " << OutPath << "\n";
  }

  if (WriteBaseline) {
    // Headroom absorbs machine-to-machine variance: the checked-in numbers
    // are deliberately worse than measured, so the gate's tolerance only
    // trips on (1 + headroom) * (1 + tolerance) real slowdowns.
    std::vector<PerfEntry> Padded = Entries;
    for (PerfEntry &E : Padded) {
      E.ReduceMs *= 1.0 + Headroom;
      E.DiscreteMqps /= 1.0 + Headroom;
      E.BitvectorMqps /= 1.0 + Headroom;
    }
    std::ofstream Out(BaselinePath, std::ios::trunc);
    if (!Out) {
      std::cerr << "perf_gate: error: cannot write '" << BaselinePath
                << "'\n";
      return 2;
    }
    writeBenchJson(Out, Padded, "perf_gate --write-baseline");
    std::cerr << "perf_gate: wrote baseline " << BaselinePath << "\n";
  }

  if (Check) {
    std::ifstream In(BaselinePath);
    std::vector<PerfEntry> Baseline;
    if (!In || !loadBenchJson(In, Baseline)) {
      std::cerr << "perf_gate: error: cannot load baseline '" << BaselinePath
                << "'\n";
      return 2;
    }
    std::vector<PerfRegression> Regressions =
        comparePerf(Baseline, Entries, Tolerance);
    for (const PerfRegression &R : Regressions)
      std::cerr << "perf_gate: REGRESSION: " << R.Machine << " " << R.Metric
                << ": baseline " << R.Baseline << ", current " << R.Current
                << "\n";
    if (!Regressions.empty())
      return 1;
    std::cerr << "perf_gate: OK, no regressions past "
              << (Tolerance * 100.0) << "%\n";
  }
  return 0;
}
