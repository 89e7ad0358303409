//===- perfbench/cpp/main.cpp - rmdbench entry point ----------------------===//
//
// rmdbench --workload <reduce-corpus|ims-corpus|server-batch> [--seed N]
//          [--corpus-seed N] [--seconds S] [--trace 0|1] [--machines-dir DIR]
//          [--server-binary PATH] [--trace-json FILE] [--check-delay-ns N]
//          [--commit SHA] [--source-digest HEX]
//
// Prints human-readable metric lines, one "meta" line with the run
// metadata, and as its last line a JSON object with every metric the run
// measured. perfbench/run.py builds this binary and selects the metrics
// BENCHMARK.json names from that line. Exits 1 when a correctness check
// fails, 2 on bad usage or a set-up error.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "query/SimdOps.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

using namespace rmdbench;

namespace {

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos && Colon + 2 <= Line.size())
        return Line.substr(Colon + 2);
    }
  return "unknown";
}

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string metaJson(const RunOptions &Opts, const Report &R) {
  return std::string("{") + "\"workload\": \"" + jsonEscape(Opts.Workload) +
         "\", \"commit\": \"" + jsonEscape(Opts.Commit) +
         "\", \"source_digest\": \"" + jsonEscape(Opts.SourceDigest) +
         "\", \"build_type\": \"" RMDBENCH_BUILD_TYPE
         "\", \"compiler\": \"" RMDBENCH_COMPILER "\", \"simd_tier\": \"" +
         rmd::simd::tierName(rmd::simd::activeTier()) +
         "\", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu_model\": \"" + jsonEscape(cpuModel()) +
         "\", \"seed\": " + std::to_string(Opts.Seed) +
         ", \"seconds\": " + num(Opts.Seconds) +
         ", \"passes\": " + std::to_string(R.Passes) +
         ", \"traced\": " + (Opts.Traced ? "true" : "false") +
         ", \"check_delay_ns\": " + std::to_string(Opts.CheckDelayNs) + "}";
}

int usage(const char *Why) {
  std::cerr << "rmdbench: " << Why
            << "\nusage: rmdbench --workload <reduce-corpus|ims-corpus|"
               "server-batch> [--seed N] [--corpus-seed N] [--seconds S] "
               "[--trace 0|1] "
               "[--machines-dir DIR] [--server-binary PATH] "
               "[--trace-json FILE] [--check-delay-ns N] [--commit SHA] "
               "[--source-digest HEX]\n";
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + Flag).c_str());
    std::string Value = Argv[++I];
    try {
      if (Flag == "--workload")
        Opts.Workload = Value;
      else if (Flag == "--seed")
        Opts.Seed = std::stoull(Value);
      else if (Flag == "--corpus-seed")
        Opts.CorpusSeed = std::stoull(Value);
      else if (Flag == "--seconds")
        Opts.Seconds = std::stod(Value);
      else if (Flag == "--trace")
        Opts.Traced = Value != "0";
      else if (Flag == "--machines-dir")
        Opts.MachinesDir = Value;
      else if (Flag == "--server-binary")
        Opts.ServerBinary = Value;
      else if (Flag == "--trace-json")
        Opts.TraceJsonPath = Value;
      else if (Flag == "--check-delay-ns")
        Opts.CheckDelayNs = std::stoull(Value);
      else if (Flag == "--commit")
        Opts.Commit = Value;
      else if (Flag == "--source-digest")
        Opts.SourceDigest = Value;
      else
        return usage(("unknown flag " + Flag).c_str());
    } catch (const std::exception &) {
      return usage(("bad value for " + Flag).c_str());
    }
  }
  if (!(Opts.Seconds > 0))
    return usage("--seconds must be positive");

  void (*Run)(const RunOptions &, Report &, TraceRecorder *) = nullptr;
  if (Opts.Workload == "reduce-corpus")
    Run = runReduceCorpus;
  else if (Opts.Workload == "ims-corpus")
    Run = runImsCorpus;
  else if (Opts.Workload == "server-batch")
    Run = runServerBatch;
  else
    return usage("unknown workload");

  std::unique_ptr<TraceRecorder> Trace;
  if (Opts.Traced)
    Trace = std::make_unique<TraceRecorder>();
  Report R;
  try {
    Run(Opts, R, Trace.get());
  } catch (const std::exception &E) {
    std::cerr << "rmdbench: " << Opts.Workload << ": " << E.what() << "\n";
    return 2;
  }

  for (const std::string &Line : R.Lines)
    std::cout << Line << "\n";
  for (const std::string &E : R.Errors)
    std::cout << "CHECK FAILED: " << E << "\n";
  std::string Meta = metaJson(Opts, R);
  if (Trace && !Opts.TraceJsonPath.empty() &&
      !Trace->write(Opts.TraceJsonPath, Meta))
    R.error("cannot write " + Opts.TraceJsonPath);
  std::cout << "meta " << Meta << "\n";

  std::string Metrics;
  for (const auto &[Name, M] : R.Metrics)
    Metrics += (Metrics.empty() ? "" : ", ") + std::string("\"") + Name +
               "\": {\"value\": " + num(M.Value) + ", \"unit\": \"" + M.Unit +
               "\"}";
  bool Correct = R.Errors.empty();
  std::cout << "{\"correct\": " << (Correct ? "true" : "false")
            << ", \"attempted\": " << R.Attempted
            << ", \"failed\": " << R.Failed << ", \"metrics\": {" << Metrics
            << "}}" << std::endl;
  return Correct ? 0 : 1;
}
