//===- tests/PerfGateTest.cpp - Perf-regression gate ----------------------===//
//
// The `perf` ctest label: replays the pinned mini-corpus, writes a
// BENCH_pr7.json document under the build tree, and fails when query
// throughput or reduction time regresses past the tolerance against the
// checked-in baseline (bench/perf_baseline.json). The baseline carries
// headroom (see perf_gate --write-baseline), so a failure here means a
// real slowdown, not scheduler noise.
//
// Wall-clock assertions are skipped under sanitizers (they change the
// constant factors by an order of magnitude); the structural assertions
// still run. Registered RUN_SERIAL so parallel ctest neighbours don't
// steal cycles from the measurement.
//
//===----------------------------------------------------------------------===//

#include "PerfGate.h"

#include "machines/Catalog.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace rmd;
using namespace rmd::bench;

#ifndef RMD_SOURCE_DIR
#define RMD_SOURCE_DIR "."
#endif

namespace {

bool underSanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

const std::vector<PerfEntry> &measuredOnce() {
  static std::vector<PerfEntry> Entries = measurePerfCorpus(/*Repeats=*/3);
  return Entries;
}

} // namespace

TEST(PerfGate, CorpusCoverageAndSanity) {
  const std::vector<PerfEntry> &Entries = measuredOnce();
  ASSERT_EQ(Entries.size(), machineNames().size());
  ASSERT_EQ(Entries.size(), 7u);
  for (size_t I = 0; I < Entries.size(); ++I) {
    EXPECT_EQ(Entries[I].Machine, machineNames()[I]);
    EXPECT_GT(Entries[I].ReduceMs, 0.0) << Entries[I].Machine;
    EXPECT_GT(Entries[I].DiscreteMqps, 0.0) << Entries[I].Machine;
    EXPECT_GT(Entries[I].BitvectorMqps, 0.0) << Entries[I].Machine;
  }
}

TEST(PerfGate, JsonRoundTrip) {
  const std::vector<PerfEntry> &Entries = measuredOnce();
  std::stringstream SS;
  writeBenchJson(SS, Entries, "PerfGateTest");
  EXPECT_NE(SS.str().find("\"schema\": \"rmd-bench-v1\""),
            std::string::npos);

  std::vector<PerfEntry> Back;
  ASSERT_TRUE(loadBenchJson(SS, Back));
  ASSERT_EQ(Back.size(), Entries.size());
  for (size_t I = 0; I < Entries.size(); ++I) {
    EXPECT_EQ(Back[I].Machine, Entries[I].Machine);
    EXPECT_NEAR(Back[I].ReduceMs, Entries[I].ReduceMs, 1e-5);
    EXPECT_NEAR(Back[I].DiscreteMqps, Entries[I].DiscreteMqps, 1e-5);
    EXPECT_NEAR(Back[I].BitvectorMqps, Entries[I].BitvectorMqps, 1e-5);
  }
}

TEST(PerfGate, ComparePerfFlagsRegressions) {
  std::vector<PerfEntry> Baseline = {{"m", 10.0, 50.0, 80.0}};
  // Within tolerance: no report.
  EXPECT_TRUE(comparePerf(Baseline, {{"m", 12.0, 45.0, 70.0}}, 0.25).empty());
  // Each metric past the band trips individually.
  auto R = comparePerf(Baseline, {{"m", 13.0, 50.0, 80.0}}, 0.25);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Metric, "reduce_ms");
  R = comparePerf(Baseline, {{"m", 10.0, 39.0, 80.0}}, 0.25);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Metric, "query_mqps_discrete");
  R = comparePerf(Baseline, {{"m", 10.0, 50.0, 63.0}}, 0.25);
  ASSERT_EQ(R.size(), 1u);
  EXPECT_EQ(R[0].Metric, "query_mqps_bitvector");
  // Machines missing from the current run are ignored (corpus growth).
  EXPECT_TRUE(comparePerf(Baseline, {{"other", 1.0, 1.0, 1.0}}, 0.25).empty());
}

TEST(PerfGate, WritesBenchDocumentUnderBuildDir) {
  // Under the build tree: a test run leaves the checked-in BENCH files
  // alone.
  const std::vector<PerfEntry> &Entries = measuredOnce();
  std::string Path = std::string(RMD_BINARY_DIR) + "/BENCH_pr7.json";
  {
    std::ofstream Out(Path, std::ios::trunc);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    writeBenchJson(Out, Entries, "PerfGateTest");
  }
  std::ifstream In(Path);
  std::vector<PerfEntry> Back;
  ASSERT_TRUE(loadBenchJson(In, Back));
  EXPECT_EQ(Back.size(), 7u);
}

TEST(PerfGate, NoRegressionAgainstBaseline) {
  if (underSanitizer())
    GTEST_SKIP() << "wall-clock gate is meaningless under sanitizers";
  std::string Path =
      std::string(RMD_SOURCE_DIR) + "/bench/perf_baseline.json";
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing baseline " << Path
                         << " (regenerate with perf_gate --write-baseline)";
  std::vector<PerfEntry> Baseline;
  ASSERT_TRUE(loadBenchJson(In, Baseline));
  EXPECT_EQ(Baseline.size(), 7u);

  std::vector<PerfRegression> Regressions =
      comparePerf(Baseline, measuredOnce(), /*Tolerance=*/0.25);
  for (const PerfRegression &R : Regressions)
    ADD_FAILURE() << R.Machine << " " << R.Metric << " regressed: baseline "
                  << R.Baseline << ", current " << R.Current;
}
