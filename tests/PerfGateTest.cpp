//===- tests/PerfGateTest.cpp - Query-speed ratio gate --------------------===//
//
// The `perf` ctest label. The paper's §6 headline is that a reduced
// description answers contention queries faster than the original. For
// each catalog machine this gate replays one pinned event mix through the
// discrete module on the original flat description (D_orig) and through
// the bitvector module on the reduced one (B_red), in interleaved rounds
// that alternate which side goes first, and fails when the median of the
// per-round D_orig/B_red time ratios falls below the machine's floor. Both
// sides run in one process on one host, so the ratio holds where absolute
// throughput pinned on another host does not; a slowdown that hits both
// sides alike is perfbench's to catch, not this gate's.
//
// Wall-clock asserts are skipped under sanitizers; RUN_SERIAL keeps
// parallel ctest neighbours off the cores during the measurement.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

using namespace rmd;

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

// Rounds is odd so the median is one round's ratio. With 9 rounds about
// 1 run in 100 fell below 0.78 of a machine's median; with 21 none of 400
// fell below 0.85 of it. Inner passes lift a small machine's replay well
// above the clock's granularity.
constexpr int Rounds = 21;
constexpr int InnerPasses = 4;

// About 0.75 of each machine's median ratio over 200 unchanged runs, in
// none of which a machine fell below 0.85 of its median (EXPERIMENTS.md,
// "Tier-1 query-speed gate"). Catalog order.
constexpr std::pair<const char *, double> Floors[] = {
    {"fig1", 1.30},       {"cydra5", 2.55},   {"alpha21064", 2.05},
    {"mips-r3000", 1.40}, {"toy-vliw", 1.45}, {"playdoh", 1.70},
    {"m88100", 1.00}};

using Event = std::pair<OpId, int>;

struct MachineRun {
  std::string Machine;
  std::vector<double> OrigMs, RedMs; // one entry per round
  size_t OrigAssigned = 0, RedAssigned = 0;
};

/// Times the pinned mix, InnerPasses times: check-then-assign each event,
/// freeing the oldest 32 instances whenever 64 are live. Appends the time
/// to \p Ms and stores the number of successful checks in \p Assigned.
template <typename ModuleT>
void timeRound(ModuleT &Module, const std::vector<Event> &Events,
               std::vector<double> &Ms, size_t &Assigned) {
  auto Start = std::chrono::steady_clock::now();
  size_t Checked = 0;
  for (int Pass = 0; Pass < InnerPasses; ++Pass) {
    InstanceId Next = 0;
    std::vector<Event> Live;
    for (auto [Op, Cycle] : Events) {
      if (Module.check(Op, Cycle)) {
        Module.assign(Op, Cycle, Next++);
        Live.push_back({Op, Cycle});
        ++Checked;
      }
      if (Live.size() >= 64) {
        for (size_t I = 0; I < 32; ++I)
          Module.free(Live[I].first, Live[I].second,
                      static_cast<InstanceId>(I + Next - Live.size()));
        Live.erase(Live.begin(), Live.begin() + 32);
      }
    }
    Module.reset();
  }
  Assigned = Checked;
  Ms.push_back(std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - Start)
                   .count());
}

const std::vector<MachineRun> &measuredOnce() {
  static const std::vector<MachineRun> Runs = [] {
    std::vector<MachineRun> Runs;
    for (const std::string &Name : machineNames()) {
      ExpandedMachine EM = expandAlternatives(loadMachine(Name).take().MD);
      MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;
      RNG R(1234);
      std::vector<Event> Events;
      for (int I = 0; I < 4096; ++I)
        Events.push_back(
            {static_cast<OpId>(R.nextBelow(EM.Flat.numOperations())),
             static_cast<int>(R.nextBelow(64))});

      DiscreteQueryModule Orig(EM.Flat, QueryConfig::linear());
      BitvectorQueryModule Red(Reduced, QueryConfig::linear());
      MachineRun Run{Name, {}, {}};
      for (int Round = 0; Round < Rounds; ++Round) {
        if (Round % 2 == 0)
          timeRound(Orig, Events, Run.OrigMs, Run.OrigAssigned);
        timeRound(Red, Events, Run.RedMs, Run.RedAssigned);
        if (Round % 2 == 1)
          timeRound(Orig, Events, Run.OrigMs, Run.OrigAssigned);
      }
      Runs.push_back(std::move(Run));
    }
    return Runs;
  }();
  return Runs;
}

double median(std::vector<double> V) {
  std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
  return V[V.size() / 2];
}

double medianRatio(const MachineRun &Run) {
  std::vector<double> Ratios;
  for (size_t I = 0; I < Run.OrigMs.size(); ++I)
    Ratios.push_back(Run.OrigMs[I] / Run.RedMs[I]);
  return median(Ratios);
}

} // namespace

TEST(PerfGate, CorpusCoverageAndSanity) {
  const std::vector<MachineRun> &Runs = measuredOnce();
  ASSERT_EQ(Runs.size(), 7u);
  ASSERT_EQ(std::size(Floors), Runs.size());
  for (size_t I = 0; I < Runs.size(); ++I) {
    const MachineRun &Run = Runs[I];
    EXPECT_EQ(Run.Machine, Floors[I].first);
    EXPECT_EQ(Run.OrigMs.size(), static_cast<size_t>(Rounds)) << Run.Machine;
    EXPECT_EQ(Run.RedMs.size(), static_cast<size_t>(Rounds)) << Run.Machine;
    // Theorem 1: the reduced description answers every check as the
    // original does, so both sides do the same work.
    EXPECT_GT(Run.OrigAssigned, 0u) << Run.Machine;
    EXPECT_EQ(Run.OrigAssigned, Run.RedAssigned) << Run.Machine;
  }
}

TEST(PerfGate, ReducedBitvectorOutrunsOriginalDiscrete) {
  if (underSanitizer())
    GTEST_SKIP() << "wall-clock gate is meaningless under sanitizers";
  const std::vector<MachineRun> &Runs = measuredOnce();
  ASSERT_EQ(std::size(Floors), Runs.size());
  bool Failed = false;
  std::string Table = "machine      D_orig ms  B_red ms  ratio  floor\n";
  for (size_t I = 0; I < Runs.size(); ++I) {
    const MachineRun &Run = Runs[I];
    double Ratio = medianRatio(Run);
    bool Below = Ratio < Floors[I].second;
    Failed |= Below;
    char Line[128];
    std::snprintf(Line, sizeof(Line), "%-11s %9.3f %9.3f %6.2f %6.2f%s\n",
                  Run.Machine.c_str(), median(Run.OrigMs), median(Run.RedMs),
                  Ratio, Floors[I].second, Below ? "  BELOW" : "");
    Table += Line;
  }
  std::fputs(Table.c_str(), stdout);
  EXPECT_FALSE(Failed) << "a median D_orig/B_red ratio fell below its "
                          "floor (BELOW in the table above)";
}
