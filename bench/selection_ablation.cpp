//===- bench/selection_ablation.cpp - Heuristic vs optimal cover ----------===//
//
// Ablation for the Section 5 selection heuristic. The paper: "Although
// integer programming can solve these minimum cover problems, we have
// found a fast and effective heuristic." This harness quantifies
// "effective": it runs the greedy cover and an exact branch-and-bound
// minimum-usage cover on the paper's example machine and a population of
// random machines, reporting the optimality gap, plus the greedy result
// on the three (exactly solvable or not) evaluation machines.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "reduce/ExactCover.h"
#include "reduce/GeneratingSet.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"
#include "support/TextTable.h"

#include <iostream>
#include "support/Stats.h"

using namespace rmd;

namespace {

struct GapSample {
  size_t Greedy = 0;
  size_t Optimal = 0;
  bool Solved = false;
};

GapSample measure(const MachineDescription &MD, uint64_t NodeBudget) {
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  std::vector<SynthesizedResource> Pruned =
      pruneGeneratingSet(buildGeneratingSet(FLM));

  GapSample Sample;
  Sample.Greedy =
      selectCover(FLM, Pruned, SelectionObjective::resUses())
          .numSelectedUsages();
  if (auto Exact = selectCoverOptimal(FLM, Pruned, NodeBudget)) {
    Sample.Optimal = Exact->Selection.numSelectedUsages();
    Sample.Solved = true;
  }
  return Sample;
}

MachineDescription randomMachine(RNG &R) {
  MachineDescription MD("random");
  unsigned Resources = 3 + static_cast<unsigned>(R.nextBelow(5));
  unsigned Ops = 2 + static_cast<unsigned>(R.nextBelow(4));
  for (unsigned I = 0; I < Resources; ++I)
    MD.addResource("r" + std::to_string(I));
  for (unsigned O = 0; O < Ops; ++O) {
    ReservationTable T;
    unsigned Usages = 1 + static_cast<unsigned>(R.nextBelow(4));
    for (unsigned U = 0; U < Usages; ++U)
      T.addUsage(static_cast<ResourceId>(R.nextBelow(Resources)),
                 static_cast<int>(R.nextBelow(6)));
    MD.addOperation("op" + std::to_string(O), std::move(T));
  }
  return MD;
}

} // namespace

int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "selection_ablation");
  std::cout << "=== selection heuristic vs exact minimum-usage cover ===\n\n";

  // The paper's example machine: greedy is known optimal here (5 usages,
  // Figure 1d).
  GapSample Fig1 = measure(loadMachine("fig1").take().MD, 1u << 22);
  std::cout << "fig1: greedy " << Fig1.Greedy << " usages, optimal "
            << (Fig1.Solved ? std::to_string(Fig1.Optimal) : "n/a") << "\n\n";

  // Random-machine population.
  RNG R(20250708);
  int Solved = 0, Exactly = 0;
  size_t GapSum = 0, WorstGap = 0;
  const int Trials = 150;
  for (int Trial = 0; Trial < Trials; ++Trial) {
    GapSample S = measure(randomMachine(R), 400000);
    if (!S.Solved)
      continue;
    ++Solved;
    size_t Gap = S.Greedy - S.Optimal;
    Exactly += Gap == 0;
    GapSum += Gap;
    WorstGap = std::max(WorstGap, Gap);
  }
  std::cout << "random machines: " << Solved << "/" << Trials
            << " solved exactly within budget; greedy optimal in "
            << Exactly << " (" << (100 * Exactly / std::max(Solved, 1))
            << "%), average gap "
            << formatFixed(static_cast<double>(GapSum) /
                               std::max(Solved, 1),
                           2)
            << " usages, worst gap " << WorstGap << "\n\n";

  // Evaluation machines: report greedy result and whether exact search is
  // feasible at all (it usually is not -- hence the heuristic).
  TextTable T;
  T.row();
  T.cell("machine");
  T.cell("greedy usages");
  T.cell("exact usages");
  T.cell("nodes");
  for (const char *Name : {"toy-vliw", "mips-r3000", "alpha21064", "cydra5"}) {
    MachineModel M = loadMachine(Name).take();
    MachineDescription Flat = expandAlternatives(M.MD).Flat;
    ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
    std::vector<SynthesizedResource> Pruned =
        pruneGeneratingSet(buildGeneratingSet(FLM));
    size_t Greedy = selectCover(FLM, Pruned, SelectionObjective::resUses())
                        .numSelectedUsages();
    auto Exact = selectCoverOptimal(FLM, Pruned, 3'000'000);
    T.row();
    T.cell(M.MD.name());
    T.cellInt(static_cast<long long>(Greedy));
    if (Exact) {
      T.cellInt(static_cast<long long>(Exact->Selection.numSelectedUsages()));
      T.cellInt(static_cast<long long>(Exact->NodesExpanded));
    } else {
      T.cell("budget exceeded");
      T.cell(">3M");
    }
  }
  T.print(std::cout);
  return 0;
}
