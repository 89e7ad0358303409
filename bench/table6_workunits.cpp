//===- bench/table6_workunits.cpp - Table 6: query module work ------------===//
//
// Reproduces Table 6: average work units per call of the contention query
// module's basic functions (check, assign&free, free) while the Iterative
// Modulo Scheduler processes the loop corpus on the Cydra 5, across five
// machine representations:
//
//   1. original description, discrete representation;
//   2. res-uses reduction, discrete representation;
//   3-5. k-cycle-word reductions, bitvector representation with k packed
//        cycle-bitvectors per word.
//
// One work unit handles one resource usage (discrete) or one nonempty word
// (bitvector); the optimistic-to-update transition of assign&free is
// charged to assign&free, exactly as in Section 8. The bottom row is the
// call-frequency-weighted sum -- the paper's 2.9x headline.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "machines/Catalog.h"
#include "reduce/Metrics.h"
#include "support/TextTable.h"
#include "workload/Experiment.h"

#include <iostream>
#include "support/Stats.h"

using namespace rmd;

int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "table6_workunits");
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);

  // Representations under test. Reductions run on the full expanded
  // machine so operation ids line up with the scheduler's.
  ReductionResult ResUses = reduceMachine(EM.Flat);
  unsigned MaxK = cyclesPerWord(
      std::max<size_t>(ResUses.Reduced.numResources(), 1), 64);

  std::vector<unsigned> Ks;
  for (unsigned K : {1u, 2u, 4u})
    if (K <= MaxK)
      Ks.push_back(K);
  if (Ks.empty() || Ks.back() != MaxK)
    Ks.push_back(MaxK);

  std::vector<MachineDescription> WordReductions;
  for (unsigned K : Ks) {
    ReductionOptions Options;
    Options.Objective = SelectionObjective::wordUses(K);
    WordReductions.push_back(reduceMachine(EM.Flat, Options).Reduced);
  }

  std::vector<RepresentationSpec> Specs;
  {
    RepresentationSpec S;
    S.Kind = RepresentationSpec::Discrete;
    S.FlatMD = &EM.Flat;
    S.Label = "original";
    Specs.push_back(S);
    S.FlatMD = &ResUses.Reduced;
    S.Label = "res-uses";
    Specs.push_back(S);
    for (size_t I = 0; I < Ks.size(); ++I) {
      RepresentationSpec W;
      W.Kind = RepresentationSpec::Bitvector;
      W.WordBits = 64;
      W.CyclesPerWord = Ks[I];
      W.FlatMD = &WordReductions[I];
      W.Label = std::to_string(Ks[I]) + "-cycle-word";
      Specs.push_back(W);
    }
  }

  CorpusParams Params; // 1327 loops
  std::vector<DepGraph> Corpus = buildCorpus(Cydra, Params);

  std::cout << "=== Table 6: work units per call, " << Corpus.size()
            << "-loop benchmark on the Cydra 5 ===\n\n";

  std::vector<SchedulerExperimentResult> Results;
  for (const RepresentationSpec &Spec : Specs)
    Results.push_back(
        runSchedulerExperiment(Cydra, EM.Groups, Spec, Corpus));

  // All representations answer queries identically, so call counts match;
  // verify before printing.
  for (const SchedulerExperimentResult &R : Results) {
    if (R.Counters.totalCalls() != Results[0].Counters.totalCalls()) {
      std::cerr << "representation " << R.Label
                << " diverged from the reference scheduling trace\n";
      return 1;
    }
  }

  const WorkCounters &Ref = Results[0].Counters;
  uint64_t TotalCalls = Ref.totalCalls();
  double FreqCheck = static_cast<double>(Ref.CheckCalls) / TotalCalls;
  double FreqAssignFree =
      static_cast<double>(Ref.AssignFreeCalls) / TotalCalls;
  double FreqFree = static_cast<double>(Ref.FreeCalls) / TotalCalls;

  TextTable T;
  T.row();
  T.cell("function");
  for (const SchedulerExperimentResult &R : Results)
    T.cell(R.Label);
  T.cell("frequency");

  auto perCall = [](uint64_t Units, uint64_t Calls) {
    return Calls ? static_cast<double>(Units) / Calls : 0.0;
  };

  T.row();
  T.cell("check");
  for (const SchedulerExperimentResult &R : Results)
    T.cell(perCall(R.Counters.CheckUnits, R.Counters.CheckCalls), 2);
  T.cell(formatFixed(100 * FreqCheck, 1) + "%");

  T.row();
  T.cell("assign&free");
  for (const SchedulerExperimentResult &R : Results)
    T.cell(perCall(R.Counters.AssignFreeUnits, R.Counters.AssignFreeCalls),
           2);
  T.cell(formatFixed(100 * FreqAssignFree, 1) + "%");

  T.row();
  T.cell("free");
  for (const SchedulerExperimentResult &R : Results)
    T.cell(perCall(R.Counters.FreeUnits, R.Counters.FreeCalls), 2);
  T.cell(formatFixed(100 * FreqFree, 1) + "%");

  T.row();
  T.cell("weighted sum");
  std::vector<double> Weighted;
  for (const SchedulerExperimentResult &R : Results) {
    double W = FreqCheck * perCall(R.Counters.CheckUnits,
                                   R.Counters.CheckCalls) +
               FreqAssignFree * perCall(R.Counters.AssignFreeUnits,
                                        R.Counters.AssignFreeCalls) +
               FreqFree * perCall(R.Counters.FreeUnits,
                                  R.Counters.FreeCalls);
    Weighted.push_back(W);
    T.cell(W, 2);
  }
  T.cell("100.0%");
  T.print(std::cout);

  std::cout << "\nspeedup of weighted work vs original: ";
  for (size_t I = 1; I < Weighted.size(); ++I)
    std::cout << Results[I].Label << " "
              << formatFixed(Weighted[0] / Weighted[I], 2) << "x  ";
  std::cout << "\n";

  // The check-query distribution reported in Section 8.
  const SchedulerExperimentResult &R0 = Results[0];
  std::cout << "\nchecks per scheduling decision: avg "
            << formatFixed(R0.checksPerDecision(), 2) << "; distribution:";
  uint64_t Decisions = 0;
  for (uint64_t C : R0.CheckHistogram)
    Decisions += C;
  for (size_t I = 0; I <= 4 && I < R0.CheckHistogram.size(); ++I)
    std::cout << " " << I << ":"
              << formatFixed(100.0 * R0.CheckHistogram[I] / Decisions, 1)
              << "%";
  std::cout << " ...\n";
  std::cout << "assign&free calls that evicted operations: "
            << formatFixed(100.0 * R0.AssignFreeCallsWithEviction /
                               static_cast<double>(
                                   R0.Counters.AssignFreeCalls),
                           1)
            << "%; reversals by resource conflict: "
            << R0.ReversalsByResource
            << ", by dependence violation: " << R0.ReversalsByDependence
            << "\n";

  // Extension ablation: the union-mask check-with-alternatives fast path
  // ("other more efficient techniques could be implemented", Section 7).
  // Call counts change (one union check replaces per-alternative checks),
  // so only total work is compared.
  {
    RepresentationSpec Fast = Specs.back();
    Fast.UnionAlternativeCheck = true;
    Fast.Label = Fast.Label + "+union";
    SchedulerExperimentResult R =
        runSchedulerExperiment(Cydra, EM.Groups, Fast, Corpus);
    const SchedulerExperimentResult &Base = Results.back();
    std::cout << "\nextension, union check-with-alt on " << Base.Label
              << ": total units "
              << Base.Counters.totalUnits() << " -> "
              << R.Counters.totalUnits() << " ("
              << formatFixed(
                     static_cast<double>(Base.Counters.totalUnits()) /
                         static_cast<double>(R.Counters.totalUnits()),
                     2)
              << "x), check units "
              << Base.Counters.CheckUnits << " -> "
              << R.Counters.CheckUnits << "\n";
  }

  std::cout << "\npaper reference: check 2.62 -> 1.11, assign&free 5.68 -> "
               "1.63, free 6.48 -> 1.29; weighted sum 3.46 -> 1.21 (2.9x); "
               "frequencies 75.6/16.0/8.4%; 4.74 checks per decision; "
               "13.0%% of assign&free calls evicted; 14.6%% of reversals "
               "from resource conflicts\n";
  return 0;
}
