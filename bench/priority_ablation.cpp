//===- bench/priority_ablation.cpp - IMS priority functions ---------------===//
//
// Ablation over the Iterative Modulo Scheduler's priority function. Rau
// argues for height-based priority (operations along critical paths
// first); this harness compares it against a top-down (depth) order and a
// naive source order over the loop corpus, measuring schedule quality
// (II/MII) and scheduling effort (decisions per operation, budget
// blowouts).
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "support/TextTable.h"
#include "workload/Experiment.h"

#include <iostream>
#include "support/Stats.h"

using namespace rmd;

int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "priority_ablation");
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);

  CorpusParams Params;
  Params.LoopCount = 600; // enough for stable averages, fast to run
  std::vector<DepGraph> Corpus = buildCorpus(Cydra, Params);

  RepresentationSpec Spec;
  Spec.Kind = RepresentationSpec::Discrete;
  Spec.FlatMD = &EM.Flat;
  Spec.Label = "original/discrete";

  struct Variant {
    const char *Label;
    SchedulePriority Priority;
  };
  Variant Variants[] = {
      {"height (Rau)", SchedulePriority::Height},
      {"depth (top-down)", SchedulePriority::Depth},
      {"source order", SchedulePriority::SourceOrder},
  };

  std::cout << "=== IMS priority-function ablation (" << Corpus.size()
            << " loops, Cydra 5) ===\n\n";
  TextTable T;
  T.row();
  T.cell("priority");
  T.cell("II/MII avg");
  T.cell("% at MII");
  T.cell("decisions/op");
  T.cell("budget blowouts");
  T.cell("failed loops");

  for (const Variant &V : Variants) {
    ModuloScheduleOptions Options;
    Options.Priority = V.Priority;
    SchedulerExperimentResult R =
        runSchedulerExperiment(Cydra, EM.Groups, Spec, Corpus, Options);
    T.row();
    T.cell(V.Label);
    T.cell(R.IIOverMII.mean(), 3);
    T.cell(formatFixed(100.0 * R.IIOverMII.fractionAtMin(), 1) + "%");
    T.cell(R.DecisionsPerOp.mean(), 2);
    T.cell(formatFixed(100.0 * R.AttemptsBudgetExceeded /
                           static_cast<double>(R.TotalAttempts),
                       1) +
           "%");
    T.cellInt(static_cast<long long>(R.Failed));
  }
  T.print(std::cout);
  std::cout
      << "\nnotes: height (Rau) achieves the best quality/effort balance "
         "and never fails. Source order looks competitive here only "
         "because the generator emits bodies in near-topological order, "
         "approximating height. Top-down depth priority thrashes: it "
         "places consumers before the recurrences that constrain them, "
         "multiplying reversals and failing loops outright.\n";
  return 0;
}
