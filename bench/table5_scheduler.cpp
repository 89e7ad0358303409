//===- bench/table5_scheduler.cpp - Table 5: loop benchmark ---------------===//
//
// Reproduces Table 5: characteristics of the modulo schedules produced by
// the Iterative Modulo Scheduler over the loop corpus on the Cydra 5 --
// operations per loop, initiation interval, II/MII, and scheduling
// decisions per operation -- plus the budget-sensitivity experiment (6N vs
// 2N decision budgets) reported in the text.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "machines/Catalog.h"
#include "support/TextTable.h"
#include "workload/Experiment.h"

#include <iostream>
#include "support/Stats.h"

using namespace rmd;

static void printRow(TextTable &T, const char *Label, const OnlineStats &S,
                     int Decimals) {
  T.row();
  T.cell(Label);
  T.cell(S.min(), Decimals);
  T.cell(formatFixed(100.0 * S.fractionAtMin(), 1) + "%");
  T.cell(S.mean(), Decimals);
  T.cell(S.max(), Decimals);
}

int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "table5_scheduler");
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);

  CorpusParams Params; // 1327 loops, fixed seed
  std::vector<DepGraph> Corpus = buildCorpus(Cydra, Params);

  RepresentationSpec Spec;
  Spec.Kind = RepresentationSpec::Discrete;
  Spec.FlatMD = &EM.Flat;
  Spec.Label = "original/discrete";

  std::cout << "=== Table 5: characteristics of the " << Corpus.size()
            << "-loop benchmark (Cydra 5, IMS) ===\n\n";

  for (int BudgetRatio : {6, 2}) {
    ModuloScheduleOptions Options;
    Options.BudgetRatio = BudgetRatio;
    SchedulerExperimentResult R =
        runSchedulerExperiment(Cydra, EM.Groups, Spec, Corpus, Options);

    std::cout << "budget = " << BudgetRatio << "N decisions per attempt\n";
    TextTable T;
    T.row();
    T.cell("measurement");
    T.cell("min");
    T.cell("% at min");
    T.cell("avg");
    T.cell("max");
    printRow(T, "number of operations", R.OpsPerLoop, 2);
    printRow(T, "initiation interval (II)", R.II, 2);
    printRow(T, "II / MII", R.IIOverMII, 2);
    printRow(T, "sched. decisions / operation", R.DecisionsPerOp, 2);
    T.print(std::cout);

    std::cout << "loops scheduled: " << (R.Loops - R.Failed) << "/"
              << R.Loops << "; no decision ever reversed: "
              << formatFixed(100.0 * R.LoopsWithNoReversal /
                                 static_cast<double>(R.Loops),
                             1)
              << "% of loops; attempts exceeding the budget: "
              << formatFixed(100.0 * R.AttemptsBudgetExceeded /
                                 static_cast<double>(R.TotalAttempts),
                             1)
              << "%\n\n";
  }

  std::cout << "paper reference (budget 6N): ops 2.00/17.54/161.00; II "
               "1.00/11.52/165.00; II/MII 1.00 (95.6% at min)/1.01/1.50; "
               "decisions/op 1.00 (78.7% at min)/1.52/6.00; 9.6% of "
               "attempts exceeded 6N; with 2N the ratio drops to 1.14 with "
               "11.3% exceeded\n";
  return 0;
}
