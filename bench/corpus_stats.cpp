//===- bench/corpus_stats.cpp - Loop-corpus calibration report ------------===//
//
// Documents how the synthetic corpus is calibrated against the paper's
// 1327-loop benchmark population (the inputs Table 5 depends on): loop
// size distribution, operation-role mix, recurrence share, and the
// pipeline shapes (stage counts) the modulo scheduler produces.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "sched/ScheduleRender.h"
#include "support/TextTable.h"
#include "workload/Experiment.h"

#include <iostream>
#include <map>
#include "support/Stats.h"

using namespace rmd;

int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "corpus_stats");
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  CorpusParams Params; // the Table 5/6 corpus
  std::vector<DepGraph> Corpus = buildCorpus(Cydra, Params);

  std::cout << "=== corpus calibration (" << Corpus.size()
            << " loops, seed 0x" << std::hex << Params.Seed << std::dec
            << ") ===\n\n";

  // Size distribution.
  OnlineStats Sizes;
  std::map<std::string, int> SizeBuckets;
  size_t WithRecurrence = 0, KernelLoops = 0;
  std::map<std::string, size_t> OpMix;
  for (const DepGraph &G : Corpus) {
    Sizes.add(static_cast<double>(G.numNodes()));
    const char *Bucket = G.numNodes() <= 4    ? "2-4"
                         : G.numNodes() <= 8  ? "5-8"
                         : G.numNodes() <= 16 ? "9-16"
                         : G.numNodes() <= 32 ? "17-32"
                         : G.numNodes() <= 64 ? "33-64"
                                              : "65+";
    ++SizeBuckets[Bucket];
    bool Carried = false;
    for (const DepEdge &E : G.edges())
      Carried |= E.Distance > 0;
    WithRecurrence += Carried;
    KernelLoops += G.name() != "rand";
    for (NodeId N = 0; N < G.numNodes(); ++N)
      ++OpMix[Cydra.MD.operation(G.opOf(N)).Name];
  }

  std::cout << "loop sizes: min " << Sizes.min() << ", avg "
            << formatFixed(Sizes.mean(), 2) << ", max " << Sizes.max()
            << "   (paper: 2.00 / 17.54 / 161.00)\n";
  std::cout << "size histogram:";
  for (const char *B : {"2-4", "5-8", "9-16", "17-32", "33-64", "65+"})
    std::cout << "  " << B << ": " << SizeBuckets[B];
  std::cout << "\nloops with loop-carried dependences: "
            << formatFixed(100.0 * WithRecurrence / Corpus.size(), 1)
            << "%;  kernel-derived: "
            << formatFixed(100.0 * KernelLoops / Corpus.size(), 1)
            << "%, generator-derived: "
            << formatFixed(100.0 * (Corpus.size() - KernelLoops) /
                               Corpus.size(),
                           1)
            << "%\n\n";

  std::cout << "operation mix (top rows):\n";
  {
    std::vector<std::pair<size_t, std::string>> Sorted;
    size_t Total = 0;
    for (const auto &[Name, Count] : OpMix) {
      Sorted.push_back({Count, Name});
      Total += Count;
    }
    std::sort(Sorted.rbegin(), Sorted.rend());
    TextTable T;
    T.row();
    T.cell("operation");
    T.cell("count");
    T.cell("share");
    for (size_t I = 0; I < Sorted.size() && I < 10; ++I) {
      T.row();
      T.cell(Sorted[I].second);
      T.cellInt(static_cast<long long>(Sorted[I].first));
      T.cell(formatFixed(100.0 * Sorted[I].first / Total, 1) + "%");
    }
    T.print(std::cout);
  }

  // Pipeline shapes over a sample of scheduled loops.
  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, C));
  };

  OnlineStats Stages, Prologue, SlotWidth;
  size_t Sampled = 0;
  for (size_t I = 0; I < Corpus.size(); I += 7) { // every 7th loop
    ModuloScheduleResult R = moduloSchedule(Corpus[I], Cydra.MD, Env);
    if (!R.Success)
      continue;
    KernelInfo Info = analyzeKernel(R.Time, R.II);
    Stages.add(Info.Stages);
    Prologue.add(Info.PrologueCycles);
    SlotWidth.add(Info.MaxSlotWidth);
    ++Sampled;
  }
  std::cout << "\npipeline shape over " << Sampled
            << " sampled schedules: stages avg "
            << formatFixed(Stages.mean(), 2) << " (max " << Stages.max()
            << "), prologue avg " << formatFixed(Prologue.mean(), 1)
            << " cycles, widest kernel slot avg "
            << formatFixed(SlotWidth.mean(), 2) << " ops\n";
  return 0;
}
