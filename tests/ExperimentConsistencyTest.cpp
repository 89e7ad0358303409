//===- tests/ExperimentConsistencyTest.cpp - Table 6's precondition -------===//
//
// Table 6 compares work units across representations under the premise
// that every representation drives the *identical* scheduling trace. This
// test enforces the premise end-to-end over a corpus: all four
// description x representation combinations must produce the same
// schedules and the same query-call counts, while work units order the
// way the paper says (reduced < original; packed words < usages).
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "reduce/Metrics.h"
#include "reduce/Reduction.h"
#include "workload/Experiment.h"

#include <gtest/gtest.h>

using namespace rmd;

TEST(ExperimentConsistency, FourWaysOneTrace) {
  MachineModel Mips = loadMachine("mips-r3000").take();
  ExpandedMachine EM = expandAlternatives(Mips.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

  CorpusParams Params;
  Params.LoopCount = 60;
  std::vector<DepGraph> Corpus = buildCorpus(Mips, Params);

  std::vector<RepresentationSpec> Specs(4);
  Specs[0].Kind = RepresentationSpec::Discrete;
  Specs[0].FlatMD = &EM.Flat;
  Specs[0].Label = "orig/discrete";
  Specs[1].Kind = RepresentationSpec::Discrete;
  Specs[1].FlatMD = &Reduced;
  Specs[1].Label = "red/discrete";
  Specs[2].Kind = RepresentationSpec::Bitvector;
  Specs[2].FlatMD = &EM.Flat;
  Specs[2].Label = "orig/bitvector";
  Specs[3].Kind = RepresentationSpec::Bitvector;
  Specs[3].FlatMD = &Reduced;
  Specs[3].Label = "red/bitvector";

  std::vector<SchedulerExperimentResult> Results;
  for (const RepresentationSpec &Spec : Specs)
    Results.push_back(
        runSchedulerExperiment(Mips, EM.Groups, Spec, Corpus));

  for (const SchedulerExperimentResult &R : Results) {
    EXPECT_EQ(R.Failed, 0u) << R.Label;
    // Identical traces: identical II statistics and identical call mix.
    EXPECT_DOUBLE_EQ(R.II.mean(), Results[0].II.mean()) << R.Label;
    EXPECT_DOUBLE_EQ(R.II.max(), Results[0].II.max()) << R.Label;
    EXPECT_EQ(R.Counters.AssignFreeCalls,
              Results[0].Counters.AssignFreeCalls)
        << R.Label;
    EXPECT_EQ(R.Counters.FreeCalls, Results[0].Counters.FreeCalls)
        << R.Label;
    EXPECT_EQ(R.TotalAttempts, Results[0].TotalAttempts) << R.Label;
  }

  // Work ordering: reduced beats original within each representation.
  EXPECT_LT(Results[1].Counters.totalUnits(),
            Results[0].Counters.totalUnits());
  EXPECT_LT(Results[3].Counters.totalUnits(),
            Results[2].Counters.totalUnits());
  // Packed words beat per-usage work on the same description.
  EXPECT_LT(Results[3].Counters.totalUnits(),
            Results[1].Counters.totalUnits());
}

TEST(ExperimentConsistency, WeightedWorkImprovesWithK) {
  // On the Cydra, forcing k = 1 vs the maximal packing must not invert
  // the paper's trend: more cycles per word, fewer units per call.
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;
  unsigned MaxK = cyclesPerWord(Reduced.numResources(), 64);
  ASSERT_GE(MaxK, 2u);

  CorpusParams Params;
  Params.LoopCount = 40;
  std::vector<DepGraph> Corpus = buildCorpus(Cydra, Params);

  auto run = [&](unsigned K) {
    RepresentationSpec Spec;
    Spec.Kind = RepresentationSpec::Bitvector;
    Spec.FlatMD = &Reduced;
    Spec.CyclesPerWord = K;
    Spec.Label = "k" + std::to_string(K);
    return runSchedulerExperiment(Cydra, EM.Groups, Spec, Corpus);
  };

  SchedulerExperimentResult K1 = run(1);
  SchedulerExperimentResult KMax = run(MaxK);
  EXPECT_EQ(K1.Failed, 0u);
  EXPECT_EQ(KMax.Failed, 0u);
  EXPECT_LE(KMax.Counters.CheckUnits, K1.Counters.CheckUnits);
  EXPECT_LE(KMax.Counters.totalUnits(), K1.Counters.totalUnits());
}
