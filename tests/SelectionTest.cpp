//===- tests/SelectionTest.cpp - Selection heuristic unit tests -----------===//

#include "machines/Catalog.h"
#include "reduce/GeneratingSet.h"
#include "reduce/Metrics.h"
#include "reduce/Reduction.h"
#include "reduce/Selection.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

struct PreparedMachine {
  MachineDescription Flat;
  ForbiddenLatencyMatrix FLM{0};
  std::vector<SynthesizedResource> Pruned;
};

PreparedMachine prepare(const MachineDescription &MD) {
  PreparedMachine P{expandAlternatives(MD).Flat, ForbiddenLatencyMatrix(0),
                    {}};
  P.FLM = ForbiddenLatencyMatrix::compute(P.Flat);
  P.Pruned = pruneGeneratingSet(buildGeneratingSet(P.FLM));
  return P;
}

/// Checks that the selected usages cover every canonical latency of FLM.
void expectCovered(const PreparedMachine &P, const SelectionResult &Sel) {
  std::vector<ForbiddenLatency> Covered;
  for (size_t R = 0; R < Sel.SelectedUsages.size(); ++R) {
    const auto &Usages = Sel.SelectedUsages[R];
    for (size_t I = 0; I < Usages.size(); ++I) {
      Covered.push_back(canonicalize(Usages[I].Op, Usages[I].Op, 0));
      for (size_t J = I + 1; J < Usages.size(); ++J)
        Covered.push_back(generatedLatency(Usages[I], Usages[J]));
    }
  }
  std::sort(Covered.begin(), Covered.end());
  Covered.erase(std::unique(Covered.begin(), Covered.end()), Covered.end());
  for (const ForbiddenLatency &L : P.FLM.canonicalLatencies())
    ASSERT_TRUE(std::binary_search(Covered.begin(), Covered.end(), L))
        << "uncovered latency";
}

} // namespace

TEST(Selection, Figure1ResUses) {
  PreparedMachine P = prepare(loadMachine("fig1").take().MD);
  SelectionResult Sel =
      selectCover(P.FLM, P.Pruned, SelectionObjective::resUses());
  expectCovered(P, Sel);

  // Figure 1d: 2 synthesized resources; 1 usage for A and 4 for B (the
  // res-uses objective drops one redundant usage of B in the long row).
  EXPECT_EQ(Sel.numSelectedResources(), 2u);
  EXPECT_EQ(Sel.numSelectedUsages(), 5u);
}

TEST(Selection, Figure1ReducedDescription) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  PreparedMachine P = prepare(MD);
  SelectionResult Sel =
      selectCover(P.FLM, P.Pruned, SelectionObjective::resUses());
  MachineDescription Reduced =
      buildReducedDescription(P.Flat, P.Pruned, Sel, ".r");

  EXPECT_EQ(Reduced.numResources(), 2u);
  OpId A = Reduced.findOperation("A");
  OpId B = Reduced.findOperation("B");
  EXPECT_EQ(Reduced.operation(A).table().usageCount(), 1u);
  EXPECT_EQ(Reduced.operation(B).table().usageCount(), 4u);
  EXPECT_TRUE(verifyEquivalence(P.Flat, Reduced));
}

TEST(Selection, SelectionIsSubsetOfPruned) {
  PreparedMachine P = prepare(loadMachine("mips-r3000").take().MD);
  SelectionResult Sel =
      selectCover(P.FLM, P.Pruned, SelectionObjective::resUses());
  ASSERT_EQ(Sel.SelectedUsages.size(), P.Pruned.size());
  for (size_t R = 0; R < P.Pruned.size(); ++R)
    for (const SynthUsage &U : Sel.SelectedUsages[R])
      EXPECT_TRUE(P.Pruned[R].contains(U));
}

TEST(Selection, WordObjectiveNeverWorseOnWords) {
  // For every machine, the end-to-end k-cycle-word reduction must give
  // average word usage <= the res-uses reduction measured at the same k
  // (reduceMachine keeps the better of the two covers, Tables 1-4 shape).
  for (const char *Name : {"cydra5", "alpha21064", "mips-r3000", "toy-vliw",
                           "playdoh"}) {
    MachineModel M = loadMachine(Name).take();
    MachineDescription Flat = expandAlternatives(M.MD).Flat;
    ReductionResult Res = reduceMachine(Flat);
    unsigned K = cyclesPerWord(Res.Reduced.numResources(), 64);

    ReductionOptions WordOptions;
    WordOptions.Objective = SelectionObjective::wordUses(K);
    ReductionResult Word = reduceMachine(Flat, WordOptions);

    EXPECT_TRUE(verifyEquivalence(Flat, Word.Reduced)) << M.MD.name();
    EXPECT_LE(averageWordUsesPerOperation(Word.Reduced, K),
              averageWordUsesPerOperation(Res.Reduced, K) + 1e-9)
        << M.MD.name();
  }
}

TEST(Selection, WordUsesGrowWithK) {
  // Tables 1-4 show res usages increasing monotonically with k while word
  // usages shrink; verify the direction on the Cydra 5.
  PreparedMachine P = prepare(loadMachine("cydra5").take().MD);
  size_t PrevUsages = 0;
  for (unsigned K : {1u, 2u, 4u}) {
    SelectionResult Sel =
        selectCover(P.FLM, P.Pruned, SelectionObjective::wordUses(K));
    expectCovered(P, Sel);
    EXPECT_GE(Sel.numSelectedUsages(), PrevUsages) << "K=" << K;
    PrevUsages = Sel.numSelectedUsages();
  }
}

TEST(Selection, EmptyMachine) {
  MachineDescription MD("empty");
  MD.addResource("r");
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  std::vector<SynthesizedResource> Pruned =
      pruneGeneratingSet(buildGeneratingSet(FLM));
  SelectionResult Sel =
      selectCover(FLM, Pruned, SelectionObjective::resUses());
  EXPECT_EQ(Sel.numSelectedUsages(), 0u);
}

TEST(Metrics, WordUsageCounting) {
  ReservationTable RT;
  RT.addUsage(0, 0);
  RT.addUsage(1, 1);
  RT.addUsage(0, 5);
  // k=4, alignment 0: words {0, 1}; alignment 3: cycles 3,4,8 -> words
  // {0, 1, 2}.
  EXPECT_EQ(wordUsages(RT, 4, 0), 2u);
  EXPECT_EQ(wordUsages(RT, 4, 3), 3u);
  EXPECT_EQ(wordUsages(RT, 1, 0), 3u);
}

TEST(Metrics, CyclesPerWord) {
  EXPECT_EQ(cyclesPerWord(15, 64), 4u);
  EXPECT_EQ(cyclesPerWord(15, 32), 2u);
  EXPECT_EQ(cyclesPerWord(56, 64), 1u);
  EXPECT_EQ(cyclesPerWord(7, 64), 9u);
  EXPECT_EQ(cyclesPerWord(64, 64), 1u);
}

TEST(Metrics, Averages) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  // A has 3 usages, B has 8: average 5.5.
  EXPECT_DOUBLE_EQ(averageResUsesPerOperation(MD), 5.5);
  EXPECT_EQ(stateBitsPerCycle(MD), 5u);
  // k=1 word usage = number of distinct used cycles: A: 3, B: 8.
  EXPECT_DOUBLE_EQ(averageWordUsesPerOperation(MD, 1), 5.5);
}
