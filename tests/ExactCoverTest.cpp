//===- tests/ExactCoverTest.cpp - Exact cover solver tests ----------------===//

#include "machines/Catalog.h"
#include "reduce/ExactCover.h"
#include "reduce/GeneratingSet.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

struct Prepared {
  MachineDescription Flat;
  ForbiddenLatencyMatrix FLM{0};
  std::vector<SynthesizedResource> Pruned;
};

Prepared prepare(const MachineDescription &MD) {
  Prepared P{expandAlternatives(MD).Flat, ForbiddenLatencyMatrix(0), {}};
  P.FLM = ForbiddenLatencyMatrix::compute(P.Flat);
  P.Pruned = pruneGeneratingSet(buildGeneratingSet(P.FLM));
  return P;
}

MachineDescription randomMachine(RNG &R) {
  MachineDescription MD("random");
  unsigned Resources = 3 + static_cast<unsigned>(R.nextBelow(4));
  unsigned Ops = 2 + static_cast<unsigned>(R.nextBelow(3));
  for (unsigned I = 0; I < Resources; ++I)
    MD.addResource("r" + std::to_string(I));
  for (unsigned O = 0; O < Ops; ++O) {
    ReservationTable T;
    unsigned Usages = 1 + static_cast<unsigned>(R.nextBelow(3));
    for (unsigned U = 0; U < Usages; ++U)
      T.addUsage(static_cast<ResourceId>(R.nextBelow(Resources)),
                 static_cast<int>(R.nextBelow(5)));
    MD.addOperation("op" + std::to_string(O), std::move(T));
  }
  return MD;
}

} // namespace

TEST(ExactCover, Figure1OptimumIsFive) {
  Prepared P = prepare(loadMachine("fig1").take().MD);
  auto Exact = selectCoverOptimal(P.FLM, P.Pruned);
  ASSERT_TRUE(Exact.has_value());
  // Figure 1d: 5 usages (1 for A, 4 for B) are necessary and sufficient.
  EXPECT_EQ(Exact->Selection.numSelectedUsages(), 5u);

  // The greedy heuristic matches the optimum here.
  SelectionResult Greedy =
      selectCover(P.FLM, P.Pruned, SelectionObjective::resUses());
  EXPECT_EQ(Greedy.numSelectedUsages(),
            Exact->Selection.numSelectedUsages());
}

TEST(ExactCover, ProducesEquivalentDescriptions) {
  Prepared P = prepare(loadMachine("toy-vliw").take().MD);
  auto Exact = selectCoverOptimal(P.FLM, P.Pruned);
  ASSERT_TRUE(Exact.has_value());
  MachineDescription Reduced =
      buildReducedDescription(P.Flat, P.Pruned, Exact->Selection, ".opt");
  EXPECT_TRUE(verifyEquivalence(P.Flat, Reduced));
}

TEST(ExactCover, NeverWorseThanGreedy) {
  RNG R(777);
  int Compared = 0;
  for (int Trial = 0; Trial < 40; ++Trial) {
    Prepared P = prepare(randomMachine(R));
    auto Exact = selectCoverOptimal(P.FLM, P.Pruned, 200000);
    if (!Exact)
      continue;
    ++Compared;
    SelectionResult Greedy =
        selectCover(P.FLM, P.Pruned, SelectionObjective::resUses());
    EXPECT_LE(Exact->Selection.numSelectedUsages(),
              Greedy.numSelectedUsages())
        << "trial " << Trial;

    MachineDescription Reduced = buildReducedDescription(
        P.Flat, P.Pruned, Exact->Selection, ".opt");
    EXPECT_TRUE(verifyEquivalence(P.Flat, Reduced)) << "trial " << Trial;
  }
  EXPECT_GT(Compared, 20);
}

TEST(ExactCover, BudgetExhaustionReported) {
  Prepared P = prepare(loadMachine("cydra5").take().MD);
  // Two nodes are never enough for a real machine.
  EXPECT_FALSE(selectCoverOptimal(P.FLM, P.Pruned, 2).has_value());
}

TEST(ExactCover, EmptyMachine) {
  MachineDescription MD("empty");
  MD.addResource("r");
  Prepared P = prepare(MD);
  auto Exact = selectCoverOptimal(P.FLM, P.Pruned);
  ASSERT_TRUE(Exact.has_value());
  EXPECT_EQ(Exact->Selection.numSelectedUsages(), 0u);
}
