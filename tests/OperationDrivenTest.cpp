//===- tests/OperationDrivenTest.cpp - Critical-path-first scheduling -----===//

#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "sched/OperationDrivenScheduler.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

/// Builds a random acyclic block over \p M's operations.
DepGraph randomBlock(RNG &R, const MachineModel &M, unsigned N) {
  DepGraph G("block");
  for (unsigned I = 0; I < N; ++I)
    G.addNode(static_cast<OpId>(R.nextBelow(M.MD.numOperations())));
  for (NodeId V = 1; V < N; ++V)
    if (R.nextChance(3, 4)) {
      NodeId From = static_cast<NodeId>(R.nextBelow(V));
      G.addEdge(From, V, M.Latency[G.opOf(From)]);
    }
  return G;
}

/// Re-validates a schedule on a fresh module: every placement must be
/// contention-free in isolation.
void expectFeasible(const MachineDescription &Flat,
                    const std::vector<std::vector<OpId>> &Groups,
                    const DepGraph &G, const OperationDrivenResult &R) {
  ASSERT_TRUE(R.Success);
  DiscreteQueryModule Q(Flat, QueryConfig::linear(-64));
  for (NodeId V = 0; V < G.numNodes(); ++V) {
    OpId Flat0 = Groups[G.opOf(V)][R.Alternative[V]];
    ASSERT_TRUE(Q.check(Flat0, R.Time[V])) << "node " << V;
    Q.assign(Flat0, R.Time[V], static_cast<InstanceId>(V));
  }
  EXPECT_TRUE(G.scheduleRespectsDependences(R.Time, 0));
}

} // namespace

TEST(OperationDriven, PlacesOutOfCycleOrder) {
  // Priority order is critical-path height, so the long-latency chain is
  // placed first and the independent low op lands *earlier or equal* in
  // time despite being scheduled later -- the unrestricted placement the
  // paper's Section 1 highlights.
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G("ooo");
  OpId Mul = Toy.MD.findOperation("mul");
  OpId Alu = Toy.MD.findOperation("alu");
  NodeId M1 = G.addNode(Mul);
  NodeId M2 = G.addNode(Mul);
  NodeId A = G.addNode(Alu); // independent, low height
  G.addEdge(M1, M2, Toy.Latency[Mul]);

  DiscreteQueryModule Q(EM.Flat, QueryConfig::linear());
  OperationDrivenResult R =
      operationDrivenSchedule(G, EM.Groups, EM.Flat, Q);
  expectFeasible(EM.Flat, EM.Groups, G, R);
  EXPECT_EQ(R.Time[M1], 0);
  EXPECT_LE(R.Time[A], R.Time[M2]); // scheduled last, placed early
}

TEST(OperationDriven, DanglingResidueReported) {
  // A trailing mul holds the multiplier past the block's last issue
  // cycle; the result must report it as residue for the successor.
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G("resid");
  G.addNode(Toy.MD.findOperation("alu"));
  NodeId M = G.addNode(Toy.MD.findOperation("mul"));

  DiscreteQueryModule Q(EM.Flat, QueryConfig::linear());
  OperationDrivenResult R =
      operationDrivenSchedule(G, EM.Groups, EM.Flat, Q);
  expectFeasible(EM.Flat, EM.Groups, G, R);
  bool Found = false;
  for (const DanglingOp &D : R.Dangling)
    Found |= D.Cycle == R.Time[M] - R.Length;
  EXPECT_TRUE(Found) << "mul's residue not reported";
}

TEST(OperationDriven, BlockSequencePropagatesResidue) {
  // Two identical mul-heavy blocks: the second block's mul must start
  // later than it would in isolation because block 1's divider^Wmultiplier
  // reservation dangles into it.
  MachineModel Alpha = loadMachine("alpha21064").take();
  ExpandedMachine EM = expandAlternatives(Alpha.MD);
  OpId Fdivd = Alpha.MD.findOperation("fdivd");

  DepGraph B1("b1"), B2("b2");
  B1.addNode(Fdivd);
  B2.addNode(Fdivd);

  auto MakeModule = [&]() {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, QueryConfig::linear(-80)));
  };
  std::vector<OperationDrivenResult> Results = scheduleBlockSequence(
      {&B1, &B2}, EM.Groups, EM.Flat, MakeModule);
  ASSERT_EQ(Results.size(), 2u);
  ASSERT_TRUE(Results[0].Success);
  ASSERT_TRUE(Results[1].Success);
  EXPECT_EQ(Results[0].Time[0], 0);
  // Block 1 is one cycle long (single op) but its divider is busy for ~57
  // more; block 2's divide cannot start at 0.
  EXPECT_GT(Results[1].Time[0], 40);

  // Without residue the same block starts immediately.
  DiscreteQueryModule Clean(EM.Flat, QueryConfig::linear(-80));
  OperationDrivenResult Solo =
      operationDrivenSchedule(B2, EM.Groups, EM.Flat, Clean);
  EXPECT_EQ(Solo.Time[0], 0);
}

TEST(OperationDriven, MatchesReducedDescription) {
  // Original and reduced descriptions must drive identical operation-
  // driven schedules (the unrestricted analogue of the paper's 1327-loop
  // validation).
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

  RNG R(2024);
  for (int Trial = 0; Trial < 20; ++Trial) {
    DepGraph G = randomBlock(R, Cydra, 4 + R.nextBelow(14));
    DiscreteQueryModule QO(EM.Flat, QueryConfig::linear(-64));
    DiscreteQueryModule QR(Reduced, QueryConfig::linear(-64));
    OperationDrivenResult RO =
        operationDrivenSchedule(G, EM.Groups, EM.Flat, QO);
    OperationDrivenResult RR =
        operationDrivenSchedule(G, EM.Groups, Reduced, QR);
    ASSERT_TRUE(RO.Success);
    ASSERT_TRUE(RR.Success);
    EXPECT_EQ(RO.Time, RR.Time) << "trial " << Trial;
    EXPECT_EQ(RO.Alternative, RR.Alternative) << "trial " << Trial;

    // The dangling *lists* may differ (reduced tables can be shorter),
    // but the constraints they impose on a successor block are identical:
    // scheduling the same follow-up block under each residue must produce
    // the same schedule.
    DepGraph Succ = randomBlock(R, Cydra, 4 + R.nextBelow(8));
    DiscreteQueryModule SO(EM.Flat, QueryConfig::linear(-64));
    DiscreteQueryModule SR(Reduced, QueryConfig::linear(-64));
    OperationDrivenResult TO = operationDrivenSchedule(
        Succ, EM.Groups, EM.Flat, SO, RO.Dangling);
    OperationDrivenResult TR = operationDrivenSchedule(
        Succ, EM.Groups, Reduced, SR, RR.Dangling);
    ASSERT_TRUE(TO.Success);
    ASSERT_TRUE(TR.Success);
    EXPECT_EQ(TO.Time, TR.Time) << "successor, trial " << Trial;
    EXPECT_EQ(TO.Alternative, TR.Alternative)
        << "successor, trial " << Trial;
  }
}

TEST(OperationDriven, RandomBlocksAllMachines) {
  for (const char *Name : {"toy-vliw", "mips-r3000", "alpha21064", "playdoh"}) {
    MachineModel M = loadMachine(Name).take();
    ExpandedMachine EM = expandAlternatives(M.MD);
    RNG R(99);
    for (int Trial = 0; Trial < 15; ++Trial) {
      DepGraph G = randomBlock(R, M, 3 + R.nextBelow(20));
      DiscreteQueryModule Q(EM.Flat, QueryConfig::linear(-64));
      OperationDrivenResult Res =
          operationDrivenSchedule(G, EM.Groups, EM.Flat, Q);
      expectFeasible(EM.Flat, EM.Groups, G, Res);
    }
  }
}
