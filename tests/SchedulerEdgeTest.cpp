//===- tests/SchedulerEdgeTest.cpp - Scheduler edge cases & failures ------===//

#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "sched/IterativeModuloScheduler.h"
#include "sched/ListScheduler.h"
#include "sched/MII.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

QueryEnvironment discreteEnv(const MachineDescription &Flat,
                             const std::vector<std::vector<OpId>> &Groups) {
  QueryEnvironment Env;
  Env.FlatMD = &Flat;
  Env.Groups = &Groups;
  Env.MakeModule = [&Flat](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(Flat, C));
  };
  return Env;
}

} // namespace

TEST(ModuloSchedulerEdge, SingleOperationLoop) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G("one");
  G.addNode(Toy.MD.findOperation("alu"));

  ModuloScheduleResult R =
      moduloSchedule(G, Toy.MD, discreteEnv(EM.Flat, EM.Groups));
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.II, 1);
  EXPECT_EQ(R.Time[0], 0);
  EXPECT_EQ(R.Stats.totalDecisions(), 1u);
}

TEST(ModuloSchedulerEdge, SelfRecurrenceDictatesII) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G("selfrec");
  NodeId Mul = G.addNode(Toy.MD.findOperation("mul"));
  G.addEdge(Mul, Mul, Toy.Latency[G.opOf(Mul)], 1); // latency 4, distance 1

  ModuloScheduleResult R =
      moduloSchedule(G, Toy.MD, discreteEnv(EM.Flat, EM.Groups));
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.Stats.RecMII, 4);
  EXPECT_EQ(R.II, 4);
}

TEST(ModuloSchedulerEdge, SelfConflictForcesHigherII) {
  // The toy multiplier is busy 3 consecutive cycles: at II < 3 the op
  // collides with its own copies, so the scheduler must settle at II >= 3
  // even though ResMII of a single mul is 3 anyway; with two muls the
  // bound doubles.
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G("twomul");
  G.addNode(Toy.MD.findOperation("mul"));
  G.addNode(Toy.MD.findOperation("mul"));

  ModuloScheduleResult R =
      moduloSchedule(G, Toy.MD, discreteEnv(EM.Flat, EM.Groups));
  ASSERT_TRUE(R.Success);
  EXPECT_GE(R.II, 6);
}

TEST(ModuloSchedulerEdge, MaxIICeilingFails) {
  // An impossible ceiling: II may not exceed 2, but the two muls need 6.
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G("toohard");
  G.addNode(Toy.MD.findOperation("mul"));
  G.addNode(Toy.MD.findOperation("mul"));

  ModuloScheduleOptions Options;
  Options.MaxII = 2;
  ModuloScheduleResult R =
      moduloSchedule(G, Toy.MD, discreteEnv(EM.Flat, EM.Groups), Options);
  EXPECT_FALSE(R.Success);
  // MII (6) already exceeds the ceiling: no attempt is even made.
  EXPECT_TRUE(R.Stats.DecisionsPerAttempt.empty());
  EXPECT_EQ(R.Stats.MII, 6);
}

TEST(ModuloSchedulerEdge, PlayDohAlternativesAllUsed) {
  // Four-way alternatives: a loop with four independent integer adds at
  // II=2 must spread over both integer units and both write ports.
  MachineModel PD = loadMachine("playdoh").take();
  ExpandedMachine EM = expandAlternatives(PD.MD);
  DepGraph G("fouradds");
  OpId IAdd = PD.MD.findOperation("iadd");
  for (int I = 0; I < 4; ++I)
    G.addNode(IAdd);

  ModuloScheduleResult R =
      moduloSchedule(G, PD.MD, discreteEnv(EM.Flat, EM.Groups));
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.II, 2); // 4 adds, 2 write ports
  std::set<int> AltsUsed(R.Alternative.begin(), R.Alternative.end());
  EXPECT_GE(AltsUsed.size(), 2u);
}

TEST(ModuloSchedulerEdge, DeterministicAcrossRuns) {
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  DepGraph G = bind(livermoreKernels()[0], Cydra);
  ModuloScheduleResult A =
      moduloSchedule(G, Cydra.MD, discreteEnv(EM.Flat, EM.Groups));
  ModuloScheduleResult B =
      moduloSchedule(G, Cydra.MD, discreteEnv(EM.Flat, EM.Groups));
  ASSERT_TRUE(A.Success);
  EXPECT_EQ(A.II, B.II);
  EXPECT_EQ(A.Time, B.Time);
  EXPECT_EQ(A.Alternative, B.Alternative);
}

TEST(ListSchedulerEdge, IndependentOpsPackToWidth) {
  // Two independent ALU ops on the 2-slot toy VLIW issue the same cycle
  // (different slots); a third waits for the shared writeback bus.
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G("indep");
  OpId Alu = Toy.MD.findOperation("alu");
  G.addNode(Alu);
  G.addNode(Alu);
  G.addNode(Alu);

  DiscreteQueryModule Q(EM.Flat, QueryConfig::linear());
  ListScheduleResult R = listSchedule(G, EM.Groups, Q);
  ASSERT_TRUE(R.Success);
  // Two ops at cycle 0 is impossible: both write WbBus at cycle 1. So
  // the schedule serializes on the bus: cycles 0, 1, 2.
  std::vector<int> Times = R.Time;
  std::sort(Times.begin(), Times.end());
  EXPECT_EQ(Times, (std::vector<int>{0, 1, 2}));
}

TEST(ListSchedulerEdge, EmptyTableOpsStack) {
  // Operations with no resource usages can all share cycle 0.
  MachineDescription MD("nops");
  MD.addResource("r");
  MD.addOperation("nop", ReservationTable());
  ExpandedMachine EM = expandAlternatives(MD);

  DepGraph G("threenops");
  for (int I = 0; I < 3; ++I)
    G.addNode(0);
  DiscreteQueryModule Q(EM.Flat, QueryConfig::linear());
  ListScheduleResult R = listSchedule(G, EM.Groups, Q);
  ASSERT_TRUE(R.Success);
  for (NodeId N = 0; N < 3; ++N)
    EXPECT_EQ(R.Time[N], 0);
}

TEST(ModuloSchedulerEdge, PriorityVariantsProduceValidSchedules) {
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  for (SchedulePriority Priority :
       {SchedulePriority::Height, SchedulePriority::Depth,
        SchedulePriority::SourceOrder}) {
    for (size_t K : {0u, 2u, 6u, 20u}) { // a spread of kernels
      DepGraph G = bind(livermoreKernels()[K], Cydra);
      ModuloScheduleOptions Options;
      Options.Priority = Priority;
      ModuloScheduleResult R = moduloSchedule(
          G, Cydra.MD, discreteEnv(EM.Flat, EM.Groups), Options);
      ASSERT_TRUE(R.Success)
          << "priority " << static_cast<int>(Priority) << " kernel " << K;
      EXPECT_TRUE(G.scheduleRespectsDependences(R.Time, R.II));
    }
  }
}

TEST(WorkCountersEdge, AccumulateAndTotals) {
  WorkCounters A, B;
  A.CheckCalls = 2;
  A.CheckUnits = 5;
  A.AssignFreeUnits = 7;
  B.CheckCalls = 1;
  B.FreeUnits = 3;
  B.TransitionUnits = 2;
  A.accumulate(B);
  EXPECT_EQ(A.CheckCalls, 3u);
  EXPECT_EQ(A.CheckUnits, 5u);
  EXPECT_EQ(A.FreeUnits, 3u);
  EXPECT_EQ(A.TransitionUnits, 2u);
  EXPECT_EQ(A.totalUnits(), 5u + 3u + 7u);
  A.reset();
  EXPECT_EQ(A.totalCalls(), 0u);
}

TEST(QueryDeath, AssignFreeOnModuloSelfConflictAborts) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  OpId B = MD.findOperation("B");
  DiscreteQueryModule Q(MD, QueryConfig::modulo(2)); // B self-conflicts
  std::vector<InstanceId> Evicted;
  EXPECT_DEATH(Q.assignAndFree(B, 0, 1, Evicted), "self-conflicts");
}

TEST(MIIEdge, ZeroDistancePositiveCycleAborts) {
  DepGraph G("bad");
  NodeId A = G.addNode(0);
  NodeId B = G.addNode(0);
  // A zero-distance cycle (invalid loop body) alongside a genuine carried
  // edge: no II can satisfy it, which computeRecMII must refuse loudly.
  G.addEdge(A, B, 1, 0);
  G.addEdge(B, A, 1, 0);
  G.addEdge(A, A, 1, 1);
  EXPECT_DEATH(computeRecMII(G), "no initiation interval");
}

TEST(MIIEdge, PureZeroDistanceGraphIsAcyclicBound) {
  // Without carried edges RecMII is trivially 1 (basic-block semantics).
  DepGraph G("dag");
  NodeId A = G.addNode(0);
  NodeId B = G.addNode(0);
  G.addEdge(A, B, 4, 0);
  EXPECT_EQ(computeRecMII(G), 1);
}
