//===- tests/WorkloadTest.cpp - Kernels, generator, corpus, experiment ----===//

#include "machines/Catalog.h"
#include "workload/Experiment.h"

#include "reduce/Reduction.h"
#include "sched/MII.h"

#include <gtest/gtest.h>

#include <set>

using namespace rmd;

TEST(RoleGraphBinding, ResolvesRolesWithFallback) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  // Toy VLIW has no FloatAdd: FloatAdd falls back to IntAlu ("alu").
  EXPECT_EQ(Toy.MD.operation(resolveRole(Toy, OpRole::FloatAdd)).Name,
            "alu");
  EXPECT_EQ(Toy.MD.operation(resolveRole(Toy, OpRole::FloatMul)).Name,
            "mul");
  // FloatDiv -> FloatMul on the toy.
  EXPECT_EQ(Toy.MD.operation(resolveRole(Toy, OpRole::FloatDiv)).Name,
            "mul");
  MachineModel Cydra = loadMachine("cydra5").take();
  EXPECT_EQ(Cydra.MD.operation(resolveRole(Cydra, OpRole::FloatDiv)).Name,
            "fdiv.s");
}

TEST(RoleGraphBinding, DelaysComeFromProducerLatency) {
  MachineModel Cydra = loadMachine("cydra5").take();
  RoleGraph RG;
  RG.Name = "t";
  uint32_t L = RG.addNode(OpRole::Load);
  uint32_t A = RG.addNode(OpRole::FloatAdd);
  RG.dataDep(L, A);
  RG.orderDep(L, A, 1, 2);

  DepGraph G = bind(RG, Cydra);
  ASSERT_EQ(G.numEdges(), 2u);
  EXPECT_EQ(G.edges()[0].Delay, Cydra.Latency[G.opOf(L)]);
  EXPECT_EQ(G.edges()[1].Delay, 1);
  EXPECT_EQ(G.edges()[1].Distance, 2);
}

TEST(Kernels, AllBindToAllMachines) {
  for (const char *Name : {"cydra5", "alpha21064", "mips-r3000", "toy-vliw",
                           "playdoh"}) {
    MachineModel M = loadMachine(Name).take();
    for (const RoleGraph &K : livermoreKernels()) {
      DepGraph G = bind(K, M);
      EXPECT_EQ(G.numNodes(), K.Nodes.size());
      EXPECT_EQ(G.numEdges(), K.Edges.size());
      EXPECT_GE(G.numNodes(), 4u) << K.Name;
    }
  }
}

TEST(Kernels, RecurrenceKernelsHaveCarriedEdges) {
  std::set<std::string> WithRecurrence = {
      "inner_product", "tridiag", "first_sum",    "banded",
      "complex_mac",   "horner",  "matmul_inner"};
  for (const RoleGraph &K : livermoreKernels()) {
    bool Carried = false;
    for (const RoleEdge &E : K.Edges)
      Carried |= E.Distance > 0 && E.UseProducerLatency;
    EXPECT_EQ(Carried, WithRecurrence.count(K.Name) == 1) << K.Name;
  }
}

TEST(Kernels, ReplicateScalesBodyAndSharesBranch) {
  RoleGraph K = livermoreKernels()[6]; // daxpy: 5 body nodes + branch
  RoleGraph R3 = replicate(K, 3);
  EXPECT_EQ(R3.Nodes.size(), 3 * (K.Nodes.size() - 1) + 1);
  unsigned Branches = 0;
  for (OpRole Role : R3.Nodes)
    Branches += Role == OpRole::Branch;
  EXPECT_EQ(Branches, 1u);

  // Each copy keeps its loop-carried edges.
  unsigned Carried = 0, CarriedOrig = 0;
  for (const RoleEdge &E : R3.Edges)
    Carried += E.Distance > 0;
  for (const RoleEdge &E : K.Edges)
    CarriedOrig += E.Distance > 0;
  EXPECT_EQ(Carried, 3 * CarriedOrig);
}

TEST(LoopGenerator, SizesWithinBoundsAndDeterministic) {
  LoopGeneratorParams P;
  RNG R1(5), R2(5);
  double Sum = 0;
  unsigned Max = 0, Min = 1000;
  for (int I = 0; I < 400; ++I) {
    RoleGraph A = generateLoop(R1, P);
    RoleGraph B = generateLoop(R2, P);
    EXPECT_EQ(A.Nodes.size(), B.Nodes.size());
    EXPECT_EQ(A.Edges.size(), B.Edges.size());
    EXPECT_GE(A.Nodes.size(), P.MinOps);
    EXPECT_LE(A.Nodes.size(), P.MaxOps + 1); // +1: appended branch
    Sum += static_cast<double>(A.Nodes.size());
    Max = std::max<unsigned>(Max, A.Nodes.size());
    Min = std::min<unsigned>(Min, A.Nodes.size());
  }
  double Mean = Sum / 400;
  EXPECT_GT(Mean, 8.0);
  EXPECT_LT(Mean, 30.0);
  EXPECT_LE(Min, 4u);   // small loops occur
  EXPECT_GT(Max, 60u);  // the long tail is exercised
}

TEST(LoopGenerator, GraphsAreValidLoopBodies) {
  MachineModel Mips = loadMachine("mips-r3000").take();
  RNG R(17);
  for (int I = 0; I < 200; ++I) {
    DepGraph G = bind(generateLoop(R), Mips);
    // All zero-distance edges must go forward (acyclic body).
    for (const DepEdge &E : G.edges()) {
      if (E.Distance == 0) {
        EXPECT_LT(E.From, E.To);
      }
    }
    // RecMII must be finite/sane (no zero-distance cycles).
    EXPECT_GE(computeRecMII(G), 1);
  }
}

TEST(Corpus, DeterministicAndSized) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  CorpusParams P;
  P.LoopCount = 60;
  std::vector<DepGraph> A = buildCorpus(Toy, P);
  std::vector<DepGraph> B = buildCorpus(Toy, P);
  ASSERT_EQ(A.size(), 60u);
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].numNodes(), B[I].numNodes());
    EXPECT_EQ(A[I].name(), B[I].name());
  }
  // Contains both kernel-derived and random loops.
  bool SawKernel = false, SawRandom = false;
  for (const DepGraph &G : A) {
    SawRandom |= G.name() == "rand";
    SawKernel |= G.name() != "rand";
  }
  EXPECT_TRUE(SawKernel);
  EXPECT_TRUE(SawRandom);
}

TEST(Experiment, SmokeRunOnMips) {
  MachineModel Mips = loadMachine("mips-r3000").take();
  ExpandedMachine EM = expandAlternatives(Mips.MD);

  CorpusParams P;
  P.LoopCount = 40;
  std::vector<DepGraph> Corpus = buildCorpus(Mips, P);

  RepresentationSpec Spec;
  Spec.Kind = RepresentationSpec::Discrete;
  Spec.FlatMD = &EM.Flat;
  Spec.Label = "original/discrete";

  SchedulerExperimentResult R =
      runSchedulerExperiment(Mips, EM.Groups, Spec, Corpus);
  EXPECT_EQ(R.Loops, 40u);
  EXPECT_EQ(R.Failed, 0u);
  EXPECT_GE(R.OpsPerLoop.min(), 2.0);
  EXPECT_GE(R.II.min(), 1.0);
  EXPECT_GE(R.IIOverMII.min(), 1.0);
  EXPECT_GE(R.DecisionsPerOp.min(), 1.0);
  EXPECT_GT(R.checksPerDecision(), 0.9);
  EXPECT_GT(R.Counters.CheckCalls, 0u);
  EXPECT_GT(R.Counters.AssignFreeCalls, 0u);
}

TEST(Experiment, WorkUnitsShrinkWithReduction) {
  // The headline of Table 6 in miniature: same corpus, same scheduler,
  // reduced description does fewer work units per call than the original.
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

  CorpusParams P;
  P.LoopCount = 30;
  std::vector<DepGraph> Corpus = buildCorpus(Cydra, P);

  RepresentationSpec Orig;
  Orig.FlatMD = &EM.Flat;
  Orig.Label = "orig";
  RepresentationSpec Red;
  Red.FlatMD = &Reduced;
  Red.Label = "red";

  SchedulerExperimentResult RO =
      runSchedulerExperiment(Cydra, EM.Groups, Orig, Corpus);
  SchedulerExperimentResult RR =
      runSchedulerExperiment(Cydra, EM.Groups, Red, Corpus);

  EXPECT_EQ(RO.Failed, 0u);
  EXPECT_EQ(RR.Failed, 0u);
  // Identical scheduling traces: same call counts...
  EXPECT_EQ(RO.Counters.totalCalls(), RR.Counters.totalCalls());
  // ...but fewer units for the reduced description.
  EXPECT_LT(RR.Counters.totalUnits(), RO.Counters.totalUnits());
}
