//===- tests/ExpansionTest.cpp - Pipeline expansion validation ------------===//
//
// The strongest modulo-semantics check in the suite: every kernel's
// modulo schedule, expanded over several overlapped iterations, must be
// contention-free on a *plain linear* reserved table and satisfy every
// dependence between iteration copies.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "sched/Expansion.h"
#include "sched/IterativeModuloScheduler.h"
#include "sched/ScheduleRender.h"
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

TEST(Expansion, IssueOrderingAndCycles) {
  std::vector<ExpandedIssue> Issues =
      expandPipelinedSchedule({0, 3}, /*II=*/2, /*Iterations=*/3);
  ASSERT_EQ(Issues.size(), 6u);
  // Cycles: node0 at 0,2,4; node1 at 3,5,7; sorted by cycle.
  EXPECT_EQ(Issues[0].Cycle, 0);
  EXPECT_EQ(Issues[0].Node, 0u);
  EXPECT_EQ(Issues[1].Cycle, 2);
  EXPECT_EQ(Issues[2].Cycle, 3);
  EXPECT_EQ(Issues[2].Node, 1u);
  EXPECT_EQ(Issues.back().Cycle, 7);
  EXPECT_EQ(Issues.back().Iteration, 2);
}

TEST(Expansion, AllKernelsExpandCleanly) {
  for (const char *Name : {"cydra5", "mips-r3000", "alpha21064", "playdoh"}) {
    MachineModel M = loadMachine(Name).take();
    ExpandedMachine EM = expandAlternatives(M.MD);
    for (const RoleGraph &K : livermoreKernels()) {
      DepGraph G = bind(K, M);
      ModuloScheduleResult R =
          moduloSchedule(G, M.MD, discreteEnv(EM.Flat, EM.Groups));
      ASSERT_TRUE(R.Success) << M.MD.name() << " " << K.Name;
      std::vector<OpId> Chosen =
          chosenFlatOps(G, EM.Groups, R.Alternative);
      EXPECT_TRUE(verifyExpandedSchedule(G, EM.Flat, Chosen, R.Time, R.II,
                                         /*Iterations=*/6))
          << M.MD.name() << " " << K.Name << " at II=" << R.II;
    }
  }
}

TEST(Expansion, DetectsATightenedII) {
  // The same placement at a smaller II must fail expansion: copies of the
  // partially pipelined multiply collide.
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  DepGraph G = bind(livermoreKernels()[1], Cydra); // inner_product
  ModuloScheduleResult R =
      moduloSchedule(G, Cydra.MD, discreteEnv(EM.Flat, EM.Groups));
  ASSERT_TRUE(R.Success);
  std::vector<OpId> Chosen = chosenFlatOps(G, EM.Groups, R.Alternative);
  ASSERT_TRUE(
      verifyExpandedSchedule(G, EM.Flat, Chosen, R.Time, R.II, 6));
  EXPECT_FALSE(
      verifyExpandedSchedule(G, EM.Flat, Chosen, R.Time, /*II=*/1, 6));
}
