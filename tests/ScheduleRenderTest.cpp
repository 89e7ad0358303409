//===- tests/ScheduleRenderTest.cpp - Schedule rendering tests ------------===//

#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "sched/IterativeModuloScheduler.h"
#include "sched/ScheduleRender.h"
#include "workload/Kernels.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rmd;

TEST(ScheduleRender, IssueOrderSortedByTime) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G("g");
  G.addNode(Toy.MD.findOperation("load"), "ld");
  G.addNode(Toy.MD.findOperation("alu"), "add");
  std::vector<int> Time = {3, 0};
  std::vector<int> Alternative = {0, 1};

  std::vector<OpId> Chosen = chosenFlatOps(G, EM.Groups, Alternative);
  EXPECT_EQ(EM.Flat.operation(Chosen[1]).Name, "alu@1");

  std::ostringstream OS;
  renderIssueOrder(OS, G, EM.Flat, Chosen, Time);
  std::string Out = OS.str();
  // "add" at t=0 must precede "ld" at t=3.
  EXPECT_LT(Out.find("t=0  add"), Out.find("t=3  ld"));
}

TEST(ScheduleRender, KernelShowsStagesAndEmptySlots) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  DepGraph G("g");
  G.addNode(Toy.MD.findOperation("load"));
  G.addNode(Toy.MD.findOperation("alu"));
  std::vector<int> Time = {0, 7}; // II=3: slots 0 and 1, stages 0 and 2
  std::vector<int> Alternative = {0, 0};
  std::vector<OpId> Chosen = chosenFlatOps(G, EM.Groups, Alternative);

  std::ostringstream OS;
  renderKernel(OS, G, EM.Flat, Chosen, Time, 3);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("slot 0: load[stage 0]"), std::string::npos);
  EXPECT_NE(Out.find("slot 1: alu@0[stage 2]"), std::string::npos);
  EXPECT_NE(Out.find("slot 2: (empty)"), std::string::npos);
}

TEST(ScheduleRender, AnalyzeKernelShapes) {
  // Times {0, 7, 8} at II=3: max stage floor(8/3)=2 -> 3 stages, prologue
  // 6 cycles; slots 0,1,2 hold {0}, {7}, {8}: all occupied, width 1.
  KernelInfo Info = analyzeKernel({0, 7, 8}, 3);
  EXPECT_EQ(Info.Stages, 3);
  EXPECT_EQ(Info.PrologueCycles, 6);
  EXPECT_EQ(Info.OccupiedSlots, 3);
  EXPECT_EQ(Info.MaxSlotWidth, 1);

  // Everything in one slot.
  KernelInfo Flat = analyzeKernel({0, 4, 8}, 4);
  EXPECT_EQ(Flat.Stages, 3);
  EXPECT_EQ(Flat.OccupiedSlots, 1);
  EXPECT_EQ(Flat.MaxSlotWidth, 3);

  // Single-stage loop: no prologue.
  KernelInfo Single = analyzeKernel({0, 1}, 4);
  EXPECT_EQ(Single.Stages, 1);
  EXPECT_EQ(Single.PrologueCycles, 0);

  // Empty schedule is well-defined.
  KernelInfo Empty = analyzeKernel({}, 5);
  EXPECT_EQ(Empty.Stages, 0);
}

TEST(ScheduleRender, RealKernelRoundTrip) {
  // Render an actual modulo schedule; every node must appear exactly once
  // across the kernel rows.
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);
  DepGraph G = bind(livermoreKernels()[6], Cydra); // daxpy

  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, C));
  };
  ModuloScheduleResult R = moduloSchedule(G, Cydra.MD, Env);
  ASSERT_TRUE(R.Success);

  std::vector<OpId> Chosen = chosenFlatOps(G, EM.Groups, R.Alternative);
  std::ostringstream OS;
  renderKernel(OS, G, EM.Flat, Chosen, R.Time, R.II);
  std::string Out = OS.str();

  size_t Mentions = 0;
  for (size_t Pos = Out.find("[stage "); Pos != std::string::npos;
       Pos = Out.find("[stage ", Pos + 1))
    ++Mentions;
  EXPECT_EQ(Mentions, G.numNodes());
}
