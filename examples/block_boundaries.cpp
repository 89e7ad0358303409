//===- examples/block_boundaries.cpp - Dangling resource requirements -----===//
//
// Demonstrates the boundary-condition support the paper highlights against
// automaton approaches: resource requirements *dangling* from predecessor
// basic blocks constrain the first cycles of the current block. The
// reserved table is seeded with operations issued at negative cycles (as
// if scheduled near the end of a predecessor), and a basic block is then
// list-scheduled around them -- against both the original and the reduced
// Alpha 21064 description, with identical results.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "sched/ListScheduler.h"

#include <iostream>

using namespace rmd;

int main() {
  MachineModel Alpha = loadMachine("alpha21064").take();
  ExpandedMachine EM = expandAlternatives(Alpha.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;

  OpId Fdivd = Alpha.MD.findOperation("fdivd");
  OpId Fadd = Alpha.MD.findOperation("fadd");
  OpId Load = Alpha.MD.findOperation("load");
  OpId Ialu = Alpha.MD.findOperation("ialu");

  // The predecessor block issued a double divide 40 cycles before the
  // branch: its divider reservation dangles deep into this block.
  std::vector<DanglingOp> Dangling = {{EM.Groups[Fdivd][0], -40}};

  // This block: two loads feeding an FP add, an integer op, and another
  // divide that must wait for the dangling one to leave the divider.
  DepGraph G("succ-block");
  NodeId L1 = G.addNode(Load);
  NodeId L2 = G.addNode(Load);
  NodeId A = G.addNode(Fadd);
  G.addNode(Ialu); // independent filler op
  NodeId D = G.addNode(Fdivd);
  G.addEdge(L1, A, Alpha.Latency[Load]);
  G.addEdge(L2, A, Alpha.Latency[Load]);
  G.addEdge(A, D, Alpha.Latency[Fadd]);

  auto runWith = [&](const MachineDescription &Flat) {
    DiscreteQueryModule Q(Flat, QueryConfig::linear(-64));
    return listSchedule(G, EM.Groups, Q, Dangling);
  };

  ListScheduleResult RO = runWith(EM.Flat);
  ListScheduleResult RR = runWith(Reduced);
  if (!RO.Success || !RR.Success) {
    std::cerr << "scheduling failed\n";
    return 1;
  }

  std::cout << "=== scheduling a block below a dangling fdivd@-40 "
               "(Alpha 21064) ===\n\n";
  std::cout << "the divider is busy through cycle "
            << (-40 + 58) << " of this block\n\n";
  const char *Names[] = {"load#1", "load#2", "fadd", "ialu", "fdivd"};
  for (NodeId N = 0; N < G.numNodes(); ++N)
    std::cout << "  " << Names[N] << " -> cycle " << RO.Time[N] << "\n";

  std::cout << "\nwithout the dangling divide, the same block schedules "
               "as:\n";
  DiscreteQueryModule Clean(EM.Flat, QueryConfig::linear(-64));
  ListScheduleResult RC = listSchedule(G, EM.Groups, Clean);
  for (NodeId N = 0; N < G.numNodes(); ++N)
    std::cout << "  " << Names[N] << " -> cycle " << RC.Time[N] << "\n";

  bool Identical = RO.Time == RR.Time && RO.Alternative == RR.Alternative;
  std::cout << "\nreduced description produces "
            << (Identical ? "the identical schedule" : "A DIFFERENT "
                                                       "schedule: bug!")
            << " under the same boundary conditions\n";
  std::cout << "note: the new fdivd waits for the dangling one ("
            << RO.Time[D] << " > " << RC.Time[D] << ")\n";
  return Identical ? 0 : 1;
}
