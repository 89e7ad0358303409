//===- examples/pipeline_scheduling.cpp - Software pipelining demo --------===//
//
// Modulo-schedules a Livermore-style kernel (tri-diagonal elimination) on
// the Cydra 5 with the Iterative Modulo Scheduler, once against the
// original machine description and once against its reduction, and prints
// the kernel schedule, the modulo reservation table, and the query-module
// work both descriptions spent -- the paper's end-to-end story in one
// screen.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "reduce/ReductionCache.h"
#include "sched/IterativeModuloScheduler.h"
#include "sched/ScheduleRender.h"
#include "workload/Kernels.h"

#include <iomanip>
#include <iostream>

using namespace rmd;

static QueryEnvironment environmentFor(const MachineDescription &Flat,
                                       const ExpandedMachine &EM) {
  QueryEnvironment Env;
  Env.FlatMD = &Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&Flat](QueryConfig Config) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(Flat, Config));
  };
  return Env;
}

int main() {
  MachineModel Cydra = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Cydra.MD);

  // The kernel: x[i] = z[i] * (y[i] - x[i-1]) -- a first-order recurrence.
  RoleGraph Kernel = livermoreKernels()[2];
  DepGraph G = bind(Kernel, Cydra);

  std::cout << "=== modulo scheduling '" << G.name() << "' on the Cydra 5 "
               "===\n\n";
  std::cout << "loop body (" << G.numNodes() << " operations):\n";
  for (NodeId N = 0; N < G.numNodes(); ++N)
    std::cout << "  [" << N << "] " << Cydra.MD.operation(G.opOf(N)).Name
              << "\n";
  std::cout << "dependences (delay, distance):\n";
  for (const DepEdge &E : G.edges())
    std::cout << "  [" << E.From << "] -> [" << E.To << "]  (" << E.Delay
              << ", " << E.Distance << ")\n";

  ModuloScheduleResult R =
      moduloSchedule(G, Cydra.MD, environmentFor(EM.Flat, EM));
  if (!R.Success) {
    std::cerr << "scheduling failed\n";
    return 1;
  }

  std::cout << "\nResMII = " << R.Stats.ResMII
            << ", RecMII = " << R.Stats.RecMII << ", MII = " << R.Stats.MII
            << "  ->  II = " << R.II << "\n\n";

  std::vector<OpId> Chosen = chosenFlatOps(G, EM.Groups, R.Alternative);
  std::cout << "schedule (issue order):\n";
  renderIssueOrder(std::cout, G, EM.Flat, Chosen, R.Time);
  std::cout << "\nsoftware-pipeline kernel (one iteration every " << R.II
            << " cycles):\n";
  renderKernel(std::cout, G, EM.Flat, Chosen, R.Time, R.II);

  // Replay against the reduced description: identical schedule, less work.
  MachineDescription Reduced = reduceMachineCached(EM.Flat).Reduced;
  ModuloScheduleResult R2 =
      moduloSchedule(G, Cydra.MD, environmentFor(Reduced, EM));

  std::cout << "\n=== original vs reduced description ===\n";
  std::cout << "II: " << R.II << " vs " << R2.II
            << (R.Time == R2.Time ? "  (identical schedules)"
                                  : "  (SCHEDULES DIFFER: bug!)")
            << "\n";
  std::cout << "query-module work units: " << R.Counters.totalUnits()
            << " vs " << R2.Counters.totalUnits() << "  ("
            << std::fixed << std::setprecision(2)
            << static_cast<double>(R.Counters.totalUnits()) /
                   static_cast<double>(R2.Counters.totalUnits())
            << "x less work with the reduced description)\n";
  std::cout << "check queries issued: " << R.Counters.CheckCalls
            << ", scheduling decisions: " << R.Stats.totalDecisions()
            << "\n";
  return R.Time == R2.Time ? 0 : 1;
}
