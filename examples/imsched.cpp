//===- examples/imsched.cpp - Command-line modulo scheduler ---------------===//
//
// Software-pipelines a loop written in the loop-graph text format (see
// docs/mdl.md and sched/GraphIO.h) on any catalog machine or on an
// annotated MDL description, using the reduced machine description and
// the Iterative Modulo Scheduler. Prints MII analysis, the schedule, and
// the kernel view.
//
// Usage:
//   imsched [--machine=fig1|cydra5|alpha21064|mips-r3000|toy-vliw|playdoh|
//                      m88100] [--mdl=<machine.mdl>] [--budget=<ratio>]
//           [--deadline-ms=<n>] [--faults=<spec>] [loop.graph | -]
//
// With no loop file, schedules a built-in sample (the tri-diagonal
// elimination kernel) so the tool runs out of the box.
//
// Failures degrade instead of aborting: a failed reduction schedules
// against the original description (identical constraints by Theorem 1,
// with a warning); an infeasible recurrence prints the offending cycle; an
// expired --deadline-ms reports the partial schedule state. --faults arms
// the deterministic fault-injection registry (same grammar as RMD_FAULTS;
// see support/FaultInjection.h).
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "machines/MdlModel.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "reduce/ReductionCache.h"
#include "sched/GraphIO.h"
#include "sched/IterativeModuloScheduler.h"
#include "sched/ScheduleRender.h"
#include "support/Degradation.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"

#include <fstream>
#include <iostream>
#include <sstream>

using namespace rmd;

static const char *SampleLoop = R"(# x[i] = z[i] * (y[i] - x[i-1])
loop tridiag {
  ld_z: load;
  ld_y: load;
  sub:  fadd.s;
  mul:  fmul.s;
  st:   store;
  br:   brtop;
  edge ld_y -> sub;
  edge mul  -> sub distance 1;
  edge ld_z -> mul;
  edge sub  -> mul;
  edge mul  -> st;
  edge st   -> br delay 0;
}
)";

static void usage() {
  std::cerr << "usage: imsched [--machine=<name>] [--mdl=<machine.mdl>] "
               "[--budget=<ratio>] [--deadline-ms=<n>] [--faults=<spec>] "
               "[--stats-json=<file>] [loop.graph | -]\n";
}

int main(int Argc, char **Argv) {
  // Consumes --stats-json=<path> (or RMD_STATS_JSON) and writes the
  // observability snapshot on exit; see docs/observability.md.
  StatsJsonGuard StatsJson(Argc, Argv, "imsched");
  std::string MachineName = "cydra5";
  std::string MdlPath;
  std::string LoopPath;
  ModuloScheduleOptions Options;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--machine=", 0) == 0) {
      MachineName = Arg.substr(sizeof("--machine=") - 1);
    } else if (Arg.rfind("--mdl=", 0) == 0) {
      MdlPath = Arg.substr(sizeof("--mdl=") - 1);
    } else if (Arg.rfind("--budget=", 0) == 0) {
      Options.BudgetRatio = std::atoi(Arg.c_str() + sizeof("--budget=") - 1);
      if (Options.BudgetRatio < 1) {
        std::cerr << "imsched: error: bad budget ratio\n";
        return 1;
      }
    } else if (Arg.rfind("--deadline-ms=", 0) == 0) {
      long Millis = std::atol(Arg.c_str() + sizeof("--deadline-ms=") - 1);
      if (Millis < 1) {
        std::cerr << "imsched: error: bad deadline\n";
        return 1;
      }
      Options.TheDeadline = Deadline::afterMillis(Millis);
    } else if (Arg.rfind("--faults=", 0) == 0) {
      Status S = FaultInjection::instance().configure(
          Arg.substr(sizeof("--faults=") - 1));
      if (!S) {
        std::cerr << "imsched: error: " << S.render() << "\n";
        return 1;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-' && Arg != "-") {
      std::cerr << "imsched: error: unknown option '" << Arg << "'\n";
      usage();
      return 1;
    } else {
      LoopPath = Arg;
    }
  }

  // Resolve the machine.
  MachineModel Model;
  if (!MdlPath.empty()) {
    std::ifstream In(MdlPath);
    if (!In) {
      std::cerr << "imsched: error: cannot open '" << MdlPath << "'\n";
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    DiagnosticEngine Diags;
    std::optional<MachineModel> Parsed = parseMdlModel(SS.str(), Diags);
    Diags.print(std::cerr, MdlPath);
    if (!Parsed)
      return 1;
    Model = std::move(*Parsed);
  } else {
    Expected<MachineModel> Loaded = loadMachine(MachineName);
    if (!Loaded) {
      std::cerr << "imsched: error: " << Loaded.status().message() << "\n";
      return 1;
    }
    Model = Loaded.take();
  }

  // Read the loop.
  std::string LoopText;
  std::string LoopName = "<builtin tridiag>";
  if (LoopPath.empty() || LoopPath == "-") {
    LoopText = SampleLoop;
  } else {
    std::ifstream In(LoopPath);
    if (!In) {
      std::cerr << "imsched: error: cannot open '" << LoopPath << "'\n";
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    LoopText = SS.str();
    LoopName = LoopPath;
  }

  DiagnosticEngine Diags;
  std::optional<DepGraph> G = parseLoopGraph(LoopText, Model, Diags);
  if (!G) {
    Diags.print(std::cerr, LoopName);
    return 1;
  }

  // Reduce the description and schedule against it; a failed reduction
  // falls back to the original description (identical constraints by
  // Theorem 1, so the schedule below is unaffected).
  ExpandedMachine EM = expandAlternatives(Model.MD);
  SafeReduction Safe = reduceMachineOrFallback(EM.Flat);
  if (Safe.Degraded)
    std::cerr << "imsched: warning: " << Safe.Why.render()
              << "; scheduling against the original description\n";
  MachineDescription Reduced = std::move(Safe.Result.Reduced);

  QueryEnvironment Env;
  Env.FlatMD = &Reduced;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&Reduced](QueryConfig Config) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(Reduced, Config));
  };

  ModuloScheduleResult R = moduloSchedule(*G, Model.MD, Env, Options);
  std::cout << "machine " << Model.MD.name() << ", loop '" << G->name()
            << "' (" << G->numNodes() << " ops, " << G->numEdges()
            << " deps)\n";
  if (R.Outcome == ScheduleOutcome::InfeasibleRecurrence) {
    std::cerr << "imsched: error: loop '" << G->name() << "': "
              << R.Error.message() << "\n";
    return 1;
  }
  std::cout << "ResMII " << R.Stats.ResMII << ", RecMII " << R.Stats.RecMII
            << " -> MII " << R.Stats.MII << "\n";
  if (R.Stats.Degradation.total() || Safe.Degraded)
    std::cerr << "imsched: degradations: "
              << globalDegradation().snapshot() << "\n";
  if (R.Outcome == ScheduleOutcome::TimedOut ||
      R.Outcome == ScheduleOutcome::Cancelled) {
    size_t Placed = 0;
    for (int A : R.Alternative)
      Placed += A >= 0;
    std::cerr << "imsched: " << R.Error.message() << " (best-so-far: "
              << Placed << "/" << R.Alternative.size()
              << " ops placed at II=" << R.II << ")\n";
    return 1;
  }
  if (!R.Success) {
    std::cerr << "imsched: no schedule found up to the II ceiling\n";
    return 1;
  }

  std::cout << "II = " << R.II << " ("
            << R.Stats.DecisionsPerAttempt.size() << " attempt(s), "
            << R.Stats.totalDecisions() << " decisions)\n\nschedule:\n";
  std::vector<OpId> Chosen = chosenFlatOps(*G, EM.Groups, R.Alternative);
  renderIssueOrder(std::cout, *G, Reduced, Chosen, R.Time);
  std::cout << "\nkernel:\n";
  renderKernel(std::cout, *G, Reduced, Chosen, R.Time, R.II);
  return 0;
}
