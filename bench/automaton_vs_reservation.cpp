//===- bench/automaton_vs_reservation.cpp - Section 2 comparison ----------===//
//
// Quantifies the paper's Section 2 argument against automaton-based
// contention detection under *unrestricted* scheduling: random-order
// insertion and removal traffic is driven through the discrete,
// bitvector, and forward/reverse-automaton query modules (all answering
// identically), and the work units, state memory, and wall-clock per call
// are compared.
//
// Automata shine on straight-line in-order issue (one lookup per query),
// but unrestricted insertion forces per-cycle state caching and
// re-propagation on every assign/free, and eviction (assign&free) needs
// pairwise replays -- the overheads this harness measures.
//
//===----------------------------------------------------------------------===//

#include "automaton/AutomatonQuery.h"
#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"
#include "support/TextTable.h"

#include <chrono>
#include <iostream>
#include <memory>
#include "support/Stats.h"

using namespace rmd;

namespace {

struct DriveResult {
  WorkCounters Counters;
  double Nanoseconds = 0;
  size_t StateBytes = 0;
};

/// Random-order insertion/removal traffic (the unrestricted model): ops
/// are placed at arbitrary cycles, occasionally force-placed (eviction),
/// occasionally removed.
DriveResult drive(ContentionQueryModule &Q, const MachineDescription &Flat,
                  int Horizon, uint64_t Seed, int Steps) {
  RNG R(Seed);
  InstanceId Next = 0;
  std::vector<bool> Live;
  std::vector<std::pair<OpId, int>> Info;

  auto Start = std::chrono::steady_clock::now();
  for (int Step = 0; Step < Steps; ++Step) {
    OpId Op = static_cast<OpId>(R.nextBelow(Flat.numOperations()));
    int MaxStart = Horizon - Flat.operation(Op).table().length();
    if (MaxStart < 0)
      continue;
    int Cycle = static_cast<int>(R.nextBelow(MaxStart + 1));

    if (R.nextChance(1, 6)) {
      std::vector<InstanceId> Evicted;
      InstanceId Id = Next++;
      Q.assignAndFree(Op, Cycle, Id, Evicted);
      Live.push_back(true);
      Info.push_back({Op, Cycle});
      for (InstanceId V : Evicted)
        Live[static_cast<size_t>(V)] = false;
    } else if (Q.check(Op, Cycle)) {
      InstanceId Id = Next++;
      Q.assign(Op, Cycle, Id);
      Live.push_back(true);
      Info.push_back({Op, Cycle});
    } else {
      ++Next;
      Live.push_back(false);
      Info.push_back({0, 0});
    }

    if (R.nextChance(1, 4)) {
      for (size_t I = 0; I < Live.size(); ++I)
        if (Live[I]) {
          Q.free(Info[I].first, Info[I].second,
                 static_cast<InstanceId>(I));
          Live[I] = false;
          break;
        }
    }
  }
  auto End = std::chrono::steady_clock::now();

  DriveResult Result;
  Result.Counters = Q.counters();
  Result.Nanoseconds =
      std::chrono::duration<double, std::nano>(End - Start).count();
  return Result;
}

double perCall(uint64_t Units, uint64_t Calls) {
  return Calls ? static_cast<double>(Units) / Calls : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "automaton_vs_reservation");
  const int Horizon = 96;
  const int Steps = 6000;

  for (const char *Name : {"mips-r3000", "alpha21064"}) {
    MachineModel M = loadMachine(Name).take();
    MachineDescription Flat = expandAlternatives(M.MD).Flat;
    MachineDescription Reduced = reduceMachine(Flat).Reduced;

    std::cout << "=== unrestricted-scheduling query traffic: "
              << M.MD.name() << " (reduced description) ===\n\n";

    DiscreteQueryModule Discrete(Reduced, QueryConfig::linear());
    BitvectorQueryModule Bitvector(Reduced, QueryConfig::linear());
    AutomatonQueryModule Automaton(Reduced, Horizon);

    struct Row {
      const char *Label;
      ContentionQueryModule *Module;
      size_t StateBytes;
    };
    Row Rows[] = {
        {"discrete", &Discrete, 0},
        {"bitvector-64", &Bitvector, 0},
        {"fwd+rev automata", &Automaton, Automaton.cachedStateBytes()},
    };

    TextTable T;
    T.row();
    T.cell("module");
    T.cell("check u/call");
    T.cell("assign u/call");
    T.cell("free u/call");
    T.cell("a&f u/call");
    T.cell("ns/call");
    for (Row &RowSpec : Rows) {
      DriveResult D =
          drive(*RowSpec.Module, Reduced, Horizon, /*Seed=*/1996, Steps);
      T.row();
      T.cell(RowSpec.Label);
      T.cell(perCall(D.Counters.CheckUnits, D.Counters.CheckCalls), 2);
      T.cell(perCall(D.Counters.AssignUnits, D.Counters.AssignCalls), 2);
      T.cell(perCall(D.Counters.FreeUnits, D.Counters.FreeCalls), 2);
      T.cell(perCall(D.Counters.AssignFreeUnits,
                     D.Counters.AssignFreeCalls),
             2);
      T.cell(D.Nanoseconds / static_cast<double>(D.Counters.totalCalls()),
             0);
    }
    T.print(std::cout);

    std::cout << "\nstate memory for a " << Horizon
              << "-cycle schedule: reservation table "
              << (Reduced.numResources() * Horizon + 7) / 8
              << " bytes vs automaton cached states "
              << Automaton.cachedStateBytes() << " bytes (+ "
              << Automaton.tableBytes() << " bytes of transition tables)\n"
              << "\n";
  }
  return 0;
}
