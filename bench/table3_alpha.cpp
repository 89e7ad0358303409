//===- bench/table3_alpha.cpp - Table 3: DEC Alpha 21064 ------------------===//
//
// Reproduces Table 3 (DEC Alpha 21064 reduction results) plus the Bala &
// Rubin comparison of Section 6: forward/reverse automaton state counts
// and the per-cycle scheduler-state memory comparison (the paper: 64 bits
// per schedule cycle to cache factored forward+reverse automaton states vs
// 7 bits per cycle for the bitvector reduced description).
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "automaton/PipelineAutomaton.h"
#include "machines/Catalog.h"
#include "reduce/Metrics.h"

#include <iostream>
#include "support/Stats.h"

using namespace rmd;

int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "table3_alpha");
  MachineModel Alpha = loadMachine("alpha21064").take();
  bench::ClassMachine CM = bench::prepareClassMachine(Alpha.MD);

  std::cout << "=== Table 3: reduced machine descriptions, DEC Alpha "
               "21064 ===\n\n";
  bench::printReductionTable(std::cout, "DEC Alpha 21064 (reconstruction)",
                             CM);

  std::cout << "\n--- forward/reverse automata baseline (Bala-Rubin) ---\n";
  // Built from the reduced description (same recognized language, far
  // fewer pending-usage states than the raw hardware-level description).
  MachineDescription ForAutomaton = reduceMachine(CM.Classes).Reduced;
  size_t Cap = 1u << 22;
  auto Fwd = PipelineAutomaton::build(ForAutomaton, Cap);
  auto Rev = PipelineAutomaton::buildReverse(ForAutomaton, Cap);
  if (Fwd && Rev) {
    std::cout << "forward automaton:  " << Fwd->numStates() << " states, "
              << Fwd->tableBytes() << " bytes\n";
    std::cout << "reverse automaton:  " << Rev->numStates() << " states, "
              << Rev->tableBytes() << " bytes\n";
    // Unrestricted scheduling with automata caches one forward and one
    // reverse state per schedule cycle; with S total states that is
    // 2*ceil(log2 S) bits per cycle, vs numResources bits for the reduced
    // bitvector reserved table.
    size_t MaxStates = std::max(Fwd->numStates(), Rev->numStates());
    unsigned Bits = 1;
    while ((1ull << Bits) < MaxStates)
      ++Bits;
    ReductionResult Res = reduceMachine(CM.Classes);
    std::cout << "scheduler state: automata ~" << 2 * Bits
              << " bits/cycle vs reduced bitvector "
              << Res.Reduced.numResources() << " bits/cycle\n";
  } else {
    std::cout << "automaton construction exceeded the state cap ("
              << Cap << " states) -- the state-explosion problem the "
              << "reservation-table approach avoids\n";
  }
  std::cout << "\npaper reference: 12 classes, 293 forbidden latencies "
               "(< 58); resources 87 -> 9 (word objectives), res usages "
               "12.8 -> ~5-12, word usages ~2.0 at 9 cycles/64-bit word; "
               "Bala-Rubin factored automata: (237+232) forward + "
               "(237+231) reverse states, ~64 bits/cycle cached state vs 7 "
               "bits/cycle for the bitvector reduction\n";
  return 0;
}
