//===- bench/table4_mips.cpp - Table 4: MIPS R3000/R3010 ------------------===//
//
// Reproduces Table 4 (MIPS R3000/R3010 reduction results) and the
// Proebsting-Fraser comparison of Section 6: the size of the (forward)
// finite-state automaton for the same machine, against which the reduced
// reservation tables are the paper's alternative.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "automaton/PipelineAutomaton.h"
#include "machines/Catalog.h"

#include <iostream>
#include "support/Stats.h"

using namespace rmd;

int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "table4_mips");
  MachineModel Mips = loadMachine("mips-r3000").take();
  bench::ClassMachine CM = bench::prepareClassMachine(Mips.MD);

  std::cout << "=== Table 4: reduced machine descriptions, MIPS "
               "R3000/R3010 ===\n\n";
  bench::printReductionTable(std::cout, "MIPS R3000/R3010 (reconstruction)",
                             CM);

  std::cout << "\n--- finite-state automaton baseline (Proebsting-Fraser) "
               "---\n";
  // Built from the reduced description: the recognized language depends
  // only on the forbidden latency matrix, and the raw hardware-level
  // description overflows any reasonable state cap (the explosion the
  // reservation-table approach sidesteps).
  ReductionResult ForAutomaton = reduceMachine(CM.Classes);
  if (auto A = PipelineAutomaton::build(ForAutomaton.Reduced, 1u << 22)) {
    std::cout << "forward automaton: " << A->numStates() << " states, "
              << A->numIssueTransitions() << " issue transitions, "
              << A->tableBytes() << " bytes of tables\n";
    std::cout << "cycle-advancing states: " << A->numCycleAdvancingStates()
              << "\n";
  } else {
    std::cout << "forward automaton construction exceeded the state cap\n";
  }
  std::cout << "\npaper reference: 15 classes, 428 forbidden latencies "
               "(< 34); resources 22 -> 7; res usages 17.3 -> 7.9; word "
               "usages 11.0 -> 1.6 at 7 cycles/64-bit word; PF automaton: "
               "6175 states\n";
  return 0;
}
