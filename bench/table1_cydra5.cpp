//===- bench/table1_cydra5.cpp - Table 1: Cydra 5 reductions --------------===//
//
// Reproduces Table 1 of the paper: reduction results for the full Cydra 5
// machine description, per operation class, for the discrete (res-uses)
// and bitvector (k-cycle-word) objectives.
//
// The machine description is a reconstruction (see DESIGN.md); compare
// *ratios* against the paper (resources shrink ~3.7x, res usages ~2.2x,
// word usages ~4x at the densest packing), not absolute counts.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "machines/Catalog.h"

#include <iostream>
#include "support/Stats.h"

using namespace rmd;

int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "table1_cydra5");
  MachineModel Cydra = loadMachine("cydra5").take();
  bench::ClassMachine CM = bench::prepareClassMachine(Cydra.MD);

  std::cout << "=== Table 1: reduced machine descriptions, Cydra 5 ===\n\n";
  std::cout << "expanded operations (alternatives removed): "
            << CM.Flat.numOperations() << "\n";
  bench::printReductionTable(std::cout, "Cydra 5 (reconstruction)", CM);

  std::cout << "\npaper reference (original Cydra 5 model): 52 classes, "
               "10223 forbidden latencies; resources 56 -> 15 (3.7x); res "
               "usages 18.2 -> 8.3 (2.2x); word usages 13.2 -> 3.3 (4.0x) "
               "at 4 cycles/64-bit word; state storage 25% of original\n";
  return 0;
}
