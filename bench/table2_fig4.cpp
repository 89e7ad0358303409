//===- bench/table2_fig4.cpp - Table 2 and Figure 4 -----------------------===//
//
// Reproduces Table 2: reduction results for the subset of Cydra 5
// operations actually used by the loop benchmark (the corpus standing in
// for the paper's 1327 loops), and Figure 4: side-by-side reservation
// tables of that subset under the original model, the discrete (res-uses)
// reduction, and the 64-bit-word bitvector reduction.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"

#include "machines/Catalog.h"
#include "mdesc/Render.h"
#include "reduce/Metrics.h"
#include "workload/Corpus.h"

#include <iostream>
#include <set>
#include "support/Stats.h"

using namespace rmd;

/// Restricts \p MD to the operations whose ids appear in \p Used.
static MachineDescription restrictTo(const MachineDescription &MD,
                                     const std::set<OpId> &Used) {
  MachineDescription Out(MD.name() + ".subset");
  for (ResourceId R = 0; R < MD.numResources(); ++R)
    Out.addResource(MD.resourceName(R));
  for (OpId Op = 0; Op < MD.numOperations(); ++Op)
    if (Used.count(Op))
      Out.addOperation(MD.operation(Op).Name, MD.operation(Op).Alternatives);
  return Out;
}

int main(int Argc, char **Argv) {
  rmd::StatsJsonGuard StatsJson(Argc, Argv, "table2_fig4");
  MachineModel Cydra = loadMachine("cydra5").take();

  // Which original operations does the loop benchmark actually use?
  CorpusParams Params;
  std::vector<DepGraph> Corpus = buildCorpus(Cydra, Params);
  std::set<OpId> Used;
  for (const DepGraph &G : Corpus)
    for (NodeId N = 0; N < G.numNodes(); ++N)
      Used.insert(G.opOf(N));

  MachineDescription Subset = restrictTo(Cydra.MD, Used);
  bench::ClassMachine CM = bench::prepareClassMachine(Subset);

  std::cout << "=== Table 2: Cydra 5 subset used by the loop benchmark "
               "===\n\n";
  std::cout << "benchmark uses " << Used.size() << " of "
            << Cydra.MD.numOperations() << " original operations\n";
  bench::printReductionTable(std::cout, "Cydra 5 subset (reconstruction)",
                             CM);
  std::cout << "\npaper reference: 12 classes, 166 forbidden latencies "
               "(< 21); resources 39 -> 9; res usages 9.4 -> 2.9; word "
               "usages 7.5 -> 1.5 at 7 cycles/64-bit word (5x)\n";

  // --- Figure 4: the three reservation-table renderings. -----------------
  ReductionResult Discrete = reduceMachine(CM.Classes);
  unsigned K64 = cyclesPerWord(
      std::max<size_t>(Discrete.Reduced.numResources(), 1), 64);
  ReductionOptions WordOptions;
  WordOptions.Objective = SelectionObjective::wordUses(K64);
  ReductionResult Bitvector = reduceMachine(CM.Classes, WordOptions);

  std::cout << "\n=== Figure 4a: original machine description ===\n";
  renderMachine(std::cout, CM.Classes);
  std::cout << "\n=== Figure 4b: discrete-representation reduction ===\n";
  renderMachine(std::cout, Discrete.Reduced);
  std::cout << "\n=== Figure 4c: bitvector-representation reduction ("
            << K64 << " cycles / 64-bit word) ===\n";
  renderMachine(std::cout, Bitvector.Reduced);
  return 0;
}
