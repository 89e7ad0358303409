//===- examples/quickstart.cpp - The paper's Figure 1 end to end ----------===//
//
// Walks the complete pipeline on the paper's example machine (Figure 1):
//
//   1. a machine description as reservation tables close to the hardware;
//   2. its forbidden latency matrix (Equation 1);
//   3. the generating set of maximal resources (Algorithm 1);
//   4. the reduced machine description (selection, res-uses objective);
//   5. contention queries answered identically by both descriptions.
//
// Run it and compare with Figure 1 of the paper -- the sets printed here
// are exactly the paper's.
//
//===----------------------------------------------------------------------===//

#include "flm/ForbiddenLatencyMatrix.h"
#include "machines/Catalog.h"
#include "mdesc/Render.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"

#include <iostream>

using namespace rmd;

int main() {
  // (a) The machine description: operation A is fully pipelined, B is
  // partially pipelined (a multiply stage held 4 cycles, a rounding stage
  // held 2).
  MachineDescription MD = loadMachine("fig1").take().MD;
  std::cout << "=== (a) machine description ===\n";
  renderMachine(std::cout, MD);

  // (b) The forbidden latency matrix.
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);
  std::cout << "\n=== (b) forbidden latency matrix ===\n";
  FLM.print(std::cout, MD);

  // (c) The generating set of maximal resources.
  std::vector<SynthesizedResource> Pruned =
      pruneGeneratingSet(buildGeneratingSet(FLM));
  std::cout << "\n=== (c) generating set of maximal resources ===\n";
  for (const SynthesizedResource &R : Pruned)
    std::cout << "  " << R.str(MD) << "\n";

  // (d) The reduced machine description.
  ReductionResult Result = reduceMachine(MD);
  std::cout << "\n=== (d) reduced machine description ===\n";
  renderMachine(std::cout, Result.Reduced);
  std::cout << "\nforbidden-latency-equivalent to the original: "
            << (verifyEquivalence(MD, Result.Reduced) ? "yes" : "NO")
            << "\n";

  // (e) Both descriptions answer contention queries identically.
  std::cout << "\n=== (e) contention queries ===\n";
  DiscreteQueryModule Original(MD, QueryConfig::linear());
  DiscreteQueryModule Reduced(Result.Reduced, QueryConfig::linear());
  OpId A = MD.findOperation("A");
  OpId B = MD.findOperation("B");

  Original.assign(A, 0, /*Instance=*/0);
  Reduced.assign(A, 0, /*Instance=*/0);
  std::cout << "after scheduling A at cycle 0:\n";
  for (int Cycle = 0; Cycle <= 3; ++Cycle) {
    bool O = Original.check(B, Cycle);
    bool R = Reduced.check(B, Cycle);
    std::cout << "  can B issue at cycle " << Cycle << "? original: "
              << (O ? "yes" : "no") << ", reduced: " << (R ? "yes" : "no")
              << "\n";
  }
  std::cout << "\nwork units per check: original up to "
            << MD.operation(B).table().usageCount() << ", reduced up to "
            << Result.Reduced.operation(B).table().usageCount() << "\n";
  return 0;
}
