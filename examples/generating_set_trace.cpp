//===- examples/generating_set_trace.cpp - Figure 3, step by step ---------===//
//
// Reproduces Figure 3 of the paper: Algorithm 1 processing the four
// elementary pairs of the Figure 1 machine (1 in F(B,A); 1, 2, 3 in
// F(B,B)), printing the rule fired and the generating set after each pair.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "reduce/GeneratingSet.h"

#include <iostream>

using namespace rmd;

static const char *ruleName(GeneratingRule Rule) {
  switch (Rule) {
  case GeneratingRule::Rule1:
    return "Rule 1 (fully compatible -> merge pair into resource)";
  case GeneratingRule::Rule2:
    return "Rule 2 (partially compatible -> spawn restricted copy)";
  case GeneratingRule::Rule2Discard:
    return "Rule 2 (incompatible with every usage -> nothing spawned)";
  case GeneratingRule::Rule3:
    return "Rule 3 (pair not co-resident anywhere -> new resource)";
  case GeneratingRule::Rule4:
    return "Rule 4 (0 self-latency only -> single-usage resource)";
  }
  return "?";
}

int main() {
  MachineDescription MD = loadMachine("fig1").take().MD;
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);

  std::cout << "=== Figure 3: building the generating set for the Figure 1 "
               "machine ===\n\n";
  std::cout << "elementary pairs (nonnegative forbidden latencies, 0 "
               "self-latencies excluded):\n";
  for (const ElementaryPair &P : enumerateElementaryPairs(FLM)) {
    ForbiddenLatency L = P.latency();
    std::cout << "  " << L.Latency << " in F(" << MD.operation(L.After).Name
              << "," << MD.operation(L.Before).Name << ")  -> pair {"
              << MD.operation(P.First.Op).Name << "@" << P.First.Cycle
              << ", " << MD.operation(P.Second.Op).Name << "@"
              << P.Second.Cycle << "}\n";
  }
  std::cout << "\n";

  // Re-run with a trace, rendering the set after each pair.
  std::vector<SynthesizedResource> Snapshot;
  GeneratingSetTrace Trace;
  int PairNo = 0;
  Trace.OnPair = [&](const ElementaryPair &P) {
    ForbiddenLatency L = P.latency();
    std::cout << "--- pair " << ++PairNo << ": " << L.Latency << " in F("
              << MD.operation(L.After).Name << ","
              << MD.operation(L.Before).Name << ") ---\n";
  };
  Trace.OnRule = [&](GeneratingRule Rule, size_t Index) {
    std::cout << "  " << ruleName(Rule) << " [resource " << Index << "]\n";
  };

  std::vector<SynthesizedResource> Set = buildGeneratingSet(FLM, &Trace);
  std::cout << "\n=== final generating set ===\n";
  for (size_t I = 0; I < Set.size(); ++I)
    std::cout << "  resource " << I << ": " << Set[I].str(MD) << "\n";

  std::vector<SynthesizedResource> Pruned = pruneGeneratingSet(Set);
  std::cout << "\nafter pruning covered resources (" << Set.size() << " -> "
            << Pruned.size() << "):\n";
  for (size_t I = 0; I < Pruned.size(); ++I)
    std::cout << "  maximal resource " << I << ": " << Pruned[I].str(MD)
              << "\n";
  std::cout << "\ncompare with Figure 1c: {B@0, A@1} and {B@0, B@1, B@2, "
               "B@3}\n";
  return 0;
}
