//===- examples/predicated_sharing.cpp - EMS predicate fields -------------===//
//
// Demonstrates the predicate field of Section 5's discrete representation
// (Enhanced Modulo Scheduling, Warter et al.): after IF-conversion, the
// then-side and else-side of a diamond are guarded by complementary
// predicates and can never execute in the same iteration, so they may
// share resources cycle-for-cycle. The same placements are impossible for
// a predicate-blind reserved table.
//
// The loop:   if (a[i] > 0) s += a[i]*b[i]; else s -= a[i]*c[i];
// IF-converted: one load feeds a compare defining p; both arms' loads,
// multiplies and adds are guarded by p / !p.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "query/PredicatedQuery.h"

#include <iostream>

using namespace rmd;

int main() {
  MachineModel Cydra = loadMachine("cydra5").take();
  MachineDescription Flat = expandAlternatives(Cydra.MD).Flat;

  OpId Load0 = Flat.findOperation("load@0");
  OpId Fmul0 = Flat.findOperation("fmul.s@0");
  OpId Fadd0 = Flat.findOperation("fadd.s@0");

  const int II = 4;
  std::cout << "=== predicate-aware resource sharing (Cydra 5, II=" << II
            << ") ===\n\n";

  // The two arms, placed at identical cycles under p (+1) and !p (-1).
  struct Placement {
    const char *Name;
    OpId Op;
    int Cycle;
    PredicateId Pred;
  };
  Placement Arms[] = {
      {"then: load b[i]", Load0, 0, +1}, {"else: load c[i]", Load0, 0, -1},
      {"then: a*b", Fmul0, 5, +1},       {"else: a*c", Fmul0, 5, -1},
      {"then: s += t", Fadd0, 11, +1},   {"else: s -= t", Fadd0, 11, -1},
  };

  PredicatedQueryModule Predicated(Flat, QueryConfig::modulo(II));
  DiscreteQueryModule Plain(Flat, QueryConfig::modulo(II));

  int PlacedPredicated = 0, PlacedPlain = 0;
  InstanceId Id = 0;
  for (const Placement &P : Arms) {
    bool OkPred = Predicated.check(P.Op, P.Cycle, P.Pred);
    if (OkPred) {
      Predicated.assign(P.Op, P.Cycle, P.Pred, Id);
      ++PlacedPredicated;
    }
    bool OkPlain = Plain.check(P.Op, P.Cycle);
    if (OkPlain) {
      Plain.assign(P.Op, P.Cycle, Id);
      ++PlacedPlain;
    }
    ++Id;
    std::cout << "  " << P.Name << " @ cycle " << P.Cycle << " pred "
              << (P.Pred > 0 ? "p" : "!p") << ": predicate-aware "
              << (OkPred ? "yes" : "NO") << ", predicate-blind "
              << (OkPlain ? "yes" : "NO") << "\n";
  }

  std::cout << "\npredicate-aware table placed " << PlacedPredicated << "/6"
            << " operations at the shared cycles; the predicate-blind "
               "table placed "
            << PlacedPlain << "/6 and would force a larger II\n";
  std::cout << "(both arms occupy the FP adder/multiplier pipelines in the "
               "same MRT slots -- legal only because p and !p are "
               "disjoint)\n";
  return PlacedPredicated == 6 && PlacedPlain < 6 ? 0 : 1;
}
