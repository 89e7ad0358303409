//===- tests/PredicatedQueryTest.cpp - Predicate-aware reservations -------===//

#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "query/PredicatedQuery.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace rmd;

TEST(Predicates, DisjointnessModel) {
  EXPECT_TRUE(predicatesDisjoint(3, -3));
  EXPECT_TRUE(predicatesDisjoint(-7, 7));
  EXPECT_FALSE(predicatesDisjoint(3, 3));
  EXPECT_FALSE(predicatesDisjoint(3, -4));
  EXPECT_FALSE(predicatesDisjoint(0, 0));  // "always" overlaps itself
  EXPECT_FALSE(predicatesDisjoint(0, -0)); // and its negation is itself
}

TEST(PredicatedQuery, ComplementaryOpsShareResources) {
  // IF-converted diamond: the then-side and else-side fadd both want the
  // FP adder in the same cycle; being guarded by p and !p, they may share.
  MachineModel Cydra = loadMachine("cydra5").take();
  MachineDescription Flat = expandAlternatives(Cydra.MD).Flat;
  OpId Fadd = Flat.findOperation("fadd.s@0");
  ASSERT_LT(Fadd, Flat.numOperations());

  PredicatedQueryModule Q(Flat, QueryConfig::linear());
  EXPECT_TRUE(Q.check(Fadd, 0, /*Pred=*/+1));
  Q.assign(Fadd, 0, +1, 10);

  // Same resources, same cycle: blocked for the same predicate and for
  // "always", permitted for the complement.
  EXPECT_FALSE(Q.check(Fadd, 0, +1));
  EXPECT_FALSE(Q.check(Fadd, 0, 0));
  EXPECT_FALSE(Q.check(Fadd, 0, +2)); // unrelated predicate may co-execute
  EXPECT_TRUE(Q.check(Fadd, 0, -1));

  Q.assign(Fadd, 0, -1, 11);
  // The cell now holds the complementary pair; nothing else fits.
  EXPECT_FALSE(Q.check(Fadd, 0, +3));
  EXPECT_FALSE(Q.check(Fadd, 0, -1));

  Q.free(Fadd, 0, 10);
  EXPECT_TRUE(Q.check(Fadd, 0, +1)); // the +1 slot opened up again
}

TEST(PredicatedQuery, AlwaysPredicateMatchesPlainDiscrete) {
  // With every predicate 0 the module must behave exactly like the plain
  // discrete module.
  MachineDescription Flat =
      expandAlternatives(loadMachine("toy-vliw").take().MD).Flat;
  PredicatedQueryModule QP(Flat, QueryConfig::modulo(6));
  DiscreteQueryModule QD(Flat, QueryConfig::modulo(6));

  RNG R(12);
  InstanceId Next = 0;
  for (int Step = 0; Step < 400; ++Step) {
    OpId Op = static_cast<OpId>(R.nextBelow(Flat.numOperations()));
    if (hasModuloSelfConflict(Flat.operation(Op).table(), 6))
      continue;
    int Cycle = static_cast<int>(R.nextBelow(12));
    bool WantP = QP.check(Op, Cycle, 0);
    bool WantD = QD.check(Op, Cycle);
    ASSERT_EQ(WantP, WantD) << "step " << Step;
    if (WantP && R.nextChance(2, 3)) {
      InstanceId Id = Next++;
      QP.assign(Op, Cycle, 0, Id);
      QD.assign(Op, Cycle, Id);
    }
  }
}

TEST(PredicatedQuery, ModuloWrapWithPredicates) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  OpId A = MD.findOperation("A");
  PredicatedQueryModule Q(MD, QueryConfig::modulo(4));
  Q.assign(A, 0, +1, 1);
  // A@4 wraps onto A@0's cells: blocked under p, free under !p.
  EXPECT_FALSE(Q.check(A, 4, +1));
  EXPECT_TRUE(Q.check(A, 4, -1));
}

TEST(PredicatedQuery, ReducedDescriptionsPreservePredicateSharing) {
  // Predicate-aware sharing works identically on the reduced description:
  // what matters is cell identity, which the reduction preserves up to
  // renaming (same conflict answers).
  MachineDescription Flat =
      expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  MachineDescription Reduced = reduceMachine(Flat).Reduced;

  PredicatedQueryModule QO(Flat, QueryConfig::linear());
  PredicatedQueryModule QR(Reduced, QueryConfig::linear());

  RNG R(77);
  InstanceId Next = 0;
  for (int Step = 0; Step < 500; ++Step) {
    OpId Op = static_cast<OpId>(R.nextBelow(Flat.numOperations()));
    int Cycle = static_cast<int>(R.nextBelow(30));
    PredicateId Pred = static_cast<PredicateId>(R.nextInRange(-2, 2));
    bool WantO = QO.check(Op, Cycle, Pred);
    bool WantR = QR.check(Op, Cycle, Pred);
    ASSERT_EQ(WantO, WantR)
        << "op " << Op << " cycle " << Cycle << " pred " << Pred;
    if (WantO && R.nextChance(1, 2)) {
      InstanceId Id = Next++;
      QO.assign(Op, Cycle, Pred, Id);
      QR.assign(Op, Cycle, Pred, Id);
    }
  }
}
