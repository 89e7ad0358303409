//===- tests/ReductionTest.cpp - End-to-end reduction tests ---------------===//
//
// Includes the randomized property tests mirroring the paper's guarantee:
// for arbitrary machines, reduction exactly preserves the forbidden latency
// matrix under every objective.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "reduce/Metrics.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <chrono>

using namespace rmd;

namespace {

/// Generates a random machine description: OpCount operations over
/// ResCount resources, each op using a random subset of resources at
/// random cycles, with occasional multi-cycle occupancy runs.
MachineDescription makeRandomMachine(RNG &R, unsigned OpCount,
                                     unsigned ResCount, unsigned MaxCycle) {
  MachineDescription MD("random");
  for (unsigned I = 0; I < ResCount; ++I)
    MD.addResource("r" + std::to_string(I));
  for (unsigned O = 0; O < OpCount; ++O) {
    ReservationTable T;
    unsigned NumUsages = 1 + static_cast<unsigned>(R.nextBelow(5));
    for (unsigned U = 0; U < NumUsages; ++U) {
      ResourceId Res = static_cast<ResourceId>(R.nextBelow(ResCount));
      int Cycle = static_cast<int>(R.nextBelow(MaxCycle + 1));
      if (R.nextChance(1, 4)) {
        int RunEnd = Cycle + static_cast<int>(R.nextBelow(4));
        T.addUsageRange(Res, Cycle, RunEnd);
      } else {
        T.addUsage(Res, Cycle);
      }
    }
    MD.addOperation("op" + std::to_string(O), std::move(T));
  }
  return MD;
}

} // namespace

TEST(Reduction, Figure1EndToEnd) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  ReductionResult Result = reduceMachine(MD);
  // 5 original resources -> 2 synthesized; 11 usages -> 5.
  EXPECT_EQ(Result.Reduced.numResources(), 2u);
  EXPECT_EQ(Result.Reduced.totalUsages(), 5u);
  EXPECT_EQ(Result.PrunedSetSize, 2u);
  EXPECT_EQ(Result.CoveredLatencies, 6u);
  EXPECT_TRUE(verifyEquivalence(MD, Result.Reduced));
}

TEST(Reduction, BuiltinMachinesAllObjectives) {
  for (const char *Name : {"cydra5", "alpha21064", "mips-r3000", "toy-vliw",
                           "playdoh", "m88100"}) {
    MachineModel M = loadMachine(Name).take();
    MachineDescription Flat = expandAlternatives(M.MD).Flat;
    ReductionResult ResUses = reduceMachine(Flat);
    EXPECT_TRUE(verifyEquivalence(Flat, ResUses.Reduced)) << M.MD.name();
    EXPECT_LE(ResUses.Reduced.numResources(), Flat.numResources())
        << M.MD.name();
    EXPECT_LE(ResUses.Reduced.totalUsages(), Flat.totalUsages())
        << M.MD.name();

    for (unsigned K : {1u, 2u, 4u}) {
      ReductionOptions Options;
      Options.Objective = SelectionObjective::wordUses(K);
      ReductionResult Word = reduceMachine(Flat, Options);
      EXPECT_TRUE(verifyEquivalence(Flat, Word.Reduced))
          << M.MD.name() << " k=" << K;
    }
  }
}

TEST(Reduction, ReducedIsFixpointOnResources) {
  // Reducing an already-reduced description must not increase resources or
  // usages.
  MachineDescription Flat =
      expandAlternatives(loadMachine("cydra5").take().MD).Flat;
  ReductionResult First = reduceMachine(Flat);
  ReductionResult Second = reduceMachine(First.Reduced);
  EXPECT_LE(Second.Reduced.numResources(), First.Reduced.numResources());
  EXPECT_LE(Second.Reduced.totalUsages(), First.Reduced.totalUsages());
  EXPECT_TRUE(verifyEquivalence(Flat, Second.Reduced));
}

TEST(Reduction, VerifyEquivalenceDetectsDifferences) {
  MachineDescription A = loadMachine("fig1").take().MD;
  // Remove one usage of B: changes F(B,B).
  MachineDescription B("fig1-broken");
  for (ResourceId R = 0; R < A.numResources(); ++R)
    B.addResource(A.resourceName(R));
  B.addOperation("A", A.operation(0).table());
  ReservationTable TB;
  TB.addUsage(1, 0);
  TB.addUsage(2, 1);
  TB.addUsageRange(3, 2, 4); // paper's B holds r3 through cycle 5
  TB.addUsageRange(4, 6, 7);
  B.addOperation("B", TB);
  EXPECT_FALSE(verifyEquivalence(A, B));
  EXPECT_TRUE(verifyEquivalence(A, A));
}

TEST(Reduction, OperationNamesAndOrderPreserved) {
  MachineDescription Flat =
      expandAlternatives(loadMachine("alpha21064").take().MD).Flat;
  ReductionResult Result = reduceMachine(Flat);
  ASSERT_EQ(Result.Reduced.numOperations(), Flat.numOperations());
  for (OpId Op = 0; Op < Flat.numOperations(); ++Op)
    EXPECT_EQ(Result.Reduced.operation(Op).Name, Flat.operation(Op).Name);
}

TEST(Reduction, EmptyTablesSurvive) {
  MachineDescription MD("with-nop");
  ResourceId R = MD.addResource("r");
  MD.addOperation("nop", ReservationTable());
  ReservationTable T;
  T.addUsage(R, 0);
  MD.addOperation("real", T);
  ReductionResult Result = reduceMachine(MD);
  EXPECT_TRUE(Result.Reduced.operation(0).table().empty());
  EXPECT_TRUE(verifyEquivalence(MD, Result.Reduced));
}

TEST(Reduction, LargeRandomMachineStaysFast) {
  // Performance guard for the generating-set subsumption optimization: a
  // dense 48-op machine must reduce in seconds, not minutes (the naive
  // Rule-2 cascade was quadratic-exponential before subsumption).
  RNG R(0xFA57);
  MachineDescription MD = makeRandomMachine(R, 48, 20, 12);
  auto Start = std::chrono::steady_clock::now();
  ReductionResult Result = reduceMachine(MD);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_TRUE(verifyEquivalence(MD, Result.Reduced));
  // Sanitizer builds (the asan-ubsan preset) run an order of magnitude
  // slower; the guard is about algorithmic regressions, not
  // instrumentation overhead.
#if defined(__SANITIZE_ADDRESS__) // GCC
  const double Budget = 300.0;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  const double Budget = 300.0;
#else
  const double Budget = 30.0;
#endif
#else
  const double Budget = 30.0;
#endif
  EXPECT_LT(Seconds, Budget) << "generating-set construction regressed";
}

// Property test: the paper's exactness guarantee on random machines, every
// objective. This is the reproduction's strongest correctness evidence.
class ReductionProperty : public ::testing::TestWithParam<int> {};

TEST_P(ReductionProperty, RandomMachinesPreserveMatrix) {
  RNG R(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  unsigned OpCount = 2 + static_cast<unsigned>(R.nextBelow(6));
  unsigned ResCount = 2 + static_cast<unsigned>(R.nextBelow(7));
  unsigned MaxCycle = 1 + static_cast<unsigned>(R.nextBelow(7));
  MachineDescription MD = makeRandomMachine(R, OpCount, ResCount, MaxCycle);

  ReductionOptions Options;
  Options.Verify = false; // the test does its own verification
  for (SelectionObjective Obj :
       {SelectionObjective::resUses(), SelectionObjective::wordUses(2),
        SelectionObjective::wordUses(4)}) {
    Options.Objective = Obj;
    ReductionResult Result = reduceMachine(MD, Options);
    EXPECT_TRUE(verifyEquivalence(MD, Result.Reduced))
        << "seed=" << GetParam() << " ops=" << OpCount
        << " res=" << ResCount;
    // Loose sanity bound: the greedy cover must not blow up the
    // description (it practically always shrinks it).
    EXPECT_LE(Result.Reduced.totalUsages(), MD.totalUsages() * 5)
        << "reduction exploded usage count";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMachines, ReductionProperty,
                         ::testing::Range(0, 60));
