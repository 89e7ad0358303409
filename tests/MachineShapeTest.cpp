//===- tests/MachineShapeTest.cpp - Paper-shape properties ----------------===//
//
// Pins the qualitative properties the paper reports for each evaluation
// machine, so regressions in the reconstructions or the reducer that would
// silently change the experiments' story fail loudly:
//
//   - the characteristic maximum forbidden latencies (divider occupancy);
//   - substantial reduction factors in resources and usages (the original
//     descriptions deliberately carry redundant hardware rows);
//   - automaton state counts dwarfing reduced reservation tables.
//
//===----------------------------------------------------------------------===//

#include "automaton/PipelineAutomaton.h"
#include "flm/OperationClasses.h"
#include "machines/Catalog.h"
#include "reduce/Metrics.h"
#include "reduce/Reduction.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

struct Shape {
  MachineDescription Flat;
  MachineDescription Classes;
  ForbiddenLatencyMatrix FLM{0};
  MachineDescription Reduced;
};

Shape shapeOf(const MachineDescription &MD) {
  Shape S;
  S.Flat = expandAlternatives(MD).Flat;
  ForbiddenLatencyMatrix FlatFLM = ForbiddenLatencyMatrix::compute(S.Flat);
  S.Classes = buildClassMachine(S.Flat, partitionOperationClasses(FlatFLM));
  S.FLM = ForbiddenLatencyMatrix::compute(S.Classes);
  S.Reduced = reduceMachine(S.Classes).Reduced;
  return S;
}

} // namespace

TEST(MachineShape, MipsMaxLatencyIsTheDivider) {
  // Paper: "428 forbidden latencies (all < 34)"; the 34-cycle occupancy of
  // the integer divider dominates.
  Shape S = shapeOf(loadMachine("mips-r3000").take().MD);
  EXPECT_EQ(S.FLM.maxAbsoluteLatency(), 33);
  EXPECT_GE(S.FLM.canonicalCount(), 150u);
}

TEST(MachineShape, AlphaMaxLatencyIsTheFpDivider) {
  // Paper: "all < 58"; the double-precision divide busies the divider
  // through cycle 58.
  Shape S = shapeOf(loadMachine("alpha21064").take().MD);
  EXPECT_GE(S.FLM.maxAbsoluteLatency(), 55);
  EXPECT_LE(S.FLM.maxAbsoluteLatency(), 59);
}

TEST(MachineShape, ReductionFactorsAreSubstantial) {
  struct Expectation {
    MachineDescription MD;
    double MinResourceFactor;
    double MinUsageFactor;
  };
  std::vector<Expectation> Cases;
  Cases.push_back({loadMachine("cydra5").take().MD, 2.0, 1.7});
  Cases.push_back({loadMachine("alpha21064").take().MD, 2.0, 1.7});
  Cases.push_back({loadMachine("mips-r3000").take().MD, 2.0, 1.5});

  for (const Expectation &E : Cases) {
    Shape S = shapeOf(E.MD);
    double ResourceFactor =
        static_cast<double>(S.Classes.numResources()) /
        static_cast<double>(S.Reduced.numResources());
    double UsageFactor = averageResUsesPerOperation(S.Classes) /
                         averageResUsesPerOperation(S.Reduced);
    EXPECT_GE(ResourceFactor, E.MinResourceFactor) << E.MD.name();
    EXPECT_GE(UsageFactor, E.MinUsageFactor) << E.MD.name();
    // Memory headline: the reduced reserved table needs at most ~half the
    // bits per schedule cycle.
    EXPECT_LE(2 * stateBitsPerCycle(S.Reduced), stateBitsPerCycle(S.Classes))
        << E.MD.name();
  }
}

TEST(MachineShape, RedundantRowsVanish) {
  // The deliberately redundant hardware rows (decode latches, pipeline
  // stages, divider control) must not survive reduction: the reduced
  // Cydra 5 must land near the paper's 15 synthesized resources.
  Shape S = shapeOf(loadMachine("cydra5").take().MD);
  EXPECT_LE(S.Reduced.numResources(), 20u);
  EXPECT_GE(S.Reduced.numResources(), 8u);
  EXPECT_GE(S.Classes.numResources(), 40u); // original stays hardware-rich
}

TEST(MachineShape, WordPackingMatchesPaperArithmetic) {
  // Section 9: a 64-bit word encodes the bitvectors of several schedule
  // cycles once the description is reduced (4 for the Cydra 5, 9 for the
  // MIPS and Alpha in the paper). Require at least 2 cycles per word after
  // reduction while the original packs fewer.
  for (const char *Name : {"cydra5", "alpha21064", "mips-r3000"}) {
    MachineModel M = loadMachine(Name).take();
    Shape S = shapeOf(M.MD);
    unsigned ReducedK = cyclesPerWord(S.Reduced.numResources(), 64);
    unsigned OriginalK = S.Classes.numResources() <= 64
                             ? cyclesPerWord(S.Classes.numResources(), 64)
                             : 1;
    EXPECT_GE(ReducedK, 2u) << M.MD.name();
    EXPECT_GT(ReducedK, OriginalK) << M.MD.name();
  }
}

TEST(MachineShape, AutomatonTablesDwarfReducedDescriptions) {
  // Section 2/6: automaton transition tables explode with machine
  // complexity while reduced reservation tables stay tiny. On the MIPS the
  // automaton needs orders of magnitude more memory than the reduced
  // description's reservation tables.
  Shape S = shapeOf(loadMachine("mips-r3000").take().MD);
  auto A = PipelineAutomaton::build(S.Reduced, 1u << 22);
  ASSERT_TRUE(A.has_value());
  size_t ReducedTableBytes =
      S.Reduced.totalUsages() * sizeof(ResourceUsage);
  EXPECT_GT(A->tableBytes(), 100 * ReducedTableBytes);
}

TEST(MachineShape, M88100ReducesLikeTheOthers) {
  // Mueller's machine: the redundant decode/writeback rows vanish and the
  // FP divider dominates the latency census.
  Shape S = shapeOf(loadMachine("m88100").take().MD);
  EXPECT_LT(S.Reduced.numResources(), S.Classes.numResources());
  EXPECT_GE(S.FLM.maxAbsoluteLatency(), 24);
  EXPECT_LE(S.FLM.maxAbsoluteLatency(), 28);
  MachineDescription Flat =
      expandAlternatives(loadMachine("m88100").take().MD).Flat;
  EXPECT_TRUE(verifyEquivalence(Flat, reduceMachine(Flat).Reduced));
}

TEST(MachineShape, PlayDohAlternativesSurviveReduction) {
  // Four-way alternatives mean the flat machine has ~4x the operations;
  // reduction must still terminate quickly and preserve the matrix (the
  // verify inside reduceMachine), and alternatives keep their distinct
  // contention behaviour (unit 0 vs unit 1 alternatives are different
  // classes).
  MachineDescription Flat =
      expandAlternatives(loadMachine("playdoh").take().MD).Flat;
  EXPECT_GT(Flat.numOperations(), 30u);
  MachineDescription Reduced = reduceMachine(Flat).Reduced;
  EXPECT_LE(Reduced.numResources(), Flat.numResources());

  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
  OpId A0 = Flat.findOperation("iadd@0");
  OpId A2 = Flat.findOperation("iadd@2");
  ASSERT_LT(A0, Flat.numOperations());
  ASSERT_LT(A2, Flat.numOperations());
  // Same write port, different integer units: 0-latency conflict via the
  // port... iadd@0 = unit0/port0, iadd@2 = unit1/port0: they share only
  // the write port at cycle 1 -> 0 is forbidden between them.
  EXPECT_TRUE(FLM.isForbidden(A0, A2, 0));
  // iadd@0 vs iadd@3 (unit1/port1) share nothing: no constraint at all.
  OpId A3 = Flat.findOperation("iadd@3");
  EXPECT_TRUE(FLM.get(A0, A3).empty());
}

TEST(MachineShape, ClassCountsInPaperBallpark) {
  // Not exact (the original descriptions are unpublished), but the class
  // structure should be comparable: tens of classes for the Cydra, around
  // a dozen for the single-chip machines.
  Shape Cydra = shapeOf(loadMachine("cydra5").take().MD);
  EXPECT_GE(Cydra.Classes.numOperations(), 15u);
  EXPECT_LE(Cydra.Classes.numOperations(), 60u);

  Shape Alpha = shapeOf(loadMachine("alpha21064").take().MD);
  EXPECT_GE(Alpha.Classes.numOperations(), 8u);
  EXPECT_LE(Alpha.Classes.numOperations(), 16u);

  Shape Mips = shapeOf(loadMachine("mips-r3000").take().MD);
  EXPECT_GE(Mips.Classes.numOperations(), 8u);
  EXPECT_LE(Mips.Classes.numOperations(), 18u);
}
