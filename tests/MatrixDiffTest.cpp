//===- tests/MatrixDiffTest.cpp - Semantic diff tests ---------------------===//

#include "flm/MatrixDiff.h"
#include "machines/Catalog.h"
#include "reduce/Reduction.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rmd;

TEST(MatrixDiff, IdenticalDescriptions) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  MatrixDiff Diff = diffMatrices(MD, MD);
  EXPECT_TRUE(Diff.identical());
  std::ostringstream OS;
  printMatrixDiff(OS, Diff);
  EXPECT_NE(OS.str().find("scheduling-equivalent"), std::string::npos);
}

TEST(MatrixDiff, ReductionIsEquivalentDespiteDifferentResources) {
  MachineDescription Flat =
      expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  MachineDescription Reduced = reduceMachine(Flat).Reduced;
  // Entirely different resources, identical constraints.
  MatrixDiff Diff = diffMatrices(Flat, Reduced);
  EXPECT_TRUE(Diff.identical());
}

TEST(MatrixDiff, DetectsAStretchedPipeline) {
  // Revision B holds B's multiply stage one cycle longer: new constraints
  // appear, none disappear.
  MachineDescription A = loadMachine("fig1").take().MD;
  MachineDescription B("fig1-rev2");
  for (ResourceId R = 0; R < A.numResources(); ++R)
    B.addResource(A.resourceName(R));
  B.addOperation("A", A.operation(0).table());
  ReservationTable TB;
  TB.addUsage(1, 0);
  TB.addUsage(2, 1);
  TB.addUsageRange(3, 2, 6); // one cycle longer than the original 2..5
  TB.addUsageRange(4, 6, 7);
  B.addOperation("B", TB);

  MatrixDiff Diff = diffMatrices(A, B);
  EXPECT_TRUE(Diff.Removed.empty());
  ASSERT_FALSE(Diff.Added.empty());
  // The stretched stage forbids latency 4 between two Bs (|2-6| spread).
  EXPECT_TRUE(std::find(Diff.Added.begin(), Diff.Added.end(),
                        (LatencyChange{"B", "B", 4})) != Diff.Added.end());

  // Symmetric direction: diffing the other way swaps added/removed.
  MatrixDiff Back = diffMatrices(B, A);
  EXPECT_EQ(Back.Removed.size(), Diff.Added.size());
  EXPECT_TRUE(Back.Added.empty());
}

TEST(MatrixDiff, ReportsOperationSetChanges) {
  MachineDescription A("a");
  ResourceId R = A.addResource("r");
  ReservationTable T;
  T.addUsage(R, 0);
  A.addOperation("x", T);
  A.addOperation("legacy", T);

  MachineDescription B("b");
  ResourceId S = B.addResource("s");
  ReservationTable T2;
  T2.addUsage(S, 0);
  B.addOperation("x", T2);
  B.addOperation("brandnew", T2);

  MatrixDiff Diff = diffMatrices(A, B);
  EXPECT_EQ(Diff.OnlyInA, (std::vector<std::string>{"legacy"}));
  EXPECT_EQ(Diff.OnlyInB, (std::vector<std::string>{"brandnew"}));
  // The common op x has the same self-constraint in both.
  EXPECT_TRUE(Diff.Added.empty());
  EXPECT_TRUE(Diff.Removed.empty());
  EXPECT_FALSE(Diff.identical());
}

TEST(MatrixDiff, PrintFormat) {
  MachineDescription A("a");
  ResourceId R = A.addResource("r");
  ReservationTable T1;
  T1.addUsage(R, 0);
  A.addOperation("x", T1);

  MachineDescription B("b");
  ResourceId S = B.addResource("s");
  ReservationTable T2;
  T2.addUsage(S, 0);
  T2.addUsage(S, 2);
  B.addOperation("x", T2);

  std::ostringstream OS;
  printMatrixDiff(OS, diffMatrices(A, B));
  std::string Out = OS.str();
  EXPECT_NE(Out.find("+ x forbidden 2 cycles after x"), std::string::npos);
  EXPECT_NE(Out.find("1 constraint(s) added, 0 removed"),
            std::string::npos);
}
