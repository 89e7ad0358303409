//===- tests/MachineDescriptionTest.cpp - mdesc/ unit tests ---------------===//

#include "machines/Catalog.h"
#include "mdesc/MachineDescription.h"
#include "mdesc/Render.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rmd;

TEST(ReservationTable, InsertSortedAndDeduplicated) {
  ReservationTable T;
  T.addUsage(3, 5);
  T.addUsage(1, 0);
  T.addUsage(3, 5); // duplicate
  T.addUsage(1, 2);
  ASSERT_EQ(T.usageCount(), 3u);
  EXPECT_EQ(T.usages()[0], (ResourceUsage{1, 0}));
  EXPECT_EQ(T.usages()[1], (ResourceUsage{1, 2}));
  EXPECT_EQ(T.usages()[2], (ResourceUsage{3, 5}));
}

TEST(ReservationTable, RangeAndQueries) {
  ReservationTable T;
  T.addUsageRange(2, 3, 6);
  EXPECT_EQ(T.usageCount(), 4u);
  EXPECT_TRUE(T.uses(2, 3));
  EXPECT_TRUE(T.uses(2, 6));
  EXPECT_FALSE(T.uses(2, 7));
  EXPECT_FALSE(T.uses(1, 3));
  EXPECT_EQ(T.length(), 7);
  EXPECT_EQ(T.usageSet(2), (std::vector<int>{3, 4, 5, 6}));
  EXPECT_TRUE(T.usageSet(0).empty());
  EXPECT_EQ(T.resourceBound(), 3u);
}

TEST(ReservationTable, EmptyTable) {
  ReservationTable T;
  EXPECT_TRUE(T.empty());
  EXPECT_EQ(T.length(), 0);
  EXPECT_EQ(T.resourceBound(), 0u);
}

TEST(ReservationTable, ShiftAndReverse) {
  ReservationTable T;
  T.addUsage(0, 0);
  T.addUsage(1, 2);
  ReservationTable S = T.shifted(3);
  EXPECT_TRUE(S.uses(0, 3));
  EXPECT_TRUE(S.uses(1, 5));
  EXPECT_EQ(S.usageCount(), 2u);

  ReservationTable R = T.reversed();
  // length 3: cycle c -> 2 - c.
  EXPECT_TRUE(R.uses(0, 2));
  EXPECT_TRUE(R.uses(1, 0));
  // Double reversal is the identity.
  EXPECT_EQ(R.reversed(), T);
}

TEST(ReservationTable, ConstructorNormalizes) {
  ReservationTable T({{2, 1}, {0, 0}, {2, 1}});
  EXPECT_EQ(T.usageCount(), 2u);
  EXPECT_EQ(T.usages()[0], (ResourceUsage{0, 0}));
}

TEST(MachineDescription, LookupsAndCounts) {
  MachineDescription MD("m");
  ResourceId R0 = MD.addResource("alpha");
  MD.addResource("beta");
  ReservationTable T;
  T.addUsage(R0, 0);
  OpId Op = MD.addOperation("op1", T);
  EXPECT_EQ(MD.numResources(), 2u);
  EXPECT_EQ(MD.numOperations(), 1u);
  EXPECT_EQ(MD.findResource("beta"), 1u);
  EXPECT_EQ(MD.findResource("gamma"), MD.numResources());
  EXPECT_EQ(MD.findOperation("op1"), Op);
  EXPECT_EQ(MD.findOperation("nope"), MD.numOperations());
  EXPECT_TRUE(MD.isExpanded());
  EXPECT_EQ(MD.totalUsages(), 1u);
}

TEST(MachineDescription, ValidateCatchesProblems) {
  MachineDescription MD("bad");
  MD.addResource("r");
  MD.addResource("r"); // duplicate name
  ReservationTable T;
  T.addUsage(9, 0); // out-of-range resource
  MD.addOperation("x", T);
  DiagnosticEngine Diags;
  EXPECT_FALSE(MD.validate(Diags));
  EXPECT_GE(Diags.errorCount(), 2u);
}

TEST(MachineDescription, ValidateAcceptsBuiltins) {
  for (const char *Name : {"fig1", "cydra5", "alpha21064", "mips-r3000",
                           "toy-vliw", "playdoh"}) {
    MachineDescription MD = loadMachine(Name).take().MD;
    DiagnosticEngine Diags;
    EXPECT_TRUE(MD.validate(Diags)) << MD.name();
  }
}

TEST(ExpandAlternatives, FlattensAndMapsBack) {
  MachineModel Toy = loadMachine("toy-vliw").take();
  EXPECT_FALSE(Toy.MD.isExpanded());
  ExpandedMachine EM = expandAlternatives(Toy.MD);
  EXPECT_TRUE(EM.Flat.isExpanded());

  // alu (2 alts), load, store, mul, br (2 alts) -> 7 flat operations.
  EXPECT_EQ(EM.Flat.numOperations(), 7u);
  ASSERT_EQ(EM.Groups.size(), 5u);
  EXPECT_EQ(EM.Groups[0].size(), 2u);
  EXPECT_EQ(EM.Groups[1].size(), 1u);

  // Group mapping is consistent.
  for (size_t G = 0; G < EM.Groups.size(); ++G)
    for (size_t A = 0; A < EM.Groups[G].size(); ++A) {
      OpId Flat = EM.Groups[G][A];
      EXPECT_EQ(EM.GroupOf[Flat], G);
      EXPECT_EQ(EM.AlternativeIndexOf[Flat], A);
    }

  // Alternative operations carry the original tables.
  EXPECT_EQ(EM.Flat.operation(EM.Groups[0][1]).table(),
            Toy.MD.operation(0).Alternatives[1]);
  // Multi-alternative names get suffixes; singles keep their name.
  EXPECT_EQ(EM.Flat.operation(EM.Groups[0][0]).Name, "alu@0");
  EXPECT_EQ(EM.Flat.operation(EM.Groups[1][0]).Name, "load");
}

TEST(ExpandAlternatives, IdentityOnExpandedMachine) {
  MachineDescription Fig1 = loadMachine("fig1").take().MD;
  ExpandedMachine EM = expandAlternatives(Fig1);
  EXPECT_EQ(EM.Flat.numOperations(), Fig1.numOperations());
  EXPECT_EQ(EM.Flat.operation(0).table(), Fig1.operation(0).table());
}

TEST(Render, TableShowsUsages) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  std::ostringstream OS;
  renderTable(OS, MD, MD.operation(1).table());
  std::string Out = OS.str();
  // B uses r1 at cycle 0 and r3 for cycles 2..5.
  EXPECT_NE(Out.find("r1"), std::string::npos);
  EXPECT_NE(Out.find("X X X X"), std::string::npos);
  EXPECT_EQ(Out.find("r0"), std::string::npos); // unused row omitted
}

TEST(Render, MachineSummary) {
  std::ostringstream OS;
  renderSummary(OS, loadMachine("fig1").take().MD);
  EXPECT_EQ(OS.str(), "fig1: 5 resources, 2 operations, 11 usages\n");
}

TEST(MachineModels, MetadataSizesMatch) {
  for (const char *Name : {"cydra5", "alpha21064", "mips-r3000", "toy-vliw",
                           "playdoh"}) {
    MachineModel M = loadMachine(Name).take();
    EXPECT_EQ(M.Latency.size(), M.MD.numOperations()) << M.MD.name();
    EXPECT_EQ(M.Role.size(), M.MD.numOperations()) << M.MD.name();
    EXPECT_FALSE(M.operationsWithRole(OpRole::Load).empty()) << M.MD.name();
    EXPECT_FALSE(M.operationsWithRole(OpRole::Branch).empty()) << M.MD.name();
  }
}
