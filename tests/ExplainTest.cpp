//===- tests/ExplainTest.cpp - Reduction provenance tests -----------------===//

#include "machines/Catalog.h"
#include "reduce/Explain.h"
#include "reduce/Reduction.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rmd;

TEST(Explain, ResourceLatenciesMatchSynthesizedView) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  // Resource r3 is used by B at cycles 2..5: its row forbids exactly
  // F(B,B) over distances 0..3 (canonical).
  std::vector<ForbiddenLatency> L = resourceLatencies(MD, 3);
  OpId B = MD.findOperation("B");
  ASSERT_EQ(L.size(), 4u);
  for (int F = 0; F <= 3; ++F)
    EXPECT_TRUE(std::find(L.begin(), L.end(),
                          (ForbiddenLatency{B, B, F})) != L.end());
  // An unused resource has no row.
  MachineDescription Solo("solo");
  Solo.addResource("never");
  Solo.addOperation("x", ReservationTable());
  EXPECT_TRUE(resourceLatencies(Solo, 0).empty());
}

TEST(Explain, Fig1Report) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  MachineDescription Reduced = reduceMachine(MD).Reduced;
  ReductionReport Report = explainReduction(MD, Reduced);

  ASSERT_EQ(Report.Resources.size(), 2u);
  // Together the synthesized rows enforce all 6 canonical latencies.
  size_t Total = 0;
  for (const ResourceExplanation &E : Report.Resources)
    Total += E.Enforces.size();
  EXPECT_GE(Total, 6u);

  // Each synthesized row subsumes at least one original hardware row
  // (e.g. the B-only row subsumes r3 and r4).
  bool AnySubsumption = false;
  for (const ResourceExplanation &E : Report.Resources)
    AnySubsumption |= !E.Subsumes.empty();
  EXPECT_TRUE(AnySubsumption);
}

TEST(Explain, RedundantRowsDetectedOnCydra) {
  // The enriched Cydra carries deliberately redundant rows (input
  // latches, iteration control); the report must identify some of them.
  MachineDescription Flat =
      expandAlternatives(loadMachine("cydra5").take().MD).Flat;
  MachineDescription Reduced = reduceMachine(Flat).Reduced;
  ReductionReport Report = explainReduction(Flat, Reduced);

  EXPECT_FALSE(Report.RedundantOriginals.empty());
  auto Has = [&](const std::string &Name) {
    return std::find(Report.RedundantOriginals.begin(),
                     Report.RedundantOriginals.end(),
                     Name) != Report.RedundantOriginals.end();
  };
  EXPECT_TRUE(Has("FMulIterCtl")); // duplicates FMulIter cycle for cycle
  EXPECT_TRUE(Has("MemIn0"));      // duplicates SlotMem0
}

TEST(Explain, PrintedReportMentionsKeyFacts) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  MachineDescription Reduced = reduceMachine(MD).Reduced;
  std::ostringstream OS;
  printReductionReport(OS, explainReduction(MD, Reduced), Reduced);
  std::string Out = OS.str();
  EXPECT_NE(Out.find("2 synthesized resources"), std::string::npos);
  EXPECT_NE(Out.find("q0"), std::string::npos);
  EXPECT_NE(Out.find("subsumes"), std::string::npos);
}
