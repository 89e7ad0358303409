//===- tests/CppGenTest.cpp - C++ table emission tests --------------------===//

#include "machines/Catalog.h"
#include "mdl/CppGen.h"
#include "reduce/Reduction.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

size_t countOccurrences(const std::string &Haystack,
                        const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Haystack.find(Needle); Pos != std::string::npos;
       Pos = Haystack.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

} // namespace

TEST(CppGen, Fig1TablesComplete) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  std::string Out = writeCppTables(MD, "fig1_tables");

  EXPECT_NE(Out.find("namespace fig1_tables {"), std::string::npos);
  EXPECT_NE(Out.find("inline constexpr unsigned kNumResources = 5;"),
            std::string::npos);
  EXPECT_NE(Out.find("inline constexpr unsigned kNumOperations = 2;"),
            std::string::npos);
  EXPECT_NE(Out.find("kMaxTableLength = 8;"), std::string::npos);
  EXPECT_NE(Out.find("kUsages_A[]"), std::string::npos);
  EXPECT_NE(Out.find("kUsages_B[]"), std::string::npos);
  // B holds r3 (id 3) in cycles 2..5.
  EXPECT_NE(Out.find("{3, 2}"), std::string::npos);
  EXPECT_NE(Out.find("{3, 5}"), std::string::npos);
  // One kOperations entry per op.
  EXPECT_EQ(countOccurrences(Out, "kUsages_A,"), 1u);
  EXPECT_EQ(countOccurrences(Out, "kUsages_B,"), 1u);
  // Balanced braces (a cheap well-formedness proxy).
  EXPECT_EQ(countOccurrences(Out, "{"), countOccurrences(Out, "}"));
}

TEST(CppGen, SanitizesAwkwardNames) {
  MachineDescription MD("m");
  ResourceId R = MD.addResource("r");
  ReservationTable T;
  T.addUsage(R, 0);
  MD.addOperation("fadd.s@1", T);
  std::string Out = writeCppTables(MD, "ns");
  EXPECT_NE(Out.find("kUsages_fadd_s_1"), std::string::npos);
  // The display name keeps its original spelling.
  EXPECT_NE(Out.find("\"fadd.s@1\""), std::string::npos);
}

TEST(CppGen, EmptyTableGetsPlaceholder) {
  MachineDescription MD("m");
  MD.addResource("r");
  MD.addOperation("nop", ReservationTable());
  std::string Out = writeCppTables(MD, "ns");
  EXPECT_NE(Out.find("placeholder"), std::string::npos);
  EXPECT_NE(Out.find("\"nop\", kUsages_nop, 0}"), std::string::npos);
}

TEST(CppGen, ReducedMachineUsageCountsMatch) {
  MachineDescription Flat =
      expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  MachineDescription Reduced = reduceMachine(Flat).Reduced;
  std::string Out = writeCppTables(Reduced, "mips_reduced");

  // Every usage appears exactly once: count numeric "{r, c}" rows (the
  // kOperations rows start with a quoted name and are excluded).
  size_t Pairs = 0;
  for (const Operation &Op : Reduced.operations())
    Pairs += std::max<size_t>(Op.table().usageCount(), 1); // placeholders
  size_t NumericRows =
      countOccurrences(Out, "\n    {") - countOccurrences(Out, "\n    {\"");
  EXPECT_EQ(NumericRows, Pairs);
}
