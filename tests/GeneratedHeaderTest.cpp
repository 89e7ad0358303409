//===- tests/GeneratedHeaderTest.cpp - mdlc output compiles & is fresh ----===//
//
// tests/generated/fig1_tables.h is the mdlc (--emit=c++) output for the
// reduced Figure 1 machine, checked in. Including it here proves the
// generated code compiles as constexpr C++; the freshness test proves the
// checked-in file matches what the current toolchain generates; the
// semantic test proves the tables mean what the library means.
//
//===----------------------------------------------------------------------===//

#include "generated/fig1_tables.h"

#include "machines/Catalog.h"
#include "mdl/CppGen.h"
#include "reduce/Reduction.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace rmd;

#ifndef RMD_SOURCE_DIR
#define RMD_SOURCE_DIR "."
#endif

namespace {

MachineDescription reducedFig1() {
  MachineDescription Flat =
      expandAlternatives(loadMachine("fig1").take().MD).Flat;
  return reduceMachine(Flat).Reduced;
}

} // namespace

// constexpr usability: the tables are compile-time constants.
static_assert(fig1_tables::kNumResources == 2);
static_assert(fig1_tables::kNumOperations == 2);
static_assert(fig1_tables::kOperations[1].NumUsages == 4);
static_assert(fig1_tables::kUsages_B[0].Resource == 0);

TEST(GeneratedHeader, MatchesLibrarySemantics) {
  MachineDescription Reduced = reducedFig1();
  ASSERT_EQ(fig1_tables::kNumResources, Reduced.numResources());
  ASSERT_EQ(fig1_tables::kNumOperations, Reduced.numOperations());
  EXPECT_EQ(fig1_tables::kMaxTableLength,
            static_cast<unsigned>(Reduced.maxTableLength()));

  for (OpId Op = 0; Op < Reduced.numOperations(); ++Op) {
    const fig1_tables::Operation &Gen = fig1_tables::kOperations[Op];
    const Operation &Lib = Reduced.operation(Op);
    EXPECT_EQ(Gen.Name, Lib.Name);
    ASSERT_EQ(Gen.NumUsages, Lib.table().usageCount());
    for (unsigned U = 0; U < Gen.NumUsages; ++U) {
      EXPECT_EQ(Gen.Usages[U].Resource, Lib.table().usages()[U].Resource);
      EXPECT_EQ(Gen.Usages[U].Cycle,
                static_cast<unsigned>(Lib.table().usages()[U].Cycle));
    }
  }
}

TEST(GeneratedHeader, CheckedInFileIsFresh) {
  std::ifstream In(std::string(RMD_SOURCE_DIR) +
                   "/tests/generated/fig1_tables.h");
  ASSERT_TRUE(In.good()) << "missing tests/generated/fig1_tables.h";
  std::ostringstream SS;
  SS << In.rdbuf();
  EXPECT_EQ(SS.str(), writeCppTables(reducedFig1(), "fig1_tables"))
      << "regenerate tests/generated/fig1_tables.h (mdlc output changed)";
}
