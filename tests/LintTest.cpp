//===- tests/LintTest.cpp - Machine description linter tests --------------===//

#include "machines/Catalog.h"
#include "mdesc/Lint.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

bool hasWarning(const DiagnosticEngine &Diags, const std::string &Needle) {
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

} // namespace

TEST(Lint, FlagsUnusedResourceAndEmptyOperation) {
  MachineDescription MD("m");
  MD.addResource("ghost");
  ResourceId R = MD.addResource("real");
  MD.addOperation("nop", ReservationTable());
  ReservationTable T;
  T.addUsage(R, 0);
  MD.addOperation("x", T);

  DiagnosticEngine Diags;
  unsigned Warnings = lintMachine(MD, Diags);
  EXPECT_GE(Warnings, 2u);
  EXPECT_TRUE(hasWarning(Diags, "'ghost' is used by no operation"));
  EXPECT_TRUE(hasWarning(Diags, "'nop' uses no resources"));
  EXPECT_FALSE(Diags.hasErrors()); // lint produces warnings only
}

TEST(Lint, FlagsOverlongTableAndDuplicateAlternatives) {
  MachineDescription MD("m");
  ResourceId R = MD.addResource("r");
  ReservationTable Long;
  Long.addUsage(R, 0);
  Long.addUsage(R, 70);
  MD.addOperation("marathon", Long);

  ReservationTable Alt;
  Alt.addUsage(R, 1);
  MD.addOperation("twins", {Alt, Alt});

  DiagnosticEngine Diags;
  lintMachine(MD, Diags);
  EXPECT_TRUE(hasWarning(Diags, "spans 71 cycles"));
  EXPECT_TRUE(hasWarning(Diags, "duplicate alternatives"));
}

TEST(Lint, FlagsNegativeUsageCycles) {
  // Usage cycles are issue-relative; a negative cycle would wrap the
  // size_t table-length math in the bitvector module's pattern builder.
  // The vector constructor deliberately accepts it (descriptions built
  // from untrusted data stay representable for diagnosis) and lint flags
  // it.
  MachineDescription MD("m");
  ResourceId R = MD.addResource("r");
  ReservationTable Bad(std::vector<ResourceUsage>{{R, -2}, {R, 1}});
  MD.addOperation("early", Bad);

  DiagnosticEngine Diags;
  unsigned Warnings = lintMachine(MD, Diags);
  EXPECT_GE(Warnings, 1u);
  EXPECT_TRUE(hasWarning(Diags, "negative cycle -2"));
  EXPECT_TRUE(hasWarning(Diags, "'r'"));
  EXPECT_FALSE(Diags.hasErrors());

  // One warning per offending alternative, not per offending usage.
  MachineDescription MD2("m2");
  ResourceId R2 = MD2.addResource("r");
  ReservationTable Bad2(
      std::vector<ResourceUsage>{{R2, -3}, {R2, -1}, {R2, 0}});
  MD2.addOperation("worse", Bad2);
  DiagnosticEngine Diags2;
  lintMachine(MD2, Diags2);
  unsigned NegativeWarnings = 0;
  for (const Diagnostic &D : Diags2.diagnostics())
    if (D.Message.find("negative cycle") != std::string::npos)
      ++NegativeWarnings;
  EXPECT_EQ(NegativeWarnings, 1u);
}

TEST(Lint, FlagsIdenticalTablesAcrossOperations) {
  MachineDescription MD("m");
  ResourceId R = MD.addResource("r");
  ReservationTable T;
  T.addUsage(R, 0);
  MD.addOperation("a", T);
  MD.addOperation("b", T);
  DiagnosticEngine Diags;
  lintMachine(MD, Diags);
  EXPECT_TRUE(hasWarning(Diags, "identical reservation tables"));
}

TEST(Lint, BuiltinMachinesAreMostlyClean) {
  // Builtins may legitimately contain identical-table pairs (operation
  // classes) but no unused resources, no empty tables, no over-long
  // tables, no duplicate alternatives.
  for (const char *Name : {"cydra5", "alpha21064", "mips-r3000", "toy-vliw",
                           "playdoh", "m88100"}) {
    MachineModel M = loadMachine(Name).take();
    DiagnosticEngine Diags;
    lintMachine(M.MD, Diags);
    EXPECT_FALSE(hasWarning(Diags, "used by no operation")) << M.MD.name();
    EXPECT_FALSE(hasWarning(Diags, "uses no resources")) << M.MD.name();
    EXPECT_FALSE(hasWarning(Diags, "spans")) << M.MD.name();
    EXPECT_FALSE(hasWarning(Diags, "duplicate alternatives"))
        << M.MD.name();
  }
}
