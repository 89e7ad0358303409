//===- tests/MdlModelTest.cpp - Annotated MDL model tests -----------------===//

#include "machines/Catalog.h"
#include "machines/MdlModel.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace rmd;

#ifndef RMD_SOURCE_DIR
#define RMD_SOURCE_DIR "."
#endif

TEST(MdlModel, RoleNamesRoundTrip) {
  for (OpRole Role :
       {OpRole::IntAlu, OpRole::AddrCalc, OpRole::Load, OpRole::Store,
        OpRole::FloatAdd, OpRole::FloatMul, OpRole::FloatDiv,
        OpRole::Convert, OpRole::Compare, OpRole::Move, OpRole::Branch}) {
    std::optional<OpRole> Back = roleFromName(roleName(Role));
    ASSERT_TRUE(Back.has_value());
    EXPECT_EQ(*Back, Role);
  }
  EXPECT_FALSE(roleFromName("warp-drive").has_value());
}

TEST(MdlModel, CatalogRoundTrips) {
  for (const std::string &Name : machineNames()) {
    MachineModel M = loadMachine(Name).take();
    std::string Text = writeMdlModel(M);
    DiagnosticEngine Diags;
    std::optional<MachineModel> Back = parseMdlModel(Text, Diags);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_TRUE(Diags.diagnostics().empty()) << Name;
    EXPECT_EQ(Back->MD, M.MD) << Name;
    EXPECT_EQ(Back->Latency, M.Latency) << Name;
    EXPECT_EQ(Back->Role, M.Role) << Name;
  }
}

TEST(MdlModel, AnnotationsParsed) {
  DiagnosticEngine Diags;
  std::optional<MachineModel> Model = parseMdlModel(R"(
    machine m {
      resources r;
      operation ld latency 3 role load { r at 0; }
      operation st role store latency 1 { r at 0; }
    }
  )",
                                                    Diags);
  ASSERT_TRUE(Model.has_value());
  EXPECT_EQ(Model->Latency, (std::vector<int>{3, 1}));
  EXPECT_EQ(Model->Role, (std::vector<OpRole>{OpRole::Load, OpRole::Store}));
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(MdlModel, DefaultsWarn) {
  DiagnosticEngine Diags;
  std::optional<MachineModel> Model = parseMdlModel(
      "machine m { resources r; operation x { r at 0; r at 4; } }", Diags);
  ASSERT_TRUE(Model.has_value());
  // Default latency = table length; default role = int-alu; two warnings.
  EXPECT_EQ(Model->Latency, (std::vector<int>{5}));
  EXPECT_EQ(Model->Role, (std::vector<OpRole>{OpRole::IntAlu}));
  EXPECT_EQ(Diags.diagnostics().size(), 2u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(MdlModel, UnknownRoleIsAnError) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseMdlModel("machine m { resources r; operation x role "
                             "quux { r at 0; } }",
                             Diags)
                   .has_value());
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(MdlModel, CatalogNamesAreTheWireNames) {
  EXPECT_EQ(machineNames(),
            (std::vector<std::string>{"fig1", "cydra5", "alpha21064",
                                      "mips-r3000", "toy-vliw", "playdoh",
                                      "m88100"}));
  ASSERT_EQ(machineCatalog().size(), machineNames().size());
}

TEST(MdlModel, CatalogLoadsWithoutDiagnostics) {
  for (const CatalogEntry &E : machineCatalog()) {
    DiagnosticEngine Diags;
    std::optional<MachineModel> Parsed = parseMdlModel(E.Mdl, Diags);
    ASSERT_TRUE(Parsed.has_value()) << E.File;
    EXPECT_TRUE(Diags.diagnostics().empty()) << E.File;

    Expected<MachineModel> Loaded = loadMachine(E.Name);
    ASSERT_TRUE(bool(Loaded)) << Loaded.status().render();
    EXPECT_EQ(Loaded.value().MD, Parsed->MD) << E.Name;
    EXPECT_EQ(Loaded.value().Latency, Parsed->Latency) << E.Name;
    EXPECT_EQ(Loaded.value().Role, Parsed->Role) << E.Name;
  }
}

TEST(MdlModel, CatalogMatchesCheckedInFiles) {
  // The build embeds machines/*.mdl verbatim; a stale embed means the
  // build missed an edit.
  for (const CatalogEntry &E : machineCatalog()) {
    std::string Path =
        std::string(RMD_SOURCE_DIR) + "/machines/" + std::string(E.File);
    std::ifstream In(Path, std::ios::binary);
    ASSERT_TRUE(In.good()) << "missing " << Path;
    std::ostringstream SS;
    SS << In.rdbuf();
    EXPECT_EQ(SS.str(), E.Mdl) << Path;
  }
}

TEST(MdlModel, UnknownMachineListsKnownNames) {
  Expected<MachineModel> Model = loadMachine("vax780");
  ASSERT_FALSE(bool(Model));
  EXPECT_EQ(Model.status().code(), ErrorCode::ProtocolError);
  EXPECT_EQ(Model.status().message(),
            "unknown machine 'vax780' (known: fig1, cydra5, alpha21064, "
            "mips-r3000, toy-vliw, playdoh, m88100)");
}
