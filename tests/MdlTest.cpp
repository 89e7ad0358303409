//===- tests/MdlTest.cpp - Machine description language tests -------------===//

#include "machines/Catalog.h"
#include "mdl/Lexer.h"
#include "mdl/Parser.h"
#include "mdl/Writer.h"
#include "reduce/Reduction.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

MachineDescription parseOrDie(const std::string &Text) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Text, Diags);
  if (!MD.has_value()) {
    std::ostringstream OS;
    Diags.print(OS);
    ADD_FAILURE() << "parse failed:\n" << OS.str();
    return MachineDescription("<failed>");
  }
  return *MD;
}

void expectParseError(const std::string &Text, const std::string &Needle) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Text, Diags);
  EXPECT_FALSE(MD.has_value()) << "parse unexpectedly succeeded";
  EXPECT_TRUE(Diags.hasErrors());
  bool Found = false;
  for (const Diagnostic &D : Diags.diagnostics())
    Found |= D.Message.find(Needle) != std::string::npos;
  EXPECT_TRUE(Found) << "no diagnostic mentioning '" << Needle << "'";
}

} // namespace

TEST(Mdl, ParsesFigure1Machine) {
  MachineDescription MD = parseOrDie(R"(
    # the paper's Figure 1 machine
    machine fig1 {
      resources r0, r1, r2, r3, r4;
      operation A { r0 at 0; r1 at 1; r2 at 2; }
      operation B {
        r1 at 0; r2 at 1;
        r3 at 2 .. 5;
        r4 at 6 .. 7;
      }
    }
  )");
  EXPECT_EQ(MD, loadMachine("fig1").take().MD);
}

TEST(Mdl, ParsesAlternatives) {
  MachineDescription MD = parseOrDie(R"(
    machine m {
      resources p0, p1;
      operation ld {
        alternative { p0 at 0; }
        alternative { p1 at 0 .. 1; }
      }
    }
  )");
  ASSERT_EQ(MD.numOperations(), 1u);
  ASSERT_EQ(MD.operation(0).Alternatives.size(), 2u);
  EXPECT_EQ(MD.operation(0).Alternatives[1].usageCount(), 2u);
}

TEST(Mdl, ParsesEmptyOperation) {
  MachineDescription MD = parseOrDie("machine m { operation nop { } }");
  ASSERT_EQ(MD.numOperations(), 1u);
  EXPECT_TRUE(MD.operation(0).table().empty());
}

TEST(Mdl, CommentsAndWhitespace) {
  MachineDescription MD = parseOrDie(
      "machine m { // c++ style\n resources r;\n # hash style\n"
      " operation x { r at 0; } }");
  EXPECT_EQ(MD.numOperations(), 1u);
}

TEST(Mdl, ErrorUnknownResource) {
  expectParseError("machine m { operation x { bogus at 0; } }",
                   "unknown resource");
}

TEST(Mdl, ErrorDuplicateResource) {
  expectParseError("machine m { resources r, r; }", "duplicate resource");
}

TEST(Mdl, ErrorEmptyRange) {
  expectParseError(
      "machine m { resources r; operation x { r at 5 .. 3; } }",
      "empty cycle range");
}

TEST(Mdl, ErrorOversizedIntegerLiterals) {
  // INT_MAX, INT_MAX + 1, 2^63 and a 25-digit literal, as a cycle, a range
  // end and a latency: each is a diagnosed parse error, never a wrapped
  // cast, a signed overflow or a billion-cycle range.
  for (std::string Lit : {"2147483647", "2147483648", "9223372036854775808",
                          "1234567890123456789012345"}) {
    SCOPED_TRACE(Lit);
    expectParseError("machine m { resources r; operation x { r at " + Lit +
                         "; } }",
                     "integer literal out of range");
    expectParseError("machine m { resources r; operation x { r at 5.." + Lit +
                         "; } }",
                     "integer literal out of range");
    expectParseError("machine m { resources r; operation x latency " + Lit +
                         " { r at 0; } }",
                     "integer literal out of range");
  }
  // Wrapped to 4 by a 32-bit cast, this range once tripped an assert.
  expectParseError("machine m { resources r0; operation x { r0 at "
                   "5..4294967300; } }",
                   "integer literal out of range");
  // The limit itself is accepted.
  MachineDescription MD = parseOrDie(
      "machine m { resources r; operation x { r at " +
      std::to_string(MaxIntegerLiteral) + "; } }");
  ASSERT_EQ(MD.numOperations(), 1u);
  EXPECT_EQ(MD.operation(0).table().length(),
            static_cast<int>(MaxIntegerLiteral) + 1);
}

TEST(Mdl, ErrorMissingSemicolon) {
  expectParseError("machine m { resources r; operation x { r at 0 } }",
                   "expected ';'");
}

TEST(Mdl, ErrorGarbage) {
  expectParseError("machine m { resources r; operation x { r at 0; } } junk",
                   "trailing input");
}

TEST(Mdl, ErrorLocationsAreAccurate) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(
      parseMdl("machine m {\n  resources r;\n  operation x { q at 0; }\n}",
               Diags)
          .has_value());
  ASSERT_FALSE(Diags.diagnostics().empty());
  EXPECT_EQ(Diags.diagnostics()[0].Loc.Line, 3u);
}

TEST(Mdl, RoundTripsBuiltinMachines) {
  for (const char *Name : {"fig1", "cydra5", "alpha21064", "mips-r3000",
                           "toy-vliw", "playdoh"}) {
    MachineDescription MD = loadMachine(Name).take().MD;
    std::string Text = writeMdl(MD);
    DiagnosticEngine Diags;
    std::optional<MachineDescription> Back = parseMdl(Text, Diags);
    ASSERT_TRUE(Back.has_value()) << MD.name();
    EXPECT_EQ(*Back, MD) << MD.name();
  }
}

TEST(Mdl, RoundTripsReducedDescriptions) {
  MachineDescription Flat =
      expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  MachineDescription Reduced = reduceMachine(Flat).Reduced;
  DiagnosticEngine Diags;
  std::optional<MachineDescription> Back = parseMdl(writeMdl(Reduced), Diags);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, Reduced);
  EXPECT_TRUE(verifyEquivalence(Flat, *Back));
}

TEST(Mdl, WriterMergesRanges) {
  MachineDescription MD("m");
  ResourceId R = MD.addResource("r");
  ReservationTable T;
  T.addUsageRange(R, 2, 6);
  T.addUsage(R, 9);
  MD.addOperation("x", T);
  std::string Text = writeMdl(MD);
  EXPECT_NE(Text.find("r at 2 .. 6;"), std::string::npos);
  EXPECT_NE(Text.find("r at 9;"), std::string::npos);
}
