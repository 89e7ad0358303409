//===- tests/MdlFuzzTest.cpp - Parser robustness under hostile input ------===//
//
// The MDL parser is the library's user-input boundary: it must reject
// arbitrary garbage with diagnostics, never crash, and never return a
// description that fails validation.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "mdl/Parser.h"
#include "mdl/Writer.h"
#include "reduce/Reduction.h"
#include "RandomMachine.h"
#include "support/RNG.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

const char *Alphabet[] = {
    "machine", "resources", "operation", "alternative", "at", "latency",
    "role",    "{",         "}",         ",",           ";",  "..",
    "0",       "7",         "42",        "r0",          "x",  "load",
    "#c\n",    " ",         "\n",        "@",           "$",  "%",
};

/// Parsing must terminate without crashing; on success the result must
/// validate.
void parseMustBehave(const std::string &Text) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Text, Diags);
  if (MD.has_value()) {
    DiagnosticEngine Check;
    EXPECT_TRUE(MD->validate(Check));
  } else {
    EXPECT_TRUE(Diags.hasErrors());
  }
}

} // namespace

TEST(MdlFuzz, RandomTokenSoup) {
  RNG R(0xF022);
  for (int Trial = 0; Trial < 3000; ++Trial) {
    std::string Text;
    unsigned Tokens = 1 + static_cast<unsigned>(R.nextBelow(40));
    for (unsigned T = 0; T < Tokens; ++T) {
      Text += Alphabet[R.nextBelow(std::size(Alphabet))];
      Text += ' ';
    }
    parseMustBehave(Text);
  }
}

TEST(MdlFuzz, RandomBytes) {
  RNG R(0xB17E);
  for (int Trial = 0; Trial < 1500; ++Trial) {
    std::string Text;
    unsigned Len = static_cast<unsigned>(R.nextBelow(120));
    for (unsigned I = 0; I < Len; ++I)
      Text += static_cast<char>(R.nextInRange(1, 126));
    parseMustBehave(Text);
  }
}

TEST(MdlFuzz, MutationsOfValidInput) {
  std::string Valid = writeMdl(loadMachine("cydra5").take().MD);
  RNG R(0x5EED);
  for (int Trial = 0; Trial < 1500; ++Trial) {
    std::string Text = Valid;
    // Apply 1-4 random deletions/substitutions/duplications/digit runs.
    unsigned Edits = 1 + static_cast<unsigned>(R.nextBelow(4));
    for (unsigned E = 0; E < Edits && !Text.empty(); ++E) {
      size_t Pos = R.nextBelow(Text.size());
      switch (R.nextBelow(4)) {
      case 0:
        Text.erase(Pos, 1 + R.nextBelow(5));
        break;
      case 1:
        Text[Pos] = static_cast<char>(R.nextInRange(32, 126));
        break;
      case 2:
        Text.insert(Pos, std::string(1 + R.nextBelow(3),
                                     static_cast<char>(
                                         R.nextInRange(32, 126))));
        break;
      default: {
        // Lengthen the next integer literal by 1-25 digits: oversized cycle
        // numbers and latencies must be diagnosed, not wrapped.
        size_t Digit = Text.find_first_of("0123456789", Pos);
        if (Digit == std::string::npos)
          Digit = Pos;
        std::string Run;
        for (uint64_t I = 0, Len = 1 + R.nextBelow(25); I < Len; ++I)
          Run += static_cast<char>('0' + R.nextBelow(10));
        Text.insert(Digit, Run);
        break;
      }
      }
    }
    parseMustBehave(Text);
  }
}

TEST(MdlFuzz, TruncationsOfValidInput) {
  std::string Valid = writeMdl(loadMachine("mips-r3000").take().MD);
  for (size_t Cut = 0; Cut < Valid.size(); Cut += 13)
    parseMustBehave(Valid.substr(0, Cut));
}

//===----------------------------------------------------------------------===//
// Reduction correctness under fuzzed *valid* machines
//===----------------------------------------------------------------------===//

// Every fuzzed valid machine must reduce successfully AND report the
// verification verdict into the stats registry: after a checked reduction,
// the snapshot shows exactly one passed FLM re-verification and zero
// violations. This pins the observability layer to the paper's Theorem 1
// check — a reduction that silently skips verification (or a counter that
// drifts from the verifier) fails here across 40 machine shapes.
TEST(MdlFuzz, FuzzedValidMachinesReportFlmPreserved) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    MachineDescription MD = randomValidMachine(Seed);
    DiagnosticEngine Check;
    ASSERT_TRUE(MD.validate(Check)) << "seed " << Seed;

    StatsRegistry::instance().reset();
    Expected<ReductionResult> Result = reduceMachineChecked(MD);
    ASSERT_TRUE(Result.hasValue())
        << "seed " << Seed << ": " << Result.status().render();

    StatsSnapshot Snap = StatsRegistry::instance().snapshot();
    auto Preserved = Snap.Counters.find("reduce.flm_preserved");
    auto Violations = Snap.Counters.find("reduce.flm_violations");
    ASSERT_NE(Preserved, Snap.Counters.end()) << "seed " << Seed;
    ASSERT_NE(Violations, Snap.Counters.end()) << "seed " << Seed;
    EXPECT_EQ(Preserved->second, 1u) << "seed " << Seed;
    EXPECT_EQ(Violations->second, 0u) << "seed " << Seed;
  }
}
