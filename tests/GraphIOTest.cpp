//===- tests/GraphIOTest.cpp - Loop-graph format tests --------------------===//

#include "machines/Catalog.h"
#include "mdl/Lexer.h"
#include "sched/GraphIO.h"
#include "sched/MII.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

void expectGraphError(const std::string &Text, const std::string &Needle) {
  MachineModel Cydra = loadMachine("cydra5").take();
  DiagnosticEngine Diags;
  EXPECT_FALSE(parseLoopGraph(Text, Cydra, Diags).has_value());
  EXPECT_TRUE(Diags.hasErrors());
  bool Found = false;
  for (const Diagnostic &D : Diags.diagnostics())
    Found |= D.Message.find(Needle) != std::string::npos;
  EXPECT_TRUE(Found) << "no diagnostic mentioning '" << Needle << "'";
}

} // namespace

TEST(GraphIO, ParsesLoopWithDefaultsAndOverrides) {
  MachineModel Cydra = loadMachine("cydra5").take();
  DiagnosticEngine Diags;
  std::optional<DepGraph> G = parseLoopGraph(R"(
    loop t {
      a: load;
      b: fadd.s;
      c: store;
      edge a -> b;                  # delay defaults to load's latency
      edge b -> c delay 9;
      edge b -> b distance 1;       # reduction recurrence
      edge c -> a delay 1 distance 2;
    }
  )",
                                             Cydra, Diags);
  ASSERT_TRUE(G.has_value());
  EXPECT_EQ(G->numNodes(), 3u);
  ASSERT_EQ(G->numEdges(), 4u);
  EXPECT_EQ(G->nodeName(0), "a");
  EXPECT_EQ(Cydra.MD.operation(G->opOf(1)).Name, "fadd.s");
  EXPECT_EQ(G->edges()[0].Delay, Cydra.Latency[G->opOf(0)]);
  EXPECT_EQ(G->edges()[1].Delay, 9);
  EXPECT_EQ(G->edges()[2].Distance, 1);
  EXPECT_EQ(G->edges()[2].Delay, Cydra.Latency[G->opOf(1)]);
  EXPECT_EQ(G->edges()[3].Delay, 1);
  EXPECT_EQ(G->edges()[3].Distance, 2);

  // Recurrences: b->b needs II >= 6 (fadd latency); the a->b->c->a cycle
  // needs 2*II >= 5+9+1, i.e. II >= 8, which dominates.
  EXPECT_EQ(computeRecMII(*G), 8);
}

TEST(GraphIO, RoundTrips) {
  MachineModel Mips = loadMachine("mips-r3000").take();
  DiagnosticEngine Diags;
  std::optional<DepGraph> G = parseLoopGraph(R"(
    loop rt {
      x: mult;
      y: add.s;
      edge x -> y delay 12;
      edge y -> y delay 3 distance 1;
    }
  )",
                                             Mips, Diags);
  ASSERT_TRUE(G.has_value());

  std::string Text = writeLoopGraph(*G, Mips);
  DiagnosticEngine Diags2;
  std::optional<DepGraph> Back = parseLoopGraph(Text, Mips, Diags2);
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->numNodes(), G->numNodes());
  EXPECT_EQ(Back->numEdges(), G->numEdges());
  for (size_t E = 0; E < G->numEdges(); ++E) {
    EXPECT_EQ(Back->edges()[E].Delay, G->edges()[E].Delay);
    EXPECT_EQ(Back->edges()[E].Distance, G->edges()[E].Distance);
  }
  for (NodeId N = 0; N < G->numNodes(); ++N)
    EXPECT_EQ(Back->nodeName(N), G->nodeName(N));
}

TEST(GraphIO, ErrorOversizedIntegerLiterals) {
  // Delays and distances share the lexer's literal bound: INT_MAX,
  // INT_MAX + 1, 2^63 and a 25-digit literal are diagnosed, not wrapped.
  for (std::string Lit : {"2147483647", "2147483648", "9223372036854775808",
                          "1234567890123456789012345"}) {
    SCOPED_TRACE(Lit);
    expectGraphError("loop t { a: load; edge a -> a delay " + Lit +
                         " distance 1; }",
                     "integer literal out of range");
    expectGraphError("loop t { a: load; edge a -> a distance " + Lit + "; }",
                     "integer literal out of range");
  }
  // At the limit the graph parses and its RecMII is exact.
  MachineModel Cydra = loadMachine("cydra5").take();
  DiagnosticEngine Diags;
  std::string Max = std::to_string(MaxIntegerLiteral);
  std::optional<DepGraph> G = parseLoopGraph(
      "loop t { a: load; edge a -> a delay " + Max + " distance 1; }", Cydra,
      Diags);
  ASSERT_TRUE(G.has_value());
  EXPECT_EQ(computeRecMII(*G), static_cast<int>(MaxIntegerLiteral));
}

TEST(GraphIO, Errors) {
  expectGraphError("loop t { a: warpcore; }", "no operation");
  expectGraphError("loop t { a: load; a: load; }", "duplicate node");
  expectGraphError("loop t { a: load; edge a -> zz; }", "unknown node");
  expectGraphError("loop t { }", "no operations");
  expectGraphError("loop t { a: load; edge a -> a distance 0 junk; }",
                   "expected 'delay', 'distance' or ';'");
  expectGraphError("loop t { a: load; } extra", "trailing input");
}
