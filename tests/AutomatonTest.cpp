//===- tests/AutomatonTest.cpp - FSA baseline tests -----------------------===//

#include "automaton/PipelineAutomaton.h"
#include "flm/ForbiddenLatencyMatrix.h"
#include "machines/Catalog.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

/// Runs \p A over a multi-issue schedule: IssuesPerCycle[t] lists the ops
/// issued in cycle t. Returns true if every issue is accepted.
bool acceptsSchedule(const PipelineAutomaton &A,
                     const std::vector<std::vector<OpId>> &IssuesPerCycle) {
  PipelineAutomaton::StateId S = A.initialState();
  for (const std::vector<OpId> &Cycle : IssuesPerCycle) {
    for (OpId Op : Cycle) {
      std::optional<PipelineAutomaton::StateId> Next = A.issue(S, Op);
      if (!Next)
        return false;
      S = *Next;
    }
    S = A.advance(S);
  }
  return true;
}

/// Oracle: the schedule is contention-free iff no pair of issues hits a
/// forbidden latency.
bool oracleAccepts(const ForbiddenLatencyMatrix &FLM,
                   const std::vector<std::vector<OpId>> &IssuesPerCycle) {
  std::vector<std::pair<OpId, int>> Issues;
  for (size_t T = 0; T < IssuesPerCycle.size(); ++T)
    for (OpId Op : IssuesPerCycle[T])
      Issues.push_back({Op, static_cast<int>(T)});
  for (size_t I = 0; I < Issues.size(); ++I)
    for (size_t J = 0; J < Issues.size(); ++J) {
      if (I == J)
        continue;
      if (FLM.isForbidden(Issues[I].first, Issues[J].first,
                          Issues[I].second - Issues[J].second))
        return false;
    }
  return true;
}

std::vector<std::vector<OpId>> randomSchedule(RNG &R,
                                              const MachineDescription &MD,
                                              int Cycles, int MaxPerCycle) {
  std::vector<std::vector<OpId>> S(Cycles);
  for (auto &Cycle : S) {
    unsigned N = static_cast<unsigned>(R.nextBelow(MaxPerCycle + 1));
    for (unsigned I = 0; I < N; ++I)
      Cycle.push_back(static_cast<OpId>(R.nextBelow(MD.numOperations())));
  }
  return S;
}

} // namespace

TEST(PipelineAutomaton, Fig1BasicTransitions) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  auto A = PipelineAutomaton::build(MD);
  ASSERT_TRUE(A.has_value());
  OpId OpA = MD.findOperation("A");
  OpId OpB = MD.findOperation("B");

  auto S0 = A->initialState();
  // Two As in the same cycle conflict (0 in F(A,A)).
  auto S1 = A->issue(S0, OpA);
  ASSERT_TRUE(S1.has_value());
  EXPECT_FALSE(A->issue(*S1, OpA).has_value());
  // B one cycle after A conflicts (1 in F(B,A)).
  auto S2 = A->advance(*S1);
  EXPECT_FALSE(A->issue(S2, OpB).has_value());
  // Two cycles after A is fine.
  auto S3 = A->advance(S2);
  EXPECT_TRUE(A->issue(S3, OpB).has_value());
}

TEST(PipelineAutomaton, AgreesWithForbiddenLatencyOracle) {
  for (const MachineDescription &MD :
       {loadMachine("fig1").take().MD,
        expandAlternatives(loadMachine("toy-vliw").take().MD).Flat}) {
    auto A = PipelineAutomaton::build(MD);
    ASSERT_TRUE(A.has_value()) << MD.name();
    ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(MD);

    RNG R(2026);
    int Agreements = 0;
    for (int Trial = 0; Trial < 400; ++Trial) {
      auto S = randomSchedule(R, MD, 10, 2);
      // The automaton rejects at the *first* offending issue; the oracle
      // is order-insensitive. Acceptance must nonetheless coincide.
      bool Got = acceptsSchedule(*A, S);
      bool Want = oracleAccepts(FLM, S);
      ASSERT_EQ(Got, Want) << MD.name() << " trial " << Trial;
      Agreements += Got == Want;
    }
    EXPECT_EQ(Agreements, 400);
  }
}

TEST(PipelineAutomaton, ReverseAcceptsMirroredSchedules) {
  MachineDescription MD =
      expandAlternatives(loadMachine("toy-vliw").take().MD).Flat;
  auto Fwd = PipelineAutomaton::build(MD);
  auto Rev = PipelineAutomaton::buildReverse(MD);
  ASSERT_TRUE(Fwd.has_value());
  ASSERT_TRUE(Rev.has_value());

  // Reversing a schedule maps occupancy at cycle t to cycle H-1-t. With
  // per-op mirrored tables, an op issued forward at c is issued in the
  // mirrored schedule at H-1-c-(len-1). The reverse automaton must accept
  // exactly the mirrors of the schedules the forward automaton accepts.
  RNG R(7);
  for (int Trial = 0; Trial < 600; ++Trial) {
    auto S = randomSchedule(R, MD, 8, 2);
    int T = static_cast<int>(S.size());
    int Horizon = T + MD.maxTableLength();
    std::vector<std::vector<OpId>> Mirror(Horizon);
    for (int Cycle = 0; Cycle < T; ++Cycle)
      for (OpId Op : S[Cycle]) {
        int Len = MD.operation(Op).table().length();
        int MirrorCycle = Horizon - 1 - Cycle - (Len - 1);
        ASSERT_GE(MirrorCycle, 0); // Horizon is padded by maxTableLength
        Mirror[MirrorCycle].push_back(Op);
      }
    EXPECT_EQ(acceptsSchedule(*Fwd, S), acceptsSchedule(*Rev, Mirror))
        << "trial " << Trial;
  }
}

TEST(PipelineAutomaton, StateCountsReasonable) {
  // Automaton approaches start from minimized descriptions; the language
  // depends only on the forbidden latency matrix, so build from the
  // reduction (the raw hardware-level description exceeds any sane cap --
  // exactly the state-explosion problem of Section 2).
  MachineDescription Flat =
      expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  MachineDescription Mips = reduceMachine(Flat).Reduced;
  auto A = PipelineAutomaton::build(Mips, 1u << 22);
  ASSERT_TRUE(A.has_value());
  // Single-issue machine with long divides: clearly more than a handful of
  // states, and the table dwarfs a reduced reservation table.
  EXPECT_GT(A->numStates(), 100u);
  EXPECT_GT(A->tableBytes(), 10000u);
  EXPECT_LE(A->numCycleAdvancingStates(), A->numStates());
  EXPECT_GT(A->numIssueTransitions(), 0u);
}

TEST(PipelineAutomaton, CapAborts) {
  MachineDescription Mips =
      expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  EXPECT_FALSE(PipelineAutomaton::build(Mips, 4).has_value());
}

TEST(PipelineAutomaton, RawHardwareDescriptionExplodes) {
  // The hardware-level MIPS description (with its redundant pipeline-stage
  // rows) overflows a 2^18-state cap that the reduced description fits
  // comfortably -- the motivation for reducing before building automata.
  MachineDescription Flat =
      expandAlternatives(loadMachine("mips-r3000").take().MD).Flat;
  EXPECT_FALSE(PipelineAutomaton::build(Flat, 1u << 18).has_value());
}

TEST(PipelineAutomaton, RejectsHorizonOver64) {
  MachineDescription MD("long");
  ResourceId R = MD.addResource("r");
  ReservationTable T;
  T.addUsage(R, 0);
  T.addUsage(R, 70);
  MD.addOperation("x", T);
  EXPECT_FALSE(PipelineAutomaton::build(MD).has_value());
}
