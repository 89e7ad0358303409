//===- tests/AutomatonQueryTest.cpp - FSA query module tests --------------===//
//
// The automaton-based query module must answer every query exactly like
// the reservation-table modules; what differs is the work (lookups,
// propagation) and state it needs -- which is the paper's argument.
//
//===----------------------------------------------------------------------===//

#include "automaton/AutomatonQuery.h"
#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "reduce/Reduction.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace rmd;

TEST(AutomatonQuery, Fig1Basics) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  AutomatonQueryModule Q(MD, /*Horizon=*/32);
  OpId A = MD.findOperation("A");
  OpId B = MD.findOperation("B");

  EXPECT_TRUE(Q.check(A, 0));
  Q.assign(A, 0, 1);
  EXPECT_FALSE(Q.check(B, 1)); // 1 in F(B,A)
  EXPECT_TRUE(Q.check(B, 0));
  EXPECT_TRUE(Q.check(B, 2));
  EXPECT_FALSE(Q.check(A, 0));

  Q.free(A, 0, 1);
  EXPECT_TRUE(Q.check(B, 1));
}

TEST(AutomatonQuery, ReverseDirectionCatchesLaterOps) {
  // Insertion *below* an already scheduled operation must consult the
  // reverse automaton: B@2 first, then A@1 conflicts (B issues 1 cycle
  // after A is forbidden).
  MachineDescription MD = loadMachine("fig1").take().MD;
  AutomatonQueryModule Q(MD, 32);
  OpId A = MD.findOperation("A");
  OpId B = MD.findOperation("B");
  Q.assign(B, 2, 7);
  EXPECT_FALSE(Q.check(A, 1));
  EXPECT_TRUE(Q.check(A, 2));
}

TEST(AutomatonQuery, HorizonBounds) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  AutomatonQueryModule Q(MD, 10);
  OpId B = MD.findOperation("B"); // 8 cycles long
  EXPECT_TRUE(Q.check(B, 2));     // 2 + 8 == 10 fits
  EXPECT_FALSE(Q.check(B, 3));    // spills past the horizon
  EXPECT_FALSE(Q.check(B, -1));
}

TEST(AutomatonQuery, AssignAndFreeEvictsTheConflictSet) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  AutomatonQueryModule Q(MD, 32);
  OpId A = MD.findOperation("A");
  OpId B = MD.findOperation("B");
  Q.assign(A, 0, 1);
  Q.assign(A, 5, 2); // does not conflict with B@1

  std::vector<InstanceId> Evicted;
  Q.assignAndFree(B, 1, 3, Evicted);
  ASSERT_EQ(Evicted.size(), 1u);
  EXPECT_EQ(Evicted[0], 1);
  EXPECT_FALSE(Q.check(B, 1)); // B itself now holds resources
  // Instance 1's resources are released: A fits at cycle 3 (clear of both
  // B@1 and the untouched A@5).
  EXPECT_TRUE(Q.check(A, 3));
}

TEST(AutomatonQuery, WorkCountersPopulated) {
  MachineDescription MD = loadMachine("fig1").take().MD;
  AutomatonQueryModule Q(MD, 32);
  Q.check(MD.findOperation("B"), 4);
  EXPECT_EQ(Q.counters().CheckCalls, 1u);
  EXPECT_GE(Q.counters().CheckUnits, 2u); // >= 1 lookup per direction
  Q.assign(MD.findOperation("B"), 4, 1);
  // Assignment propagates states across the operation's 8-cycle span.
  EXPECT_GT(Q.counters().AssignUnits, 4u);
  EXPECT_GT(Q.cachedStateBytes(), 0u);
  EXPECT_GT(Q.tableBytes(), 0u);
}

// Cross-representation property: automaton answers == discrete answers
// under random traffic, including eviction sets.
class AutomatonQueryEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AutomatonQueryEquivalence, RandomTraffic) {
  MachineDescription Flat =
      GetParam() == 0
          ? expandAlternatives(loadMachine("toy-vliw").take().MD).Flat
          : reduceMachine(
                expandAlternatives(loadMachine("mips-r3000").take().MD).Flat)
                .Reduced;

  const int Horizon = 48;
  AutomatonQueryModule QA(Flat, Horizon);
  DiscreteQueryModule QD(Flat, QueryConfig::linear());

  RNG R(31 + GetParam());
  InstanceId Next = 0;
  std::vector<bool> Live;
  std::vector<std::pair<OpId, int>> Info;

  for (int Step = 0; Step < 400; ++Step) {
    OpId Op = static_cast<OpId>(R.nextBelow(Flat.numOperations()));
    int MaxStart = Horizon - Flat.operation(Op).table().length();
    if (MaxStart < 0)
      continue;
    int Cycle = static_cast<int>(R.nextBelow(MaxStart + 1));

    bool WantA = QA.check(Op, Cycle);
    bool WantD = QD.check(Op, Cycle);
    ASSERT_EQ(WantA, WantD) << "step " << Step << " op " << Op << " cycle "
                            << Cycle;

    if (R.nextChance(1, 2)) {
      // assignAndFree path: same eviction sets required.
      std::vector<InstanceId> EvA, EvD;
      InstanceId Id = Next++;
      QA.assignAndFree(Op, Cycle, Id, EvA);
      QD.assignAndFree(Op, Cycle, Id, EvD);
      std::sort(EvA.begin(), EvA.end());
      std::sort(EvD.begin(), EvD.end());
      ASSERT_EQ(EvA, EvD) << "step " << Step;
      Live.push_back(true);
      Info.push_back({Op, Cycle});
      for (InstanceId V : EvA)
        Live[static_cast<size_t>(V)] = false;
    } else if (WantA) {
      InstanceId Id = Next++;
      QA.assign(Op, Cycle, Id);
      QD.assign(Op, Cycle, Id);
      Live.push_back(true);
      Info.push_back({Op, Cycle});
    } else {
      Live.push_back(false);
      Info.push_back({0, 0});
      ++Next; // keep ids aligned with Live/Info indices
    }

    // Occasionally free a live instance from both.
    if (R.nextChance(1, 4)) {
      for (size_t I = 0; I < Live.size(); ++I)
        if (Live[I]) {
          QA.free(Info[I].first, Info[I].second,
                  static_cast<InstanceId>(I));
          QD.free(Info[I].first, Info[I].second,
                  static_cast<InstanceId>(I));
          Live[I] = false;
          break;
        }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, AutomatonQueryEquivalence,
                         ::testing::Values(0, 1));
