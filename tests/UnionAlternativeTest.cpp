//===- tests/UnionAlternativeTest.cpp - union fast path equivalence -------===//
//
// BitvectorQueryModule::checkWithAlternatives promises "semantically
// identical" answers with the union-mask fast path on or off. This sweep
// pins that: two modules differing only in UnionAlternativeCheck are driven
// with the same seeded traffic — alternative queries, assigns of the chosen
// alternative, interleaved frees — and must return identical alternative
// indices at every step and identical reserved tables afterwards, in linear
// mode and in modulo mode at small IIs where alternative groups contain
// self-conflicting ops.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace rmd;

namespace {

struct Placement {
  OpId Op;
  int Cycle;
  InstanceId Instance;
};

MachineDescription machineFor(int Idx) {
  switch (Idx) {
  case 0:
    return loadMachine("toy-vliw").take().MD;
  case 1:
    return loadMachine("mips-r3000").take().MD;
  default:
    return loadMachine("cydra5").take().MD;
  }
}

/// Drives the union-on and union-off modules in lockstep and checks that
/// every answer and the final reserved table agree.
void sweep(const MachineDescription &Flat,
           const std::vector<std::vector<OpId>> &Groups, QueryConfig Config,
           uint64_t Seed, int CycleRange) {
  QueryConfig On = Config;
  On.UnionAlternativeCheck = true;
  QueryConfig Off = Config;
  Off.UnionAlternativeCheck = false;

  BitvectorQueryModule QOn(Flat, On);
  BitvectorQueryModule QOff(Flat, Off);

  RNG R(Seed);
  std::vector<Placement> Live;
  InstanceId Next = 0;

  for (int Step = 0; Step < 4000; ++Step) {
    const std::vector<OpId> &Alts =
        Groups[R.nextBelow(Groups.size())];
    int Cycle = static_cast<int>(R.nextBelow(
        static_cast<uint64_t>(CycleRange)));

    int FoundOn = QOn.checkWithAlternatives(Alts, Cycle);
    int FoundOff = QOff.checkWithAlternatives(Alts, Cycle);
    ASSERT_EQ(FoundOn, FoundOff)
        << "union on/off disagree at step " << Step << " cycle " << Cycle;

    if (FoundOn >= 0 && Live.size() < 48) {
      OpId Chosen = Alts[static_cast<size_t>(FoundOn)];
      QOn.assign(Chosen, Cycle, Next);
      QOff.assign(Chosen, Cycle, Next);
      Live.push_back({Chosen, Cycle, Next});
      ++Next;
    }

    // Free a random live placement every few steps so the table contents
    // keep churning rather than saturating.
    if (!Live.empty() && R.nextBelow(4) == 0) {
      size_t Victim = R.nextBelow(Live.size());
      Placement P = Live[Victim];
      Live.erase(Live.begin() + static_cast<long>(Victim));
      QOn.free(P.Op, P.Cycle, P.Instance);
      QOff.free(P.Op, P.Cycle, P.Instance);
    }
  }

  // The schedules (reserved tables) must be identical afterwards: every
  // single-op probe answers the same.
  for (OpId Op = 0; Op < static_cast<OpId>(Flat.numOperations()); ++Op)
    for (int Cycle = 0; Cycle < CycleRange; ++Cycle)
      ASSERT_EQ(QOn.check(Op, Cycle), QOff.check(Op, Cycle))
          << "tables diverge at op " << Op << " cycle " << Cycle;
}

} // namespace

class UnionAlternative : public ::testing::TestWithParam<int> {};

TEST_P(UnionAlternative, LinearEquivalence) {
  ExpandedMachine EM = expandAlternatives(machineFor(GetParam()));
  sweep(EM.Flat, EM.Groups, QueryConfig::linear(),
        1000 + static_cast<uint64_t>(GetParam()), 96);
}

TEST_P(UnionAlternative, ModuloEquivalenceSmallIIs) {
  ExpandedMachine EM = expandAlternatives(machineFor(GetParam()));
  for (int II : {1, 2, 3, 5, 8}) {
    // Small IIs force self-conflicting alternatives into the groups; the
    // union path must skip them exactly as the per-alternative loop does.
    size_t SelfConflicting = 0;
    for (OpId Op = 0; Op < static_cast<OpId>(EM.Flat.numOperations()); ++Op)
      if (hasModuloSelfConflict(EM.Flat.operation(Op).table(), II))
        ++SelfConflicting;
    if (II <= 2) {
      ASSERT_GT(SelfConflicting, 0u)
          << "machine " << GetParam() << " II " << II
          << ": expected self-conflicting ops in the sweep";
    }
    sweep(EM.Flat, EM.Groups, QueryConfig::modulo(II),
          2000 + static_cast<uint64_t>(GetParam()) * 13 +
              static_cast<uint64_t>(II),
          II);
  }
}

TEST_P(UnionAlternative, AllSelfConflictingGroupReturnsMinusOne) {
  ExpandedMachine EM = expandAlternatives(machineFor(GetParam()));
  // At II = 1 any op that uses a resource in more than one cycle
  // self-conflicts; find a group where every alternative does.
  QueryConfig On = QueryConfig::modulo(1);
  On.UnionAlternativeCheck = true;
  QueryConfig Off = QueryConfig::modulo(1);
  BitvectorQueryModule QOn(EM.Flat, On);
  BitvectorQueryModule QOff(EM.Flat, Off);
  bool FoundGroup = false;
  for (const std::vector<OpId> &Alts : EM.Groups) {
    bool AllSelf = true;
    for (OpId Op : Alts)
      AllSelf &= hasModuloSelfConflict(EM.Flat.operation(Op).table(), 1);
    if (!AllSelf)
      continue;
    FoundGroup = true;
    EXPECT_EQ(QOn.checkWithAlternatives(Alts, 0), -1);
    EXPECT_EQ(QOff.checkWithAlternatives(Alts, 0), -1);
  }
  if (!FoundGroup)
    GTEST_SKIP() << "no fully self-conflicting group at II=1";
}

INSTANTIATE_TEST_SUITE_P(Machines, UnionAlternative,
                         ::testing::Values(0, 1, 2));
