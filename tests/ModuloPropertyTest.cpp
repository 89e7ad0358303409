//===- tests/ModuloPropertyTest.cpp - MRT semantics vs the matrix ---------===//
//
// The defining property of the Modulo Reservation Table: operation X may
// be placed at cycle c iff no *iteration copy* of any scheduled operation
// conflicts, i.e. for every scheduled (Y, t) and every integer k,
// (c - t) + k*II is not a forbidden latency of (X, Y). This test drives
// the discrete and bitvector modulo modules with random traffic and
// checks every answer against that first-principles oracle.
//
//===----------------------------------------------------------------------===//

#include "flm/ForbiddenLatencyMatrix.h"
#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace rmd;

namespace {

/// Oracle: X at cycle C conflicts with Y at cycle T under a modulo-II
/// schedule iff some relative iteration offset makes the latency
/// forbidden.
bool moduloConflict(const ForbiddenLatencyMatrix &FLM, int MaxLat, OpId X,
                    int C, OpId Y, int T, int II) {
  int Base = C - T;
  // |latency| <= MaxLat bounds the iteration offsets worth testing.
  int KLo = (-MaxLat - Base) / II - 2;
  int KHi = (MaxLat - Base) / II + 2;
  for (int K = KLo; K <= KHi; ++K)
    if (FLM.isForbidden(X, Y, Base + K * II))
      return true;
  return false;
}

} // namespace

class ModuloProperty : public ::testing::TestWithParam<std::tuple<int, int>> {
};

TEST_P(ModuloProperty, ModulesMatchFirstPrinciplesOracle) {
  auto [MachineIdx, II] = GetParam();
  MachineDescription Flat =
      MachineIdx == 2
          ? loadMachine("fig1").take().MD
          : expandAlternatives(
                loadMachine(MachineIdx == 0 ? "toy-vliw" : "mips-r3000")
                    .take()
                    .MD)
                .Flat;

  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);
  int MaxLat = FLM.maxAbsoluteLatency();

  DiscreteQueryModule QD(Flat, QueryConfig::modulo(II));
  BitvectorQueryModule QB(Flat, QueryConfig::modulo(II));

  RNG R(static_cast<uint64_t>(MachineIdx) * 101 + II);
  std::vector<std::pair<OpId, int>> Scheduled;
  InstanceId Next = 0;

  for (int Step = 0; Step < 500; ++Step) {
    OpId Op = static_cast<OpId>(R.nextBelow(Flat.numOperations()));
    int Cycle = static_cast<int>(R.nextBelow(3 * II));

    // Oracle: self-copies first (the op against its own iteration
    // copies), then every scheduled instance.
    bool Conflict = false;
    for (int K = 1; K * II <= MaxLat && !Conflict; ++K)
      Conflict = FLM.isForbidden(Op, Op, K * II);
    for (const auto &[SOp, SCycle] : Scheduled) {
      if (Conflict)
        break;
      Conflict = moduloConflict(FLM, MaxLat, Op, Cycle, SOp, SCycle, II);
    }

    ASSERT_EQ(QD.check(Op, Cycle), !Conflict)
        << "discrete: op " << Op << " cycle " << Cycle << " II " << II
        << " step " << Step;
    ASSERT_EQ(QB.check(Op, Cycle), !Conflict)
        << "bitvector: op " << Op << " cycle " << Cycle << " II " << II
        << " step " << Step;

    if (!Conflict && R.nextChance(1, 2)) {
      InstanceId Id = Next++;
      QD.assign(Op, Cycle, Id);
      QB.assign(Op, Cycle, Id);
      Scheduled.push_back({Op, Cycle});
    } else if (!Scheduled.empty() && R.nextChance(1, 4)) {
      InstanceId Id = Next - 1;
      auto [FOp, FCycle] = Scheduled.back();
      Scheduled.pop_back();
      --Next;
      QD.free(FOp, FCycle, Id);
      QB.free(FOp, FCycle, Id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ModuloProperty,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(3, 5, 8,
                                                              13)));
