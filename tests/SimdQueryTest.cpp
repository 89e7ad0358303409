//===- tests/SimdQueryTest.cpp - SIMD kernel and tier equivalence ---------===//
///
/// The SIMD contract (query/SimdOps.h): every tier — the inline short-span
/// peels, the SSE2 kernels, the AVX2 kernels — must be bit-identical to the
/// scalar reference. Three layers pin that down:
///
///  1. Kernel sweeps: firstConflict / orInto / orIntoCheck / andNotInto
///     against naive per-word loops, over span lengths crossing every peel
///     and dispatch boundary, under every tier the host supports, with
///     guard words proving nothing outside [0, N) is touched.
///  2. Module differential: two BitvectorQueryModules over the same machine
///     driven with identical traffic, one under the scalar tier and one
///     under the best tier, must give identical answers, identical reserved
///     tables, and identical WorkCounters (the paper's Table 6 accounting
///     cannot depend on the vector width).
///  3. Schedule bit-identity: list and modulo scheduling under scalar vs
///     best tier must produce equal Time/Alternative vectors on the
///     machine-model corpus.
///
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "query/SimdOps.h"
#include "sched/IterativeModuloScheduler.h"
#include "sched/ListScheduler.h"
#include "support/RNG.h"
#include "workload/LoopGenerator.h"
#include "workload/RoleGraph.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

using namespace rmd;

namespace {

/// Forces a SIMD tier for the enclosing scope and restores the previous
/// one on exit. forceTier clamps to what the build and host support, so
/// `active()` tells the caller whether the request actually took effect.
struct TierGuard {
  explicit TierGuard(simd::Tier T) : Prev(simd::forceTier(T)) {}
  ~TierGuard() { simd::forceTier(Prev); }
  simd::Tier active() const { return simd::activeTier(); }
  simd::Tier Prev;
};

/// Every tier the current build + host can actually run.
std::vector<simd::Tier> supportedTiers() {
  std::vector<simd::Tier> Tiers;
  for (simd::Tier T :
       {simd::Tier::Scalar, simd::Tier::Sse2, simd::Tier::Avx2}) {
    TierGuard G(T);
    if (G.active() == T)
      Tiers.push_back(T);
  }
  return Tiers;
}

//===----------------------------------------------------------------------===//
// Naive per-word reference semantics
//===----------------------------------------------------------------------===//

ptrdiff_t refFirstConflict(const uint64_t *W, const uint64_t *M, size_t N) {
  for (size_t I = 0; I < N; ++I)
    if (W[I] & M[I])
      return static_cast<ptrdiff_t>(I);
  return -1;
}

void refOrInto(uint64_t *W, const uint64_t *M, size_t N) {
  for (size_t I = 0; I < N; ++I)
    W[I] |= M[I];
}

uint64_t refOrIntoCheck(uint64_t *W, const uint64_t *M, size_t N) {
  uint64_t Clash = 0;
  for (size_t I = 0; I < N; ++I) {
    Clash |= W[I] & M[I];
    W[I] |= M[I];
  }
  return Clash;
}

void refAndNotInto(uint64_t *W, const uint64_t *M, size_t N) {
  for (size_t I = 0; I < N; ++I)
    W[I] &= ~M[I];
}

constexpr uint64_t GuardWord = 0xdeadbeefcafef00dull;
constexpr size_t GuardWords = 4;

/// A span of N payload words with guard sentinels on both sides. The
/// overlapping-pair peels and the vector kernels may touch payload words
/// more than once, but never the guards.
struct GuardedSpan {
  explicit GuardedSpan(size_t N)
      : N(N), Buf(N + 2 * GuardWords, GuardWord) {}

  uint64_t *data() { return Buf.data() + GuardWords; }

  void fill(RNG &R, int EmptyChancePercent) {
    for (size_t I = 0; I < N; ++I)
      data()[I] = R.nextChance(static_cast<uint64_t>(EmptyChancePercent), 100)
                      ? 0
                      : R.next();
  }

  bool guardsIntact() const {
    for (size_t I = 0; I < GuardWords; ++I)
      if (Buf[I] != GuardWord || Buf[Buf.size() - 1 - I] != GuardWord)
        return false;
    return true;
  }

  size_t N;
  std::vector<uint64_t> Buf;
};

} // namespace

//===----------------------------------------------------------------------===//
// 1. Kernel sweeps vs the naive reference
//===----------------------------------------------------------------------===//

TEST(SimdKernels, SweepAllTiersAgainstReference) {
  for (simd::Tier T : supportedTiers()) {
    TierGuard G(T);
    RNG R(0x51adu + static_cast<uint64_t>(T));
    // Lengths cross every boundary: the N<=2 scalar fast paths, the
    // overlapping-pair covers at 3..8, the dispatch threshold, and vector
    // remainders around 4- and 8-word multiples.
    for (size_t N = 0; N <= 20; ++N) {
      for (int Trial = 0; Trial < 64; ++Trial) {
        GuardedSpan Words(N), Masks(N);
        // Dense words, sparse masks: conflicts happen but are not certain.
        Words.fill(R, 30);
        Masks.fill(R, 70);

        std::vector<uint64_t> RefW(Words.data(), Words.data() + N);
        // N == 0 is a real kernel input but RefW.data() may be null there,
        // and memcmp's arguments are declared nonnull (UBSAN flags the
        // call even with a zero size).
        auto SameWords = [N](const uint64_t *A, const uint64_t *B) {
          return N == 0 || std::memcmp(A, B, N * 8) == 0;
        };

        EXPECT_EQ(simd::firstConflict(Words.data(), Masks.data(), N),
                  refFirstConflict(RefW.data(), Masks.data(), N))
            << "tier " << simd::tierName(T) << " N=" << N;

        uint64_t RefClash = refOrIntoCheck(RefW.data(), Masks.data(), N);
        uint64_t GotClash = simd::orIntoCheck(Words.data(), Masks.data(), N);
        EXPECT_EQ(GotClash != 0, RefClash != 0)
            << "tier " << simd::tierName(T) << " N=" << N;
        EXPECT_TRUE(SameWords(Words.data(), RefW.data()))
            << "orIntoCheck stores, tier " << simd::tierName(T) << " N=" << N;

        refAndNotInto(RefW.data(), Masks.data(), N);
        simd::andNotInto(Words.data(), Masks.data(), N);
        EXPECT_TRUE(SameWords(Words.data(), RefW.data()))
            << "andNotInto, tier " << simd::tierName(T) << " N=" << N;

        refOrInto(RefW.data(), Masks.data(), N);
        simd::orInto(Words.data(), Masks.data(), N);
        EXPECT_TRUE(SameWords(Words.data(), RefW.data()))
            << "orInto, tier " << simd::tierName(T) << " N=" << N;

        ASSERT_TRUE(Words.guardsIntact())
            << "guard words clobbered, tier " << simd::tierName(T)
            << " N=" << N;
        ASSERT_TRUE(Masks.guardsIntact());
      }
    }
  }
}

TEST(SimdKernels, FirstConflictIndexIsExactAtEveryPosition) {
  // The index contract is what makes abort-on-first-conflict work
  // accounting reproducible, so plant exactly one conflict at each
  // position and demand the exact index back from every tier.
  for (simd::Tier T : supportedTiers()) {
    TierGuard G(T);
    for (size_t N = 1; N <= 20; ++N) {
      for (size_t Pos = 0; Pos < N; ++Pos) {
        std::vector<uint64_t> Words(N, 0), Masks(N, ~0ull);
        Words[Pos] = uint64_t(1) << (Pos % 64);
        EXPECT_EQ(static_cast<ptrdiff_t>(Pos),
                  simd::firstConflict(Words.data(), Masks.data(), N))
            << "tier " << simd::tierName(T) << " N=" << N << " pos=" << Pos;
      }
      // And the all-clear answer.
      std::vector<uint64_t> Words(N, 0), Masks(N, ~0ull);
      EXPECT_EQ(-1, simd::firstConflict(Words.data(), Masks.data(), N));
    }
  }
}

TEST(SimdKernels, DispatchedKernelsMatchReferenceDirectly) {
  // The inline wrappers peel N <= ShortSpanWords, so exercise the
  // out-of-line dispatch entry points on their own to cover the vector
  // kernels at short lengths too.
  for (simd::Tier T : supportedTiers()) {
    TierGuard G(T);
    RNG R(0xd15bu + static_cast<uint64_t>(T));
    for (size_t N = 1; N <= 24; ++N) {
      for (int Trial = 0; Trial < 32; ++Trial) {
        GuardedSpan Words(N), Masks(N);
        Words.fill(R, 40);
        Masks.fill(R, 60);
        std::vector<uint64_t> RefW(Words.data(), Words.data() + N);

        EXPECT_EQ(simd::firstConflictDispatch(Words.data(), Masks.data(), N),
                  refFirstConflict(RefW.data(), Masks.data(), N));

        uint64_t RefClash = refOrIntoCheck(RefW.data(), Masks.data(), N);
        uint64_t Got = simd::orIntoCheckDispatch(Words.data(), Masks.data(), N);
        EXPECT_EQ(Got != 0, RefClash != 0);
        EXPECT_EQ(0, std::memcmp(Words.data(), RefW.data(), N * 8));

        refAndNotInto(RefW.data(), Masks.data(), N);
        simd::andNotIntoDispatch(Words.data(), Masks.data(), N);
        EXPECT_EQ(0, std::memcmp(Words.data(), RefW.data(), N * 8));

        refOrInto(RefW.data(), Masks.data(), N);
        simd::orIntoDispatch(Words.data(), Masks.data(), N);
        EXPECT_EQ(0, std::memcmp(Words.data(), RefW.data(), N * 8))
            << "orIntoDispatch, tier " << simd::tierName(T) << " N=" << N;

        ASSERT_TRUE(Words.guardsIntact());
        ASSERT_TRUE(Masks.guardsIntact());
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// 2. Module differential: scalar vs best tier
//===----------------------------------------------------------------------===//

namespace {

/// The seven machine models of the corpus.
std::vector<std::pair<std::string, MachineDescription>> allCorpusMachines() {
  std::vector<std::pair<std::string, MachineDescription>> Models;
  for (const std::string &Name : machineNames())
    Models.emplace_back(Name, loadMachine(Name).take().MD);
  return Models;
}

void expectCountersEqual(const WorkCounters &A, const WorkCounters &B,
                         const std::string &Context) {
  EXPECT_EQ(A.CheckCalls, B.CheckCalls) << Context;
  EXPECT_EQ(A.CheckUnits, B.CheckUnits) << Context;
  EXPECT_EQ(A.AssignCalls, B.AssignCalls) << Context;
  EXPECT_EQ(A.AssignUnits, B.AssignUnits) << Context;
  EXPECT_EQ(A.FreeCalls, B.FreeCalls) << Context;
  EXPECT_EQ(A.FreeUnits, B.FreeUnits) << Context;
  EXPECT_EQ(A.AssignFreeCalls, B.AssignFreeCalls) << Context;
  EXPECT_EQ(A.AssignFreeUnits, B.AssignFreeUnits) << Context;
  EXPECT_EQ(A.TransitionUnits, B.TransitionUnits) << Context;
}

/// Drives a scalar-tier module and a best-tier module through identical
/// seeded traffic — checks, alternative checks, assigns, frees, eviction
/// assigns — and demands identical answers, reserved tables and counters.
void differentialSweep(const std::string &Name, const MachineDescription &MD,
                       QueryConfig Config, int CycleRange, uint64_t Seed,
                       simd::Tier Best) {
  ExpandedMachine EM = expandAlternatives(MD);
  BitvectorQueryModule ScalarQ(EM.Flat, Config);
  BitvectorQueryModule VectorQ(EM.Flat, Config);

  // assignAndFree on an op that self-conflicts at this II is a contract
  // violation (the scheduler must raise the II), so keep the eviction
  // branch away from those ops in modulo mode.
  std::vector<bool> SelfConflicts(EM.Flat.numOperations(), false);
  if (Config.Mode == QueryConfig::Modulo)
    for (OpId Op = 0; Op < static_cast<OpId>(EM.Flat.numOperations()); ++Op)
      SelfConflicts[Op] = hasModuloSelfConflict(EM.Flat.operation(Op).table(),
                                                Config.ModuloII);

  struct Placement {
    OpId Op;
    int Cycle;
    InstanceId Instance;
  };
  RNG R(Seed);
  std::vector<Placement> Live;
  InstanceId Next = 0;

  for (int Step = 0; Step < 6000; ++Step) {
    OpId Op = static_cast<OpId>(R.nextBelow(EM.Flat.numOperations()));
    int Cycle = static_cast<int>(
        R.nextBelow(static_cast<uint64_t>(CycleRange)));

    bool FreeS, FreeV;
    {
      TierGuard G(simd::Tier::Scalar);
      FreeS = ScalarQ.check(Op, Cycle);
    }
    {
      TierGuard G(Best);
      FreeV = VectorQ.check(Op, Cycle);
    }
    ASSERT_EQ(FreeS, FreeV) << Name << " step " << Step << " op " << Op
                            << " cycle " << Cycle;

    // Alternative checks on a random group exercise the union path under
    // both tiers too.
    const std::vector<OpId> &Alts = EM.Groups[R.nextBelow(EM.Groups.size())];
    int AltS, AltV;
    {
      TierGuard G(simd::Tier::Scalar);
      AltS = ScalarQ.checkWithAlternatives(Alts, Cycle);
    }
    {
      TierGuard G(Best);
      AltV = VectorQ.checkWithAlternatives(Alts, Cycle);
    }
    ASSERT_EQ(AltS, AltV) << Name << " step " << Step;

    if (FreeS && Live.size() < 64) {
      {
        TierGuard G(simd::Tier::Scalar);
        ScalarQ.assign(Op, Cycle, Next);
      }
      {
        TierGuard G(Best);
        VectorQ.assign(Op, Cycle, Next);
      }
      Live.push_back({Op, Cycle, Next});
      ++Next;
    } else if (!FreeS && !SelfConflicts[Op] && R.nextBelow(8) == 0) {
      // Occasionally force an eviction assign over the occupied slot; the
      // evicted instance sets must match.
      std::vector<InstanceId> EvS, EvV;
      {
        TierGuard G(simd::Tier::Scalar);
        ScalarQ.assignAndFree(Op, Cycle, Next, EvS);
      }
      {
        TierGuard G(Best);
        VectorQ.assignAndFree(Op, Cycle, Next, EvV);
      }
      ASSERT_EQ(EvS, EvV) << Name << " step " << Step;
      for (InstanceId Id : EvS)
        Live.erase(std::remove_if(Live.begin(), Live.end(),
                                  [Id](const Placement &P) {
                                    return P.Instance == Id;
                                  }),
                   Live.end());
      Live.push_back({Op, Cycle, Next});
      ++Next;
    }

    if (!Live.empty() && R.nextBelow(3) == 0) {
      size_t Victim = R.nextBelow(Live.size());
      Placement P = Live[Victim];
      Live.erase(Live.begin() + static_cast<long>(Victim));
      {
        TierGuard G(simd::Tier::Scalar);
        ScalarQ.free(P.Op, P.Cycle, P.Instance);
      }
      {
        TierGuard G(Best);
        VectorQ.free(P.Op, P.Cycle, P.Instance);
      }
    }
  }

  // Identical reserved tables: every probe answers the same.
  for (OpId Op = 0; Op < static_cast<OpId>(EM.Flat.numOperations()); ++Op)
    for (int Cycle = 0; Cycle < CycleRange; ++Cycle) {
      bool S, V;
      {
        TierGuard G(simd::Tier::Scalar);
        S = ScalarQ.check(Op, Cycle);
      }
      {
        TierGuard G(Best);
        V = VectorQ.check(Op, Cycle);
      }
      ASSERT_EQ(S, V) << Name << " final probe op " << Op << " cycle "
                      << Cycle;
    }

  // Identical Table 6 accounting, field by field.
  expectCountersEqual(ScalarQ.counters(), VectorQ.counters(),
                      Name + " counters");
}

} // namespace

class SimdDifferential : public ::testing::TestWithParam<int> {};

TEST_P(SimdDifferential, ScalarAndBestTierAgree) {
  auto [Name, MD] = allCorpusMachines()[static_cast<size_t>(GetParam())];
  simd::Tier Best = supportedTiers().back();
  if (Best == simd::Tier::Scalar)
    GTEST_SKIP() << "no vector tier on this build/host";

  differentialSweep(Name, MD, QueryConfig::linear(), 128,
                    9000 + static_cast<uint64_t>(GetParam()), Best);
  differentialSweep(Name, MD, QueryConfig::modulo(8), 8,
                    9100 + static_cast<uint64_t>(GetParam()), Best);
  differentialSweep(Name, MD, QueryConfig::modulo(3), 3,
                    9200 + static_cast<uint64_t>(GetParam()), Best);
}

INSTANTIATE_TEST_SUITE_P(Machines, SimdDifferential,
                         ::testing::Range(0, 7));

//===----------------------------------------------------------------------===//
// 3. Schedule bit-identity under scalar vs best tier
//===----------------------------------------------------------------------===//

namespace {

std::vector<MachineModel> allSchedulableModels() {
  std::vector<MachineModel> Models;
  for (const char *Name : {"cydra5", "alpha21064", "mips-r3000", "toy-vliw",
                           "playdoh", "m88100"})
    Models.push_back(loadMachine(Name).take());
  return Models;
}

} // namespace

TEST(SimdScheduleIdentity, ListScheduleBitIdenticalAcrossTiers) {
  simd::Tier Best = supportedTiers().back();
  if (Best == simd::Tier::Scalar)
    GTEST_SKIP() << "no vector tier on this build/host";

  for (const MachineModel &Model : allSchedulableModels()) {
    ExpandedMachine EM = expandAlternatives(Model.MD);
    RNG R(42);
    for (int Rep = 0; Rep < 6; ++Rep) {
      // List scheduling needs a DAG, so build one directly: random ops,
      // forward-only data edges with the producer's machine latency.
      DepGraph G("dag");
      size_t NumNodes = 10 + R.nextBelow(10);
      for (size_t I = 0; I < NumNodes; ++I)
        G.addNode(static_cast<OpId>(R.nextBelow(Model.MD.numOperations())));
      for (size_t I = 1; I < NumNodes; ++I)
        for (uint64_t E = 0, Fanin = 1 + R.nextBelow(2); E < Fanin; ++E) {
          NodeId From = static_cast<NodeId>(R.nextBelow(I));
          G.addEdge(From, static_cast<NodeId>(I),
                    Model.Latency[G.opOf(From)]);
        }

      ListScheduleResult A, B;
      {
        TierGuard Tg(simd::Tier::Scalar);
        BitvectorQueryModule Q(EM.Flat, QueryConfig::linear());
        A = listSchedule(G, EM.Groups, Q);
      }
      {
        TierGuard Tg(Best);
        BitvectorQueryModule Q(EM.Flat, QueryConfig::linear());
        B = listSchedule(G, EM.Groups, Q);
      }
      EXPECT_EQ(A.Success, B.Success) << Model.MD.name() << " rep " << Rep;
      EXPECT_EQ(A.Length, B.Length) << Model.MD.name() << " rep " << Rep;
      EXPECT_EQ(A.Time, B.Time) << Model.MD.name() << " rep " << Rep;
      EXPECT_EQ(A.Alternative, B.Alternative) << Model.MD.name() << " rep " << Rep;
    }
  }
}

TEST(SimdScheduleIdentity, ModuloScheduleBitIdenticalAcrossTiers) {
  simd::Tier Best = supportedTiers().back();
  if (Best == simd::Tier::Scalar)
    GTEST_SKIP() << "no vector tier on this build/host";

  for (const MachineModel &Model : allSchedulableModels()) {
    ExpandedMachine EM = expandAlternatives(Model.MD);
    QueryEnvironment Env;
    Env.FlatMD = &EM.Flat;
    Env.Groups = &EM.Groups;
    Env.MakeModule = [&](QueryConfig C) {
      return std::make_unique<BitvectorQueryModule>(EM.Flat, C);
    };

    RNG R(7);
    for (int Rep = 0; Rep < 4; ++Rep) {
      RoleGraph RG = generateLoop(R);
      DepGraph G = bind(RG, Model);

      ModuloScheduleResult A, B;
      {
        TierGuard Tg(simd::Tier::Scalar);
        A = moduloSchedule(G, Model.MD, Env);
      }
      {
        TierGuard Tg(Best);
        B = moduloSchedule(G, Model.MD, Env);
      }
      EXPECT_EQ(A.Success, B.Success) << Model.MD.name() << " rep " << Rep;
      EXPECT_EQ(A.II, B.II) << Model.MD.name() << " rep " << Rep;
      EXPECT_EQ(A.Time, B.Time) << Model.MD.name() << " rep " << Rep;
      EXPECT_EQ(A.Alternative, B.Alternative) << Model.MD.name() << " rep " << Rep;
      expectCountersEqual(A.Counters, B.Counters,
                          Model.MD.name() + " modulo counters");
    }
  }
}
