//===- tests/SimdQueryTest.cpp - Bitvector word kernels and golden digests ===//
///
/// The word kernels of query/SimdOps.h and the module built on them. Two
/// layers pin them down:
///
///  1. Kernel sweeps: firstConflict / orInto / orIntoCheck / andNotInto and
///     the fixed-width row kernels against naive per-word loops, at every
///     span length from 0 to 40 (the overlapping pair covers up to 8 words
///     and the plain loop past them) and at every conflict position, with
///     guard words proving nothing outside [0, N) is touched.
///  2. Golden digests: seeded check / alternative-check / assign / evicting
///     assign / free traffic on a BitvectorQueryModule over every corpus
///     machine, flat and reduced, in linear and modulo mode (including
///     modulo II 40, where cydra5 patterns outgrow the peels), plus list and
///     modulo schedules. A digest of every answer, the final reserved-table
///     words and all nine WorkCounters fields is pinned per machine; the
///     values were recorded before the tiered kernels were deleted, so a
///     kernel change that moves one answer, word or work unit fails here.
///
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/BitvectorQuery.h"
#include "query/DiscreteQuery.h"
#include "query/SimdOps.h"
#include "reduce/Reduction.h"
#include "sched/IterativeModuloScheduler.h"
#include "sched/ListScheduler.h"
#include "support/RNG.h"
#include "workload/LoopGenerator.h"
#include "workload/RoleGraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

using namespace rmd;

namespace {

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
constexpr size_t MaxSweepWords = 40;

/// A span of N payload words with guard sentinels on both sides. The
/// overlapping-pair peels may touch payload words more than once, but never
/// the guards.
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

TEST(SimdKernels, SweepAgainstReference) {
  RNG R(0x51adu);
  for (size_t N = 0; N <= MaxSweepWords; ++N) {
    for (int Trial = 0; Trial < 64; ++Trial) {
      GuardedSpan Words(N), Masks(N);
      // Dense words, sparse masks: conflicts happen but are not certain.
      Words.fill(R, 30);
      Masks.fill(R, 70);

      std::vector<uint64_t> RefW(Words.data(), Words.data() + N);
      // N == 0 is a real kernel input but RefW.data() may be null there,
      // and memcmp's arguments are declared nonnull (UBSAN flags the call
      // even with a zero size).
      auto SameWords = [N](const uint64_t *A, const uint64_t *B) {
        return N == 0 || std::memcmp(A, B, N * 8) == 0;
      };

      EXPECT_EQ(simd::firstConflict(Words.data(), Masks.data(), N),
                refFirstConflict(RefW.data(), Masks.data(), N))
          << "N=" << N;

      uint64_t RefClash = refOrIntoCheck(RefW.data(), Masks.data(), N);
      uint64_t GotClash = simd::orIntoCheck(Words.data(), Masks.data(), N);
      EXPECT_EQ(GotClash != 0, RefClash != 0) << "N=" << N;
      EXPECT_TRUE(SameWords(Words.data(), RefW.data()))
          << "orIntoCheck stores, N=" << N;

      refAndNotInto(RefW.data(), Masks.data(), N);
      simd::andNotInto(Words.data(), Masks.data(), N);
      EXPECT_TRUE(SameWords(Words.data(), RefW.data())) << "andNotInto, N=" << N;

      refOrInto(RefW.data(), Masks.data(), N);
      simd::orInto(Words.data(), Masks.data(), N);
      EXPECT_TRUE(SameWords(Words.data(), RefW.data())) << "orInto, N=" << N;

      ASSERT_TRUE(Words.guardsIntact()) << "guard words clobbered, N=" << N;
      ASSERT_TRUE(Masks.guardsIntact());
    }
  }
}

TEST(SimdKernels, RowKernelsMatchReference) {
  // The uniform-row mirror calls the row kernels at its half and full row
  // widths only.
  RNG R(0x70e5u);
  for (size_t S : {BitvectorPatternArena::UniformNarrow,
                   BitvectorPatternArena::UniformWords}) {
    for (int Trial = 0; Trial < 256; ++Trial) {
      GuardedSpan Words(S), Masks(S);
      Words.fill(R, 30);
      Masks.fill(R, 70);
      std::vector<uint64_t> RefW(Words.data(), Words.data() + S);

      uint64_t RefHot = 0;
      for (size_t I = 0; I < S; ++I)
        RefHot |= RefW[I] & Masks.data()[I];
      EXPECT_EQ(simd::rowHot(Words.data(), Masks.data(), S), RefHot)
          << "S=" << S;

      uint64_t RefClash = refOrIntoCheck(RefW.data(), Masks.data(), S);
      EXPECT_EQ(simd::rowOrCheck(Words.data(), Masks.data(), S), RefClash)
          << "S=" << S;
      EXPECT_EQ(0, std::memcmp(Words.data(), RefW.data(), S * 8))
          << "rowOrCheck stores, S=" << S;

      refAndNotInto(RefW.data(), Masks.data(), S);
      simd::rowAndNot(Words.data(), Masks.data(), S);
      EXPECT_EQ(0, std::memcmp(Words.data(), RefW.data(), S * 8))
          << "rowAndNot, S=" << S;

      ASSERT_TRUE(Words.guardsIntact()) << "guard words clobbered, S=" << S;
      ASSERT_TRUE(Masks.guardsIntact());
    }
  }
}

TEST(SimdKernels, FirstConflictIndexIsExactAtEveryPosition) {
  // The index contract is what makes abort-on-first-conflict work
  // accounting reproducible, so plant exactly one conflict at each
  // position and demand the exact index back.
  for (size_t N = 1; N <= MaxSweepWords; ++N) {
    for (size_t Pos = 0; Pos < N; ++Pos) {
      std::vector<uint64_t> Words(N, 0), Masks(N, ~0ull);
      Words[Pos] = uint64_t(1) << (Pos % 64);
      EXPECT_EQ(static_cast<ptrdiff_t>(Pos),
                simd::firstConflict(Words.data(), Masks.data(), N))
          << "N=" << N << " pos=" << Pos;
    }
    // And the all-clear answer.
    std::vector<uint64_t> Words(N, 0), Masks(N, ~0ull);
    EXPECT_EQ(-1, simd::firstConflict(Words.data(), Masks.data(), N));
  }
}

//===----------------------------------------------------------------------===//
// 2. Golden digests of module traffic and schedules
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over a stream of integers.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ULL;
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  void addInts(const std::vector<int> &Vs) {
    add(Vs.size());
    for (int V : Vs)
      add(static_cast<uint64_t>(static_cast<int64_t>(V)));
  }
};

void addCounters(Digest &D, const WorkCounters &W) {
  for (uint64_t V : {W.CheckCalls, W.CheckUnits, W.AssignCalls, W.AssignUnits,
                     W.FreeCalls, W.FreeUnits, W.AssignFreeCalls,
                     W.AssignFreeUnits, W.TransitionUnits})
    D.add(V);
}

/// Drives one BitvectorQueryModule through seeded traffic — checks,
/// alternative checks, assigns, evicting assigns, frees — and digests
/// every answer, the evicted sets, the final reserved-table words and the
/// Table 6 counters. Returns the longest dense span the module's arena
/// holds, so callers can confirm which kernel paths the traffic reached.
size_t trafficSweep(Digest &D, const MachineDescription &MD,
                    const ExpandedMachine &EM, QueryConfig Config,
                    int CycleRange, uint64_t Seed) {
  BitvectorQueryModule Q(MD, Config);

  // assignAndFree on an op that self-conflicts at this II is a contract
  // violation (the scheduler must raise the II), so keep the eviction
  // branch away from those ops in modulo mode.
  std::vector<bool> SelfConflicts(MD.numOperations(), false);
  if (Config.Mode == QueryConfig::Modulo)
    for (OpId Op = 0; Op < static_cast<OpId>(MD.numOperations()); ++Op)
      SelfConflicts[Op] =
          hasModuloSelfConflict(MD.operation(Op).table(), Config.ModuloII);

  struct Placement {
    OpId Op;
    int Cycle;
    InstanceId Instance;
  };
  RNG R(Seed);
  std::vector<Placement> Live;
  InstanceId Next = 0;

  for (int Step = 0; Step < 6000; ++Step) {
    OpId Op = static_cast<OpId>(R.nextBelow(MD.numOperations()));
    int Cycle = static_cast<int>(
        R.nextBelow(static_cast<uint64_t>(CycleRange)));

    bool Free = Q.check(Op, Cycle);
    D.add(Free);

    const std::vector<OpId> &Alts = EM.Groups[R.nextBelow(EM.Groups.size())];
    D.add(static_cast<uint64_t>(Q.checkWithAlternatives(Alts, Cycle)));

    if (Free && Live.size() < 64) {
      Q.assign(Op, Cycle, Next);
      Live.push_back({Op, Cycle, Next});
      ++Next;
    } else if (!Free && !SelfConflicts[Op] && R.nextBelow(8) == 0) {
      std::vector<InstanceId> Evicted;
      Q.assignAndFree(Op, Cycle, Next, Evicted);
      D.add(Evicted.size());
      for (InstanceId Id : Evicted) {
        D.add(static_cast<uint64_t>(Id));
        Live.erase(std::remove_if(Live.begin(), Live.end(),
                                  [Id](const Placement &P) {
                                    return P.Instance == Id;
                                  }),
                   Live.end());
      }
      Live.push_back({Op, Cycle, Next});
      ++Next;
    }

    if (!Live.empty() && R.nextBelow(3) == 0) {
      size_t Victim = R.nextBelow(Live.size());
      Placement P = Live[Victim];
      Live.erase(Live.begin() + static_cast<long>(Victim));
      Q.free(P.Op, P.Cycle, P.Instance);
    }
  }

  D.add(Q.reservedTable().size());
  for (uint64_t W : Q.reservedTable())
    D.add(W);
  addCounters(D, Q.counters());

  size_t MaxSpan = 0;
  for (const BitvectorPatternRef &P : Q.arena()->Patterns)
    MaxSpan = std::max<size_t>(MaxSpan, P.DenseLen);
  return MaxSpan;
}

/// Every traffic configuration, digested in order. Modulo II 40 takes
/// cydra5's modulo patterns past the 8-word peels.
uint64_t trafficDigest(const std::string &Name, const MachineDescription &MD,
                       const ExpandedMachine &EM, uint64_t SeedBase) {
  QueryConfig Union = QueryConfig::linear();
  Union.UnionAlternativeCheck = true;
  struct Sweep {
    QueryConfig Config;
    int CycleRange;
    uint64_t Seed;
  };
  const Sweep Sweeps[] = {
      {QueryConfig::linear(), 128, 9000},
      {QueryConfig::modulo(8), 8, 9100},
      {QueryConfig::modulo(3), 3, 9200},
      {Union, 128, 9300},
      {QueryConfig::modulo(40), 40, 9400},
  };
  Digest D;
  for (const Sweep &S : Sweeps) {
    size_t MaxSpan =
        trafficSweep(D, MD, EM, S.Config, S.CycleRange, S.Seed + SeedBase);
    if (Name == "cydra5" && S.Config.Mode == QueryConfig::Modulo &&
        S.Config.ModuloII == 40) {
      EXPECT_GT(MaxSpan, size_t(8)) << "modulo II 40 misses the long spans";
    }
  }
  return D.H;
}

/// List schedules of random DAGs and modulo schedules of generated loops
/// on the flat description, both through bitvector modules.
uint64_t scheduleDigest(const MachineModel &Model, const ExpandedMachine &EM) {
  Digest D;
  RNG R(42);
  for (int Rep = 0; Rep < 6; ++Rep) {
    // List scheduling needs a DAG: random ops, forward-only data edges
    // with the producer's machine latency.
    DepGraph G("dag");
    size_t NumNodes = 10 + R.nextBelow(10);
    for (size_t I = 0; I < NumNodes; ++I)
      G.addNode(static_cast<OpId>(R.nextBelow(Model.MD.numOperations())));
    for (size_t I = 1; I < NumNodes; ++I)
      for (uint64_t E = 0, Fanin = 1 + R.nextBelow(2); E < Fanin; ++E) {
        NodeId From = static_cast<NodeId>(R.nextBelow(I));
        G.addEdge(From, static_cast<NodeId>(I), Model.Latency[G.opOf(From)]);
      }
    BitvectorQueryModule Q(EM.Flat, QueryConfig::linear());
    ListScheduleResult L = listSchedule(G, EM.Groups, Q);
    D.add(L.Success);
    D.add(static_cast<uint64_t>(L.Length));
    D.addInts(L.Time);
    D.addInts(L.Alternative);
  }

  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&](QueryConfig C) {
    return std::make_unique<BitvectorQueryModule>(EM.Flat, C);
  };
  RNG LoopR(7);
  for (int Rep = 0; Rep < 4; ++Rep) {
    DepGraph G = bind(generateLoop(LoopR), Model);
    ModuloScheduleResult M = moduloSchedule(G, Model.MD, Env);
    D.add(M.Success);
    D.add(static_cast<uint64_t>(M.II));
    D.addInts(M.Time);
    D.addInts(M.Alternative);
    addCounters(D, M.Counters);
  }
  return D.H;
}

struct Golden {
  const char *Machine;
  uint64_t Flat;
  uint64_t Reduced;
  // The schedule sweep keeps the six machines the tier comparison used;
  // fig1 (no latencies or roles in the paper) was never among them.
  bool Schedules;
  uint64_t ScheduleDigest;
};

const Golden Goldens[] = {
    {"fig1", 0x41d338a425cd674aULL, 0xa4ed513f76975ac6ULL, false, 0},
    {"cydra5", 0xc30d53e734ea1f93ULL, 0xfbf04fabca94dbccULL, true,
     0x39c338c75c8f9254ULL},
    {"alpha21064", 0xe5e4f6dd41363cc8ULL, 0x3767a438983bba0cULL, true,
     0xe532b1dcc1808f4bULL},
    {"mips-r3000", 0x262a12a5e0878e1eULL, 0x5e418b1e1fbcfa1bULL, true,
     0xe285820cf2128662ULL},
    {"toy-vliw", 0x254d6b526de9e129ULL, 0x068c52373f0d89bcULL, true,
     0xf5b266ece8d31ec0ULL},
    {"playdoh", 0x22ca11d42bc7cc1fULL, 0x3c3d9d3422e93a38ULL, true,
     0x2c1f4c907f5f717fULL},
    {"m88100", 0x0efbdf1000b9f80fULL, 0x252f1efb104935f7ULL, true,
     0xc081f4bf32599d9bULL},
};

} // namespace

class BitvectorGolden : public ::testing::TestWithParam<int> {};

TEST_P(BitvectorGolden, TrafficAndSchedulesMatchPinnedDigests) {
  const Golden &G = Goldens[GetParam()];
  MachineModel Model = loadMachine(G.Machine).take();
  ExpandedMachine EM = expandAlternatives(Model.MD);
  MachineDescription Reduced = reduceMachine(EM.Flat).Reduced;
  uint64_t SeedBase = static_cast<uint64_t>(GetParam());

  uint64_t Flat = trafficDigest(G.Machine, EM.Flat, EM, SeedBase);
  uint64_t Red = trafficDigest(G.Machine, Reduced, EM, SeedBase);
  EXPECT_EQ(Flat, G.Flat) << G.Machine << std::hex << " flat 0x" << Flat;
  EXPECT_EQ(Red, G.Reduced) << G.Machine << std::hex << " reduced 0x" << Red;
  if (G.Schedules) {
    uint64_t Sched = scheduleDigest(Model, EM);
    EXPECT_EQ(Sched, G.ScheduleDigest)
        << G.Machine << std::hex << " schedules 0x" << Sched;
  }
}

INSTANTIATE_TEST_SUITE_P(Machines, BitvectorGolden, ::testing::Range(0, 7));
