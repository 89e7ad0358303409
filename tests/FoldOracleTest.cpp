//===- tests/FoldOracleTest.cpp - Bitset fold/prune vs sorted vectors -----===//
//
// buildGeneratingSet and pruneGeneratingSet run on fixed-width bitsets. This
// test keeps the earlier sorted-vector implementation of Algorithm 1 and of
// the prune as a reference, and checks that the library reproduces it
// exactly: the same generating set and pruned set (resource order
// included), the same OnPair/OnRule sequence, and the same `reduce.*` /
// `prune.*` counter deltas. It runs over the 7 corpus machines, three
// ScaledVliw configurations and the seeded valid machines of MdlFuzzTest.
//
//===----------------------------------------------------------------------===//

#include "RandomMachine.h"
#include "machines/Catalog.h"
#include "reduce/GeneratingSet.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>

using namespace rmd;

namespace {

//===----------------------------------------------------------------------===//
// Reference: the sorted-vector fold and prune
//===----------------------------------------------------------------------===//

/// Rule and prune tallies of one reference run, named like the library's
/// counters.
using Tally = std::map<std::string, uint64_t>;

/// O(1) forbidden-latency membership: a dense (op, op, latency) cube.
class DenseForbidden {
public:
  explicit DenseForbidden(const ForbiddenLatencyMatrix &FLM)
      : NumOps(FLM.numOperations()), MaxLat(FLM.maxAbsoluteLatency()),
        Width(2 * static_cast<size_t>(MaxLat) + 1),
        Table(NumOps * NumOps * Width, 0) {
    for (OpId X = 0; X < NumOps; ++X)
      for (OpId Y = 0; Y < NumOps; ++Y)
        for (int F : FLM.get(X, Y))
          Table[index(X, Y, F)] = 1;
  }

  /// Co-locating A and B on one resource must forbid an already-forbidden
  /// latency.
  bool compatible(const SynthUsage &A, const SynthUsage &B) const {
    int F = B.Cycle - A.Cycle;
    if (F < -MaxLat || F > MaxLat)
      return false;
    return Table[index(A.Op, B.Op, F)] != 0;
  }

private:
  size_t index(OpId X, OpId Y, int F) const {
    return (static_cast<size_t>(X) * NumOps + Y) * Width +
           static_cast<size_t>(F + MaxLat);
  }

  size_t NumOps;
  int MaxLat;
  size_t Width;
  std::vector<uint8_t> Table;
};

uint64_t usageKey(const SynthUsage &U) {
  return (static_cast<uint64_t>(U.Op) << 32) |
         static_cast<uint32_t>(U.Cycle);
}

/// The resource set plus an inverted index from usage to the resources
/// containing it.
struct ReferenceState {
  std::vector<SynthesizedResource> Set;
  std::unordered_map<uint64_t, std::vector<uint32_t>> Postings;

  /// True if \p Usages (sorted) is a subset of some current resource.
  bool subsumed(const std::vector<SynthUsage> &Usages) const {
    const std::vector<uint32_t> *Shortest = nullptr;
    for (const SynthUsage &U : Usages) {
      auto It = Postings.find(usageKey(U));
      if (It == Postings.end())
        return false;
      if (!Shortest || It->second.size() < Shortest->size())
        Shortest = &It->second;
    }
    for (uint32_t I : *Shortest)
      if (std::includes(Set[I].usages().begin(), Set[I].usages().end(),
                        Usages.begin(), Usages.end()))
        return true;
    return false;
  }

  int addResource(SynthesizedResource R) {
    if (subsumed(R.usages()))
      return -1;
    uint32_t Index = static_cast<uint32_t>(Set.size());
    for (const SynthUsage &U : R.usages())
      Postings[usageKey(U)].push_back(Index);
    Set.push_back(std::move(R));
    return static_cast<int>(Index);
  }

  void mergeUsage(uint32_t I, const SynthUsage &U) {
    if (Set[I].contains(U))
      return;
    std::vector<SynthUsage> Usages = Set[I].usages();
    Usages.push_back(U);
    Set[I] = SynthesizedResource(std::move(Usages));
    Postings[usageKey(U)].push_back(I);
  }
};

std::vector<SynthesizedResource>
referenceGeneratingSet(const ForbiddenLatencyMatrix &FLM,
                       const GeneratingSetTrace &Trace, Tally &Counts) {
  DenseForbidden Dense(FLM);
  ReferenceState State;
  std::vector<OpId> PairedOps(FLM.numOperations(), 0);

  for (const ElementaryPair &P : enumerateElementaryPairs(FLM)) {
    ++Counts["reduce.pairs"];
    Trace.OnPair(P);
    PairedOps[P.First.Op] = 1;
    PairedOps[P.Second.Op] = 1;

    // Only resources that existed when the pair's processing started are
    // judged; Rules 1/2 never change another resource's verdict.
    size_t End = State.Set.size();
    bool PairTogether = false;
    for (size_t I = 0; I < End; ++I) {
      bool Fully = true;
      std::vector<SynthUsage> Compatible;
      for (const SynthUsage &U : State.Set[I].usages()) {
        if (Dense.compatible(U, P.First) && Dense.compatible(U, P.Second))
          Compatible.push_back(U);
        else
          Fully = false;
      }
      if (Fully) {
        State.mergeUsage(static_cast<uint32_t>(I), P.First);
        State.mergeUsage(static_cast<uint32_t>(I), P.Second);
        PairTogether = true;
        ++Counts["reduce.rule1"];
        Trace.OnRule(GeneratingRule::Rule1, I);
        continue;
      }
      if (Compatible.empty()) {
        ++Counts["reduce.rule2_discard"];
        Trace.OnRule(GeneratingRule::Rule2Discard, I);
        continue;
      }
      Compatible.push_back(P.First);
      Compatible.push_back(P.Second);
      int NewIndex =
          State.addResource(SynthesizedResource(std::move(Compatible)));
      PairTogether = true;
      if (NewIndex >= 0) {
        ++Counts["reduce.rule2"];
        Trace.OnRule(GeneratingRule::Rule2, static_cast<size_t>(NewIndex));
      }
    }
    if (PairTogether)
      continue;

    int NewIndex = State.addResource(SynthesizedResource({P.First, P.Second}));
    if (NewIndex >= 0) {
      ++Counts["reduce.rule3"];
      Trace.OnRule(GeneratingRule::Rule3, static_cast<size_t>(NewIndex));
    }
  }

  for (OpId Op = 0; Op < FLM.numOperations(); ++Op) {
    if (PairedOps[Op] || !FLM.isForbidden(Op, Op, 0))
      continue;
    int NewIndex = State.addResource(SynthesizedResource({SynthUsage{Op, 0}}));
    if (NewIndex >= 0) {
      ++Counts["reduce.rule4"];
      Trace.OnRule(GeneratingRule::Rule4, static_cast<size_t>(NewIndex));
    }
  }
  return std::move(State.Set);
}

/// The prune's order-free rule over sorted latency vectors: remove I iff
/// some J generates a strict superset, or the same set at a larger index.
/// Candidates J are scanned largest set first, stopping at smaller sets.
std::vector<SynthesizedResource>
referencePrune(std::vector<SynthesizedResource> Set, Tally &Counts) {
  std::vector<std::vector<ForbiddenLatency>> Generated;
  for (const SynthesizedResource &R : Set)
    Generated.push_back(R.generatedLatencies());
  std::vector<size_t> BySizeDesc(Set.size());
  for (size_t I = 0; I < BySizeDesc.size(); ++I)
    BySizeDesc[I] = I;
  std::stable_sort(BySizeDesc.begin(), BySizeDesc.end(),
                   [&](size_t A, size_t B) {
                     return Generated[A].size() > Generated[B].size();
                   });

  std::vector<SynthesizedResource> Pruned;
  for (size_t I = 0; I < Set.size(); ++I) {
    bool Removed = false;
    for (size_t J : BySizeDesc) {
      if (Generated[J].size() < Generated[I].size() || Removed)
        break;
      if (J == I)
        continue;
      if (Generated[J].size() == Generated[I].size())
        Removed = J > I && Generated[J] == Generated[I];
      else
        Removed = std::includes(Generated[J].begin(), Generated[J].end(),
                                Generated[I].begin(), Generated[I].end());
    }
    if (!Removed)
      Pruned.push_back(Set[I]);
  }
  Counts["prune.kept"] += Pruned.size();
  Counts["prune.dropped"] += Set.size() - Pruned.size();
  return Pruned;
}

//===----------------------------------------------------------------------===//
// Comparison harness
//===----------------------------------------------------------------------===//

/// A digest of an OnPair/OnRule sequence: one running hash per pair (the
/// first entry covers events before any pair), so a mismatch names the
/// pair where the two sequences diverge without storing every event.
struct TraceDigest {
  std::vector<uint64_t> PerPair{0};
  uint64_t Events = 0;

  void mix(uint64_t V) {
    uint64_t &H = PerPair.back();
    H = (H ^ V) * 0x100000001b3ull + 0x9e3779b97f4a7c15ull;
    ++Events;
  }

  GeneratingSetTrace trace() {
    GeneratingSetTrace Trace;
    Trace.OnPair = [this](const ElementaryPair &P) {
      PerPair.push_back(0xcbf29ce484222325ull);
      mix(usageKey(P.First));
      mix(usageKey(P.Second));
    };
    Trace.OnRule = [this](GeneratingRule Rule, size_t Index) {
      mix((static_cast<uint64_t>(Rule) << 48) ^ Index);
    };
    return Trace;
  }
};

/// Index of the first differing entry, or the common length.
template <typename T>
size_t firstDivergence(const std::vector<T> &A, const std::vector<T> &B) {
  size_t N = std::min(A.size(), B.size());
  return static_cast<size_t>(
      std::mismatch(A.begin(), A.begin() + N, B.begin()).first - A.begin());
}

/// Where two resource sets differ, for the failure message.
std::string describeDifference(const std::vector<SynthesizedResource> &A,
                               const std::vector<SynthesizedResource> &B) {
  return "sizes " + std::to_string(A.size()) + " vs " +
         std::to_string(B.size()) + ", first difference at resource " +
         std::to_string(firstDivergence(A, B));
}

const char *const CounterNames[] = {
    "reduce.pairs",         "reduce.rule1", "reduce.rule2",
    "reduce.rule2_discard", "reduce.rule3", "reduce.rule4",
    "prune.kept",           "prune.dropped"};

uint64_t counterValue(const StatsSnapshot &Snap, const std::string &Name) {
  auto It = Snap.Counters.find(Name);
  return It == Snap.Counters.end() ? 0 : It->second;
}

/// Runs the reference and the library on \p Flat and compares everything
/// the library promises to keep: sets, trace, counter deltas, and the
/// same sets again through a thread pool.
void expectMatchesReference(const std::string &Name,
                            const MachineDescription &Flat) {
  SCOPED_TRACE(Name);
  ForbiddenLatencyMatrix FLM = ForbiddenLatencyMatrix::compute(Flat);

  Tally Expected;
  TraceDigest ReferenceTrace;
  std::vector<SynthesizedResource> ReferenceSet =
      referenceGeneratingSet(FLM, ReferenceTrace.trace(), Expected);
  std::vector<SynthesizedResource> ReferencePruned =
      referencePrune(ReferenceSet, Expected);

  StatsSnapshot Before = StatsRegistry::instance().snapshot();
  TraceDigest LibraryTrace;
  GeneratingSetTrace Trace = LibraryTrace.trace();
  std::vector<SynthesizedResource> Set = buildGeneratingSet(FLM, &Trace);
  std::vector<SynthesizedResource> Pruned = pruneGeneratingSet(Set);
  StatsSnapshot After = StatsRegistry::instance().snapshot();

  EXPECT_TRUE(Set == ReferenceSet)
      << "generating set: " << describeDifference(Set, ReferenceSet);
  EXPECT_TRUE(Pruned == ReferencePruned)
      << "pruned set: " << describeDifference(Pruned, ReferencePruned);
  EXPECT_EQ(LibraryTrace.Events, ReferenceTrace.Events) << "trace events";
  EXPECT_EQ(LibraryTrace.PerPair.size(), ReferenceTrace.PerPair.size());
  size_t Diverged =
      firstDivergence(LibraryTrace.PerPair, ReferenceTrace.PerPair);
  EXPECT_EQ(Diverged, std::min(LibraryTrace.PerPair.size(),
                               ReferenceTrace.PerPair.size()))
      << "trace diverges at pair " << Diverged;
  for (const char *Counter : CounterNames)
    EXPECT_EQ(counterValue(After, Counter) - counterValue(Before, Counter),
              Expected[Counter])
        << Counter;

  ThreadPool Pool(3);
  std::vector<SynthesizedResource> PoolSet =
      buildGeneratingSet(FLM, nullptr, &Pool);
  EXPECT_TRUE(PoolSet == ReferenceSet)
      << "generating set, 3 threads: "
      << describeDifference(PoolSet, ReferenceSet);
  std::vector<SynthesizedResource> PoolPruned =
      pruneGeneratingSet(ReferenceSet, &Pool);
  EXPECT_TRUE(PoolPruned == ReferencePruned)
      << "pruned set, 3 threads: "
      << describeDifference(PoolPruned, ReferencePruned);
}

} // namespace

TEST(FoldOracle, CorpusMachines) {
  for (const std::string &Name : machineNames()) {
    MachineDescription MD = loadMachine(Name).take().MD;
    expectMatchesReference(MD.name(), expandAlternatives(MD).Flat);
  }
}

TEST(FoldOracle, ScaledVliw16) {
  expectMatchesReference("vliw16u48d",
                         expandAlternatives(makeScaledVliw(16, 48).MD).Flat);
}

TEST(FoldOracle, ScaledVliw20) {
  expectMatchesReference("vliw20u48d",
                         expandAlternatives(makeScaledVliw(20, 48).MD).Flat);
}

TEST(FoldOracle, ScaledVliw24) {
  expectMatchesReference("vliw24u48d",
                         expandAlternatives(makeScaledVliw(24, 48).MD).Flat);
}

TEST(FoldOracle, FuzzedValidMachines) {
  for (uint64_t Seed = 1; Seed <= 40; ++Seed)
    expectMatchesReference("seed " + std::to_string(Seed),
                           expandAlternatives(randomValidMachine(Seed)).Flat);
}
