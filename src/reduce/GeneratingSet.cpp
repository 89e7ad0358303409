//===- reduce/GeneratingSet.cpp -------------------------------------------===//

#include "reduce/GeneratingSet.h"

#include "support/Stats.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>

using namespace rmd;

std::vector<ElementaryPair>
rmd::enumerateElementaryPairs(const ForbiddenLatencyMatrix &FLM) {
  std::vector<ElementaryPair> Pairs;
  size_t NumOps = FLM.numOperations();
  // The paper's order (Figure 3): scan F(X, Y) row by row. A latency
  // f >= 0 in F(X, Y) yields the pair {(X, 0), (Y, f)}: X using a resource
  // at relative cycle 0 and Y at relative cycle f collide exactly when X
  // issues f cycles after Y. Mirrored (negative) latencies are skipped:
  // they are redundant with the positive entry of the transposed cell. A
  // zero latency between distinct operations appears in both F(X, Y) and
  // F(Y, X); keep only the X < Y instance. Zero self-latencies are handled
  // by Rule 4.
  for (OpId X = 0; X < NumOps; ++X)
    for (OpId Y = 0; Y < NumOps; ++Y)
      for (int F : FLM.get(X, Y)) {
        if (F < 0)
          continue;
        if (F == 0 && (X == Y || X > Y))
          continue;
        Pairs.push_back(
            ElementaryPair{SynthUsage{X, 0}, SynthUsage{Y, F}});
      }
  return Pairs;
}

namespace {

/// Resources and latency sets are fixed-width bitsets over a numbered
/// universe, stored row-major in one flat word vector.
using Word = uint64_t;

bool testBit(const Word *Row, size_t Bit) {
  return (Row[Bit / 64] >> (Bit % 64)) & 1;
}

void setBit(Word *Row, size_t Bit) { Row[Bit / 64] |= Word(1) << (Bit % 64); }

/// True if every bit of \p A is also set in \p B.
bool isSubset(const Word *A, const Word *B, size_t Width) {
  for (size_t K = 0; K < Width; ++K)
    if (A[K] & ~B[K])
      return false;
  return true;
}

/// Calls \p Fn(Bit) for every set bit of \p Row, ascending.
template <typename Fn> void forEachBit(const Word *Row, size_t Width, Fn F) {
  for (size_t K = 0; K < Width; ++K)
    for (Word Bits = Row[K]; Bits; Bits &= Bits - 1)
      F(K * 64 + static_cast<size_t>(std::countr_zero(Bits)));
}

/// The usages Algorithm 1 can ever place, sorted: (X, 0) for every
/// operation plus the second usage (Y, F) of every elementary pair. Pair
/// usages have nonnegative cycles and every resource is anchored at cycle
/// 0, so no other usage arises. A usage's bit is its index here, so the
/// set bits of a resource, read ascending, are its sorted usage vector.
std::vector<SynthUsage>
usageUniverse(size_t NumOps, const std::vector<ElementaryPair> &Pairs) {
  std::vector<SynthUsage> Universe;
  for (OpId X = 0; X < NumOps; ++X)
    Universe.push_back(SynthUsage{X, 0});
  for (const ElementaryPair &P : Pairs)
    Universe.push_back(P.Second);
  std::sort(Universe.begin(), Universe.end());
  Universe.erase(std::unique(Universe.begin(), Universe.end()),
                 Universe.end());
  return Universe;
}

size_t bitOf(const std::vector<SynthUsage> &Universe, const SynthUsage &U) {
  return static_cast<size_t>(
      std::lower_bound(Universe.begin(), Universe.end(), U) -
      Universe.begin());
}

/// The mutable fold state: one usage bitset per resource plus, per usage
/// bit, the list of resources containing it. Resources only ever grow
/// (Rule 1 adds usages, nothing removes them), so postings never go
/// stale.
class FoldState {
public:
  explicit FoldState(size_t NumBits)
      : Width(std::max<size_t>(1, (NumBits + 63) / 64)), Postings(NumBits) {}

  size_t size() const { return Bits.size() / Width; }
  size_t width() const { return Width; }
  const Word *row(size_t I) const { return Bits.data() + I * Width; }

  /// Adds \p Candidate unless it is subsumed; returns the new index or -1.
  int add(const Word *Candidate) {
    if (subsumed(Candidate))
      return -1;
    uint32_t Index = static_cast<uint32_t>(size());
    Hint = Index;
    Bits.insert(Bits.end(), Candidate, Candidate + Width);
    forEachBit(Candidate, Width,
               [&](size_t Bit) { Postings[Bit].push_back(Index); });
    return static_cast<int>(Index);
  }

  /// Rule 1: merges usage \p Bit into resource \p I.
  void merge(size_t I, size_t Bit) {
    Word *Row = Bits.data() + I * Width;
    if (testBit(Row, Bit))
      return;
    setBit(Row, Bit);
    Postings[Bit].push_back(static_cast<uint32_t>(I));
  }

private:
  /// True if \p Candidate is a subset of some current resource.
  /// Discarding subsets is safe: Theorem 1's reconstruction argument only
  /// needs *some* resource containing the accumulated usages, and a
  /// superset keeps accumulating whatever the subset would have. Exact
  /// duplicates are subsets too, so this one test also deduplicates.
  ///
  /// Consecutive candidates of one pair are mostly subsets of the same
  /// resource, so the last resource added or found as a superset is tried
  /// first (on ScaledVliw(24,48) it answers over 99% of the tests). Which
  /// superset is found does not matter, only whether one exists. Failing
  /// that, a superset must contain the candidate's rarest usage, so only
  /// that usage's postings are tested.
  bool subsumed(const Word *Candidate) {
    if (Hint < size() && isSubset(Candidate, row(Hint), Width))
      return true;
    const std::vector<uint32_t> *Shortest = nullptr;
    for (size_t K = 0; K < Width; ++K)
      for (Word Left = Candidate[K]; Left; Left &= Left - 1) {
        const std::vector<uint32_t> &P =
            Postings[K * 64 + static_cast<size_t>(std::countr_zero(Left))];
        if (P.empty())
          return false; // nothing contains this usage at all
        if (!Shortest || P.size() < Shortest->size())
          Shortest = &P;
      }
    if (!Shortest)
      return false;
    for (uint32_t I : *Shortest)
      if (isSubset(Candidate, row(I), Width)) {
        Hint = I;
        return true;
      }
    return false;
  }

  size_t Width;
  std::vector<Word> Bits;
  std::vector<std::vector<uint32_t>> Postings;
  size_t Hint = SIZE_MAX; // resource subsumed() tries first
};

} // namespace

std::vector<SynthesizedResource>
rmd::buildGeneratingSet(const ForbiddenLatencyMatrix &FLM,
                        const GeneratingSetTrace *Trace, ThreadPool *) {
  std::vector<ElementaryPair> Pairs = enumerateElementaryPairs(FLM);
  std::vector<SynthUsage> Universe =
      usageUniverse(FLM.numOperations(), Pairs);
  FoldState State(Universe.size());
  const size_t Width = State.width();

  static StatCounter PairStat("reduce.pairs");
  static StatCounter RuleStats[] = { // indexed by GeneratingRule
      StatCounter("reduce.rule1"), StatCounter("reduce.rule2"),
      StatCounter("reduce.rule2_discard"), StatCounter("reduce.rule3"),
      StatCounter("reduce.rule4")};
  // Rule applications are tallied locally and published once at the
  // end: a registry update per verdict cost a fifth of the fold time.
  uint64_t NumPairs = 0, NumRules[std::size(RuleStats)] = {};
  auto Fire = [&](GeneratingRule Rule, size_t ResourceIndex) {
    ++NumRules[static_cast<size_t>(Rule)];
    if (Trace && Trace->OnRule)
      Trace->OnRule(Rule, ResourceIndex);
  };
  std::vector<OpId> PairedOps(FLM.numOperations(), 0);
  std::vector<Word> Mask(Width), Candidate(Width);

  for (const ElementaryPair &P : Pairs) {
    ++NumPairs;
    if (Trace && Trace->OnPair)
      Trace->OnPair(P);
    PairedOps[P.First.Op] = 1;
    PairedOps[P.Second.Op] = 1;
    size_t FirstBit = bitOf(Universe, P.First);
    size_t SecondBit = bitOf(Universe, P.Second);

    // The usages compatible with both pair usages (paper Section 4):
    // co-locating U with (X, 0) and with (Y, F) must forbid only latencies
    // that are already forbidden.
    std::fill(Mask.begin(), Mask.end(), 0);
    for (size_t Bit = 0; Bit < Universe.size(); ++Bit) {
      const SynthUsage &U = Universe[Bit];
      if (usagesCompatible(FLM, U, P.First) &&
          usagesCompatible(FLM, U, P.Second))
        setBit(Mask.data(), Bit);
    }

    // Judge every resource that existed when this pair's processing
    // started, in index order, by C = R & M: Rule 1 if C == R, a discarded
    // Rule 2 if C is empty, else the Rule 2 candidate C | pair. Rule 1
    // changes only the resource just judged and Rule 2 appends past End,
    // so each verdict sees the resource as the pair found it.
    size_t End = State.size();
    bool PairTogether = false;
    for (size_t I = 0; I < End; ++I) {
      const Word *R = State.row(I);
      Word Lost = 0, Kept = 0;
      for (size_t K = 0; K < Width; ++K) {
        Candidate[K] = R[K] & Mask[K];
        Lost |= R[K] & ~Mask[K];
        Kept |= Candidate[K];
      }

      if (!Lost) {
        // Rule 1: fully compatible; merge the pair into the resource.
        State.merge(I, FirstBit);
        State.merge(I, SecondBit);
        PairTogether = true;
        Fire(GeneratingRule::Rule1, I);
        continue;
      }

      // Rule 2: partially compatible; spawn pair + compatible subset,
      // unless that subset is empty (new resource would be the bare pair).
      if (!Kept) {
        Fire(GeneratingRule::Rule2Discard, I);
        continue;
      }
      setBit(Candidate.data(), FirstBit);
      setBit(Candidate.data(), SecondBit);
      int NewIndex = State.add(Candidate.data());
      PairTogether = true; // together in the new or in a subsuming resource
      if (NewIndex >= 0)
        Fire(GeneratingRule::Rule2, static_cast<size_t>(NewIndex));
    }

    if (PairTogether)
      continue;

    // Rule 3: the pair's usages co-reside nowhere; add the pair itself.
    std::fill(Candidate.begin(), Candidate.end(), 0);
    setBit(Candidate.data(), FirstBit);
    setBit(Candidate.data(), SecondBit);
    int NewIndex = State.add(Candidate.data());
    if (NewIndex >= 0)
      Fire(GeneratingRule::Rule3, static_cast<size_t>(NewIndex));
  }

  // Rule 4: operations whose only forbidden latency is the 0 self-latency
  // appear in no elementary pair; they still need one single-usage resource.
  for (OpId Op = 0; Op < FLM.numOperations(); ++Op) {
    if (PairedOps[Op] || !FLM.isForbidden(Op, Op, 0))
      continue;
    std::fill(Candidate.begin(), Candidate.end(), 0);
    setBit(Candidate.data(), bitOf(Universe, SynthUsage{Op, 0}));
    int NewIndex = State.add(Candidate.data());
    if (NewIndex >= 0)
      Fire(GeneratingRule::Rule4, static_cast<size_t>(NewIndex));
  }

  PairStat.add(NumPairs);
  for (size_t Rule = 0; Rule < std::size(RuleStats); ++Rule)
    RuleStats[Rule].add(NumRules[Rule]);

  // Set bits ascend in SynthUsage order and every resource holds a
  // cycle-0 usage, so each bitset reads out as a normalized resource.
  std::vector<SynthesizedResource> Set;
  Set.reserve(State.size());
  for (size_t I = 0; I < State.size(); ++I) {
    std::vector<SynthUsage> Usages;
    forEachBit(State.row(I), Width,
               [&](size_t Bit) { Usages.push_back(Universe[Bit]); });
    Set.emplace_back(std::move(Usages));
  }
  return Set;
}

namespace {

/// Compact index of the canonical latencies a resource set generates. A
/// latency (After, Before, L) first gets a slot (After * NumOps + Before) *
/// Width + L — one row of Width latencies per operation pair, which is
/// enough because every resource is anchored at cycle 0 — and the
/// occupied slots are then ranked, so the bitsets span only the latencies
/// that actually occur rather than every (op, op, latency) combination.
class LatencyIndex {
public:
  explicit LatencyIndex(const std::vector<SynthesizedResource> &Set) {
    for (const SynthesizedResource &R : Set)
      for (const SynthUsage &U : R.usages()) {
        NumOps = std::max(NumOps, static_cast<size_t>(U.Op) + 1);
        Width = std::max(Width, static_cast<size_t>(U.Cycle) + 1);
      }
    Occupied.assign((NumOps * NumOps * Width + 63) / 64, 0);
    for (const SynthesizedResource &R : Set)
      forEachSlot(R, [&](size_t Slot) { setBit(Occupied.data(), Slot); });
    Rank.resize(Occupied.size());
    for (size_t K = 0; K < Occupied.size(); ++K) {
      Rank[K] = static_cast<uint32_t>(Size);
      Size += static_cast<size_t>(std::popcount(Occupied[K]));
    }
  }

  /// Number of distinct latencies, i.e. the bitset width in bits.
  size_t size() const { return Size; }

  /// Sets the bit of every latency \p R generates in \p Row.
  void generate(const SynthesizedResource &R, Word *Row) const {
    forEachSlot(R, [&](size_t Slot) {
      Word Below = Occupied[Slot / 64] & ((Word(1) << (Slot % 64)) - 1);
      setBit(Row, Rank[Slot / 64] + std::popcount(Below));
    });
  }

private:
  /// Calls \p F with the slot of each canonical latency \p R generates:
  /// one per usage pair (I, J) with I <= J, duplicates included; I == J
  /// gives the usage's (X, X, 0). Usages are sorted by (cycle, op), so the
  /// pair's canonical form is always (Op[I], Op[J], Cycle[J] - Cycle[I]):
  /// a later usage never precedes an earlier one, and at equal cycles
  /// Op[I] < Op[J]. Its slot splits into a part of I and a part of J.
  template <typename Fn>
  void forEachSlot(const SynthesizedResource &R, Fn F) const {
    const std::vector<SynthUsage> &Us = R.usages();
    std::vector<size_t> Later(Us.size()); // Op * Width + Cycle
    for (size_t J = 0; J < Us.size(); ++J)
      Later[J] = static_cast<size_t>(Us[J].Op) * Width +
                 static_cast<size_t>(Us[J].Cycle);
    for (size_t I = 0; I < Us.size(); ++I) {
      size_t Base = static_cast<size_t>(Us[I].Op) * NumOps * Width;
      size_t Cycle = static_cast<size_t>(Us[I].Cycle);
      for (size_t J = I; J < Us.size(); ++J)
        F(Base + Later[J] - Cycle);
    }
  }

  size_t NumOps = 0;
  size_t Width = 0;
  size_t Size = 0;
  std::vector<Word> Occupied; // one bit per slot
  std::vector<uint32_t> Rank; // occupied slots before each Occupied word
};

} // namespace

std::vector<SynthesizedResource>
rmd::pruneGeneratingSet(std::vector<SynthesizedResource> Set,
                        ThreadPool *Pool) {
  // Generated latency sets as bitsets (independent per resource), with
  // their sizes and the words [Lo, Hi) outside which they are zero: a
  // cover test only needs to look at those words.
  LatencyIndex Index(Set);
  const size_t Width = (Index.size() + 63) / 64;
  std::vector<Word> Generated(Set.size() * Width, 0);
  std::vector<size_t> Size(Set.size(), 0), Lo(Set.size(), 0),
      Hi(Set.size(), 0);
  auto Precompute = [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      Word *Row = Generated.data() + I * Width;
      Index.generate(Set[I], Row);
      for (size_t K = 0; K < Width; ++K) {
        if (!Row[K])
          continue;
        Size[I] += static_cast<size_t>(std::popcount(Row[K]));
        if (!Hi[I])
          Lo[I] = K;
        Hi[I] = K + 1;
      }
    }
  };
  if (Pool)
    Pool->parallelFor(0, Set.size(), Precompute, /*MinPerBlock=*/8);
  else
    Precompute(0, Set.size());

  // The historical sweep processed resources smallest-set-first and
  // removed each one covered by a not-yet-removed resource. That is
  // equivalent to this order-free rule (a cover is strictly larger, or
  // equal with a later position, and the largest element of any cover
  // chain always survives): remove I iff some J generates a strict
  // superset, or generates the identical set and has the larger index.
  // Per-resource verdicts are independent, hence the parallelFor.
  std::vector<size_t> BySizeDesc(Set.size());
  for (size_t I = 0; I < BySizeDesc.size(); ++I)
    BySizeDesc[I] = I;
  std::stable_sort(BySizeDesc.begin(), BySizeDesc.end(),
                   [&](size_t A, size_t B) { return Size[A] > Size[B]; });

  std::vector<uint8_t> Removed(Set.size(), 0);
  auto Judge = [&](size_t Begin, size_t End) {
    for (size_t I = Begin; I < End; ++I) {
      const Word *GI = Generated.data() + I * Width + Lo[I];
      for (size_t J : BySizeDesc) {
        if (Size[J] < Size[I])
          break; // only larger-or-equal sets can cover; list is sorted
        if (J == I ||
            !isSubset(GI, Generated.data() + J * Width + Lo[I], Hi[I] - Lo[I]))
          continue;
        // A subset of equal size is the identical set.
        if (Size[J] > Size[I] || J > I) {
          Removed[I] = 1;
          break;
        }
      }
    }
  };
  if (Pool)
    Pool->parallelFor(0, Set.size(), Judge, /*MinPerBlock=*/8);
  else
    Judge(0, Set.size());

  // Kept/dropped are tallied at the sequential final filter (verdicts are
  // thread-count-invariant, so these counts are too).
  static StatCounter KeptStat("prune.kept");
  static StatCounter DroppedStat("prune.dropped");
  std::vector<SynthesizedResource> Pruned;
  for (size_t I = 0; I < Set.size(); ++I)
    if (!Removed[I])
      Pruned.push_back(std::move(Set[I]));
  KeptStat.add(Pruned.size());
  DroppedStat.add(Set.size() - Pruned.size());
  return Pruned;
}
