//===- query/PatternArena.h - Immutable shared pattern arena ---*- C++ -*-===//
///
/// \file
/// The packed bitvector pattern arena of query/BitvectorQuery.h, split out
/// as a standalone immutable artifact so it can be built once per
/// (machine description, addressing configuration) and shared read-only
/// across any number of BitvectorQueryModule instances: PatternArenaCache
/// serves the scheduler's module factory (a module per II attempt) and the
/// contention server (a module per session).
///
/// The arena is strictly const after construction: every field a query hot
/// loop reads (pattern refs, mask words, prefix counts, the uniform-row
/// mirror, the modulo self-conflict table) lives here, and nothing in here
/// is ever written after buildBitvectorPatternArena() returns. Mutable
/// per-module state — the reserved table, instance bookkeeping, and the
/// union-pattern cache of checkWithAlternatives — stays in the module.
/// Sharing is therefore safe across threads with no synchronization at
/// all, a claim the server test suite checks under ThreadSanitizer rather
/// than asserting in this comment alone.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_QUERY_PATTERNARENA_H
#define RMD_QUERY_PATTERNARENA_H

#include "mdesc/MachineDescription.h"
#include "query/QueryModule.h"
#include "query/SimdOps.h"

#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

namespace rmd {

/// One (op, phase) pattern: a dense span of DenseLen mask words in the
/// arena at MaskBegin, covering reserved-table words [FirstWord,
/// FirstWord + DenseLen) relative to the issue cycle's word in linear
/// mode (absolute in modulo mode). Nonempty counts the words with a
/// non-zero mask — the paper's work units for a full scan.
struct BitvectorPatternRef {
  /// For DenseLen == 1 — the dominant span class on small machines — the
  /// single mask word is duplicated here, saving the dependent
  /// pool-base -> mask load pair that would otherwise sit at the bottom of
  /// every query's address chain.
  uint64_t InlineMask = 0;
  uint32_t MaskBegin = 0;
  int32_t FirstWord = 0;
  uint16_t DenseLen = 0;
  uint16_t Nonempty = 0;
};

/// The immutable packed pattern arena; see the file comment. MaskPool and
/// PrefixPool are parallel: PrefixPool[i] is the number of nonempty masks
/// in the span prefix ending at (and including) i.
struct BitvectorPatternArena {
  /// The addressing parameters the arena was built for. Two configs may
  /// share an arena iff these match (MinCycle and the union-check flag are
  /// per-module concerns and deliberately absent).
  QueryConfig::ModeKind Mode = QueryConfig::Linear;
  int ModuloII = 0;
  unsigned WordBits = 64;
  unsigned CyclesPerWordOverride = 0;

  /// Shape of the description the arena was built from (a cheap structural
  /// compatibility check; the builder's caller guarantees it uses the same
  /// description object or a bit-identical copy).
  size_t NumResources = 0;
  size_t NumOperations = 0;

  /// Cycle-bitvectors packed per word (the paper's k) and derived helpers.
  unsigned K = 1;
  unsigned NumPhases = 1;
  /// Reciprocal for the cycle->word split: ceil(2^38 / K); exact for any
  /// dividend below 2^32 (see BitvectorQuery.h).
  uint64_t KReciprocal = 0;
  static constexpr unsigned KReciprocalShift = 38;

  /// Per-(op, phase) spans: Patterns[op * NumPhases + phase].
  std::vector<BitvectorPatternRef> Patterns;
  simd::WordVector MaskPool;
  std::vector<uint16_t> PrefixPool;

  /// Uniform-row mirror (linear mode, machines whose spans fit a row; see
  /// BitvectorQuery.h for the full rationale). A row is UniformWords mask
  /// words, zero-padded past DenseLen, one cache line per row.
  static constexpr size_t UniformWords = 8;
  static constexpr size_t UniformNarrow = 4;
  bool UniformRows = false;
  simd::WordVector UniformPool; // Patterns.size() * UniformWords

  /// Modulo mode only: SelfConflict[op] != 0 when op's table collides with
  /// itself under this II (such an op can never be placed).
  std::vector<uint8_t> SelfConflict;

  const BitvectorPatternRef &pattern(OpId Op, unsigned Phase) const {
    return Patterns[static_cast<size_t>(Op) * NumPhases + Phase];
  }

  /// Bytes of the arena (masks, prefix counts, span table, uniform rows).
  size_t bytes() const {
    return (MaskPool.size() + UniformPool.size()) * sizeof(uint64_t) +
           PrefixPool.size() * sizeof(uint16_t) +
           Patterns.size() * sizeof(BitvectorPatternRef) +
           SelfConflict.size();
  }

  /// True when a module over \p MD with \p Config may use this arena.
  bool compatibleWith(const MachineDescription &MD,
                      const QueryConfig &Config) const {
    return Mode == Config.Mode &&
           (Mode != QueryConfig::Modulo || ModuloII == Config.ModuloII) &&
           WordBits == Config.WordBits &&
           CyclesPerWordOverride == Config.CyclesPerWordOverride &&
           NumResources == MD.numResources() &&
           NumOperations == MD.numOperations();
  }
};

/// Builds the arena for \p MD (expanded, numResources() <= Config.WordBits)
/// under \p Config. The result is immutable and freely shareable across
/// threads and modules; BitvectorQueryModule's arena-taking constructor is
/// the consumer.
std::shared_ptr<const BitvectorPatternArena>
buildBitvectorPatternArena(const MachineDescription &MD, QueryConfig Config);

/// The arenas of one description (which must outlive the cache), each
/// built under the lock on its first request and shared from then on. The
/// key holds every config field compatibleWith() reads. Publishes
/// query.arena.hits / query.arena.builds.
class PatternArenaCache {
public:
  explicit PatternArenaCache(const MachineDescription &MD) : MD(MD) {}

  std::shared_ptr<const BitvectorPatternArena>
  get(const QueryConfig &Config) const;

private:
  using Key = std::tuple<int, int, unsigned, unsigned>;

  const MachineDescription &MD;
  mutable std::mutex Mutex;
  mutable std::map<Key, std::shared_ptr<const BitvectorPatternArena>> Arenas;
};

/// Appends \p Scratch's span [MinWord, MaxWord] to \p MaskPool/\p PrefixPool
/// and returns its ref; resets the touched Scratch words to zero. Shared by
/// the arena builder and the module's union-pattern cache (which appends to
/// its own, module-local pools).
BitvectorPatternRef emitBitvectorPattern(std::vector<uint64_t> &Scratch,
                                         int MinWord, int MaxWord,
                                         simd::WordVector &MaskPool,
                                         std::vector<uint16_t> &PrefixPool);

} // namespace rmd

#endif // RMD_QUERY_PATTERNARENA_H
