//===- query/SimdOps.h - Bitvector word-mask kernels ------------*- C++ -*-===//
///
/// \file
/// The three word-granular primitives of the bitvector hot path —
/// first-conflict scan (AND), reserve (OR), release (AND-NOT) — over
/// contiguous spans of 64-bit words, plus the fixed-width row kernels of
/// the uniform-row mirror. One kernel set, the same in every build:
///
///   - Spans of one or two words take plain word operations.
///   - Spans of 3..8 words take overlapping 128-bit pair covers built from
///     GCC/Clang vector extensions, which compile at the baseline ISA (SSE2
///     on x86-64, NEON on aarch64, word pairs elsewhere) with no target
///     attribute, runtime probe or intrinsic.
///   - Longer spans take one plain word loop. Only two kinds of traffic
///     reach it: cydra5 modulo patterns at II >= 33 and the unreduced
///     cydra5 / alpha21064 / mips-r3000 descriptions (up to 24 words). The
///     reduced corpus descriptions span at most 7 words in linear mode.
///
/// tests/SimdQueryTest sweeps every primitive against naive per-word loops
/// at every span length through the loop.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_QUERY_SIMDOPS_H
#define RMD_QUERY_SIMDOPS_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace rmd {
namespace simd {

/// The one compiled kernel set, named for perfbench's `simd_tier` run
/// metadata. Both functions go when the benchmark drops that field.
enum class Tier : int { V128 = 0 };
inline const char *tierName(Tier) { return "v128"; }
inline Tier activeTier() { return Tier::V128; }

/// 128-bit lane for the short-span peels. The unaligned accesses go through
/// __builtin_memcpy, which the compilers fold to movdqu-class loads.
typedef uint64_t ShortV2 __attribute__((vector_size(16), may_alias));

inline ShortV2 loadV2(const uint64_t *P) {
  ShortV2 V;
  __builtin_memcpy(&V, P, sizeof(V));
  return V;
}
inline void storeV2(uint64_t *P, ShortV2 V) { __builtin_memcpy(P, &V, sizeof(V)); }

/// Peel width: spans up to this many words take the pair covers.
constexpr size_t ShortSpanWords = 8;

/// Index of the first word with (Words[i] & Masks[i]) != 0, or -1 if the
/// whole span is conflict-free. The index contract is what lets the caller
/// reproduce abort-on-first-conflict work accounting exactly.
///
/// Short spans use *overlapping pair covers*: 128-bit lanes at [0, 1] and
/// [N-2, N-1] cover any 2 <= N <= 4 (the lanes overlap when N < 4), and two
/// more at [2, 3] and [N-4, N-3] extend the cover to N <= 8. Detection is
/// branch-free — one data-dependent branch for the whole span instead of
/// one per word — and the exact index is recovered only on the conflict
/// path, which has to walk PrefixPool anyway.
inline ptrdiff_t firstConflict(const uint64_t *Words, const uint64_t *Masks,
                               size_t N) {
  if (N == 0)
    return -1;
  if (N == 1) // single-word patterns dominate on small machines
    return (Words[0] & Masks[0]) ? 0 : -1;
  if (N == 2) { // two-word spans are next; a 128-bit lane only breaks even
    uint64_t Hot = (Words[0] & Masks[0]) | (Words[1] & Masks[1]);
    if (!Hot)
      return -1;
    return (Words[0] & Masks[0]) ? 0 : 1;
  }
  if (N <= ShortSpanWords) {
    size_t B = N - 2;
    ShortV2 Hot = (loadV2(Words) & loadV2(Masks)) |
                  (loadV2(Words + B) & loadV2(Masks + B));
    if (N > 4) {
      size_t C = N - 4;
      Hot |= (loadV2(Words + 2) & loadV2(Masks + 2)) |
             (loadV2(Words + C) & loadV2(Masks + C));
    }
    if (!(Hot[0] | Hot[1]))
      return -1;
    // A hot cover falls through: the loop finds the exact index.
  }
  for (size_t I = 0; I < N; ++I)
    if (Words[I] & Masks[I])
      return static_cast<ptrdiff_t>(I);
  return -1;
}

/// Words[i] |= Masks[i] over the span (reserve). OR is idempotent, so the
/// overlapping-pair cover (see firstConflict) may touch a word twice.
inline void orInto(uint64_t *Words, const uint64_t *Masks, size_t N) {
  if (N == 0)
    return;
  if (N == 1) {
    Words[0] |= Masks[0];
    return;
  }
  if (N == 2) {
    Words[0] |= Masks[0];
    Words[1] |= Masks[1];
    return;
  }
  if (N <= ShortSpanWords) {
    size_t B = N - 2;
    storeV2(Words, loadV2(Words) | loadV2(Masks));
    storeV2(Words + B, loadV2(Words + B) | loadV2(Masks + B));
    if (N > 4) {
      size_t C = N - 4;
      storeV2(Words + 2, loadV2(Words + 2) | loadV2(Masks + 2));
      storeV2(Words + C, loadV2(Words + C) | loadV2(Masks + C));
    }
    return;
  }
  for (size_t I = 0; I < N; ++I)
    Words[I] |= Masks[I];
}

/// Words[i] |= Masks[i] over the span, returning the OR-reduction of the
/// *pre-update* overlaps (Words[i] & Masks[i]). Zero means the reservation
/// was contention-free — the same answer a separate firstConflict scan
/// would give, fused into the store loop so assign() can assert its
/// precondition without re-reading the span. All overlap loads happen
/// before any store, so the overlapping-pair cover cannot mistake its own
/// reservation for a clash.
inline uint64_t orIntoCheck(uint64_t *Words, const uint64_t *Masks, size_t N) {
  if (N == 0)
    return 0;
  if (N == 1) {
    uint64_t Clash = Words[0] & Masks[0];
    Words[0] |= Masks[0];
    return Clash;
  }
  if (N == 2) {
    uint64_t Clash = (Words[0] & Masks[0]) | (Words[1] & Masks[1]);
    Words[0] |= Masks[0];
    Words[1] |= Masks[1];
    return Clash;
  }
  if (N <= ShortSpanWords) {
    size_t B = N - 2;
    ShortV2 W0 = loadV2(Words), M0 = loadV2(Masks);
    ShortV2 WB = loadV2(Words + B), MB = loadV2(Masks + B);
    ShortV2 Clash = (W0 & M0) | (WB & MB);
    if (N > 4) {
      size_t C = N - 4;
      ShortV2 W2 = loadV2(Words + 2), M2 = loadV2(Masks + 2);
      ShortV2 WC = loadV2(Words + C), MC = loadV2(Masks + C);
      Clash |= (W2 & M2) | (WC & MC);
      storeV2(Words + 2, W2 | M2);
      storeV2(Words + C, WC | MC);
    }
    // Overlapping stores are benign: every store writes Words[i] | Masks[i]
    // from pre-store loads, so a twice-covered word gets the same value.
    storeV2(Words, W0 | M0);
    storeV2(Words + B, WB | MB);
    return Clash[0] | Clash[1];
  }
  uint64_t Clash = 0;
  for (size_t I = 0; I < N; ++I) {
    Clash |= Words[I] & Masks[I];
    Words[I] |= Masks[I];
  }
  return Clash;
}

/// Words[i] &= ~Masks[i] over the span (release). AND-NOT is idempotent;
/// same overlapping-pair cover as orInto.
inline void andNotInto(uint64_t *Words, const uint64_t *Masks, size_t N) {
  if (N == 0)
    return;
  if (N == 1) {
    Words[0] &= ~Masks[0];
    return;
  }
  if (N == 2) {
    Words[0] &= ~Masks[0];
    Words[1] &= ~Masks[1];
    return;
  }
  if (N <= ShortSpanWords) {
    size_t B = N - 2;
    storeV2(Words, loadV2(Words) & ~loadV2(Masks));
    storeV2(Words + B, loadV2(Words + B) & ~loadV2(Masks + B));
    if (N > 4) {
      size_t C = N - 4;
      storeV2(Words + 2, loadV2(Words + 2) & ~loadV2(Masks + 2));
      storeV2(Words + C, loadV2(Words + C) & ~loadV2(Masks + C));
    }
    return;
  }
  for (size_t I = 0; I < N; ++I)
    Words[I] &= ~Masks[I];
}

//===----------------------------------------------------------------------===//
// Fixed-stride row kernels (uniform pattern arena)
//===----------------------------------------------------------------------===//
//
// The query module pads every pattern of a machine to one fixed row width
// (zero-filled past the real span) so the hot ops can run a single
// fixed-width kernel with no span-length branch: mixed-length traffic was
// costing a near-certain mispredict per call on machines whose op mix
// straddles the one-word/multi-word boundary. \p S is 4 (a half row) or 8
// (a full row) and per-pattern constant, so the width pick predicts well;
// zero-padded words conflict with nothing and OR/AND-NOT of zero is the
// identity.

/// OR-reduction of Words[i] & Masks[i] over a fixed-width row.
inline uint64_t rowHot(const uint64_t *Words, const uint64_t *Masks,
                       size_t S) {
  ShortV2 H = (loadV2(Words) & loadV2(Masks)) |
              (loadV2(Words + 2) & loadV2(Masks + 2));
  if (S > 4)
    H |= (loadV2(Words + 4) & loadV2(Masks + 4)) |
         (loadV2(Words + 6) & loadV2(Masks + 6));
  return H[0] | H[1];
}

/// Words[i] |= Masks[i] over a fixed-width row, returning the OR-reduction
/// of the pre-update overlaps (see orIntoCheck).
inline uint64_t rowOrCheck(uint64_t *Words, const uint64_t *Masks, size_t S) {
  ShortV2 W0 = loadV2(Words), M0 = loadV2(Masks);
  ShortV2 W2 = loadV2(Words + 2), M2 = loadV2(Masks + 2);
  storeV2(Words, W0 | M0);
  storeV2(Words + 2, W2 | M2);
  ShortV2 H = (W0 & M0) | (W2 & M2);
  if (S > 4) {
    ShortV2 W4 = loadV2(Words + 4), M4 = loadV2(Masks + 4);
    ShortV2 W6 = loadV2(Words + 6), M6 = loadV2(Masks + 6);
    storeV2(Words + 4, W4 | M4);
    storeV2(Words + 6, W6 | M6);
    H |= (W4 & M4) | (W6 & M6);
  }
  return H[0] | H[1];
}

/// Words[i] &= ~Masks[i] over a fixed-width row.
inline void rowAndNot(uint64_t *Words, const uint64_t *Masks, size_t S) {
  storeV2(Words, loadV2(Words) & ~loadV2(Masks));
  storeV2(Words + 2, loadV2(Words + 2) & ~loadV2(Masks + 2));
  if (S > 4) {
    storeV2(Words + 4, loadV2(Words + 4) & ~loadV2(Masks + 4));
    storeV2(Words + 6, loadV2(Words + 6) & ~loadV2(Masks + 6));
  }
}

//===----------------------------------------------------------------------===//
// Cache-line-aligned word storage
//===----------------------------------------------------------------------===//

/// Minimal aligned allocator: WordVector spans start on a cache line, so
/// each 64-byte row of the uniform-row mirror is exactly one line. Replacing
/// it with std::vector<uint64_t> did not measure free (server-batch unit_ms
/// +3.5% and +4.6% against the aligned tree in two 10-pair rounds), so it
/// stays.
template <typename T, size_t Alignment> struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment> &) noexcept {}

  T *allocate(size_t N) {
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T *P, size_t) noexcept {
    ::operator delete(P, std::align_val_t(Alignment));
  }

  template <typename U> struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator &,
                         const AlignedAllocator &) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator &,
                         const AlignedAllocator &) noexcept {
    return false;
  }
};

/// 64-byte-aligned vector of reserved-table / pattern-arena words.
using WordVector = std::vector<uint64_t, AlignedAllocator<uint64_t, 64>>;

} // namespace simd
} // namespace rmd

#endif // RMD_QUERY_SIMDOPS_H
