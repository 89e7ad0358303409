//===- query/QueryModule.h - Contention query module interface -*- C++ -*-===//
///
/// \file
/// The contention query module of Section 7: the scheduler-facing service
/// that answers "can operation X be placed at cycle j of the current
/// partial schedule without resource contention?" and maintains the
/// reserved table as operations are assigned and freed.
///
/// Four basic functions (check / assign / free / assign&free) plus
/// check-with-alternatives, over two internal representations (discrete and
/// bitvector) and two addressing modes (linear, for basic blocks with
/// dangling boundary conditions, and modulo, for software pipelining).
///
/// Work accounting follows the paper exactly: one *work unit* is the
/// handling of a single resource usage (discrete) or a single nonempty word
/// (bitvector); assign&free's optimistic-to-update transition cost is
/// charged to it. Table 6 is produced from these counters.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_QUERY_QUERYMODULE_H
#define RMD_QUERY_QUERYMODULE_H

#include "mdesc/MachineDescription.h"

#include <cstdint>
#include <vector>

namespace rmd {

/// Identifies one scheduled operation instance; assigned by the scheduler,
/// unique among currently scheduled instances.
using InstanceId = int32_t;

/// Per-function work-unit and call counters (Table 6).
struct WorkCounters {
  uint64_t CheckCalls = 0;
  uint64_t CheckUnits = 0;
  uint64_t AssignCalls = 0;
  uint64_t AssignUnits = 0;
  uint64_t FreeCalls = 0;
  uint64_t FreeUnits = 0;
  uint64_t AssignFreeCalls = 0;
  uint64_t AssignFreeUnits = 0;
  /// Units spent rebuilding owner fields on the optimistic-to-update
  /// transition (bitvector assign&free); also included in AssignFreeUnits.
  uint64_t TransitionUnits = 0;

  /// Zeroes every field explicitly. (Self-assignment from a temporary —
  /// `*this = WorkCounters()` — invoked UB-adjacent paths under some
  /// sanitizer builds when the struct was mid-update; member-wise reset is
  /// also immune to a field silently surviving because it was added to the
  /// struct but not the reset. The static_assert below forces this list
  /// and accumulate() to be revisited when a field is added.)
  void reset() {
    CheckCalls = 0;
    CheckUnits = 0;
    AssignCalls = 0;
    AssignUnits = 0;
    FreeCalls = 0;
    FreeUnits = 0;
    AssignFreeCalls = 0;
    AssignFreeUnits = 0;
    TransitionUnits = 0;
  }

  /// Adds \p Other's counts into this (merging counters across query
  /// modules, e.g. over the II attempts of one scheduling run).
  void accumulate(const WorkCounters &Other) {
    CheckCalls += Other.CheckCalls;
    CheckUnits += Other.CheckUnits;
    AssignCalls += Other.AssignCalls;
    AssignUnits += Other.AssignUnits;
    FreeCalls += Other.FreeCalls;
    FreeUnits += Other.FreeUnits;
    AssignFreeCalls += Other.AssignFreeCalls;
    AssignFreeUnits += Other.AssignFreeUnits;
    TransitionUnits += Other.TransitionUnits;
  }

  uint64_t totalUnits() const {
    return CheckUnits + AssignUnits + FreeUnits + AssignFreeUnits;
  }
  uint64_t totalCalls() const {
    return CheckCalls + AssignCalls + FreeCalls + AssignFreeCalls;
  }
};

static_assert(sizeof(WorkCounters) == 9 * sizeof(uint64_t),
              "WorkCounters gained a field: update reset(), accumulate(), "
              "and the query.* stats publication in QueryModule.cpp");

/// Addressing mode and window of a reserved table.
struct QueryConfig {
  enum ModeKind {
    /// Cycles address a growing linear window [MinCycle, +inf). MinCycle
    /// may be negative to accommodate resource requirements dangling from
    /// predecessor basic blocks (boundary conditions, Section 1).
    Linear,
    /// Cycles are taken modulo II (a Modulo Reservation Table, for
    /// software pipelining).
    Modulo,
  };

  ModeKind Mode = Linear;

  /// Initiation interval; required when Mode == Modulo.
  int ModuloII = 0;

  /// Most negative addressable cycle (Linear mode only).
  int MinCycle = 0;

  /// Machine word width for the bitvector representation (32 or 64).
  unsigned WordBits = 64;

  /// Bitvector representation: force exactly this many cycle-bitvectors
  /// per word instead of the maximal floor(WordBits / numResources). Used
  /// to reproduce the paper's k-cycle-word columns; 0 selects the maximum.
  unsigned CyclesPerWordOverride = 0;

  /// Bitvector representation: enable the union-mask fast path in
  /// checkWithAlternatives (one OR-of-all-alternatives pass; falls back to
  /// per-alternative checks on conflict). Off by default so call counts
  /// match the paper's repeated-check formulation; identical answers
  /// either way.
  bool UnionAlternativeCheck = false;

  static QueryConfig linear(int MinCycle = 0) {
    QueryConfig C;
    C.Mode = Linear;
    C.MinCycle = MinCycle;
    return C;
  }
  static QueryConfig modulo(int II) {
    QueryConfig C;
    C.Mode = Modulo;
    C.ModuloII = II;
    return C;
  }
};

/// Abstract contention query module over an expanded machine description.
/// Implementations: DiscreteQueryModule, BitvectorQueryModule.
class ContentionQueryModule {
public:
  virtual ~ContentionQueryModule();

  /// True if \p Op can be scheduled at \p Cycle without contention.
  virtual bool check(OpId Op, int Cycle) = 0;

  /// Reserves the resources of \p Op at \p Cycle for \p Instance. The
  /// placement must be contention-free (checked in debug builds).
  virtual void assign(OpId Op, int Cycle, InstanceId Instance) = 0;

  /// Releases the resources of \p Op scheduled at \p Cycle as \p Instance.
  virtual void free(OpId Op, int Cycle, InstanceId Instance) = 0;

  /// Reserves the resources of \p Op at \p Cycle, first unscheduling any
  /// instances whose reservations conflict; their ids are appended to
  /// \p Evicted (each exactly once) and all their resources are released.
  virtual void assignAndFree(OpId Op, int Cycle, InstanceId Instance,
                             std::vector<InstanceId> &Evicted) = 0;

  /// Clears the reserved table and all bookkeeping.
  virtual void reset() = 0;

  /// Tries each alternative in turn (the paper's check-with-alt); returns
  /// the index of the first contention-free one, or -1. Each attempt is
  /// accounted as a check query. Implementations may override with a
  /// faster strategy (the paper: "other more efficient techniques could
  /// be implemented") as long as the returned alternative is the first
  /// contention-free one.
  virtual int checkWithAlternatives(const std::vector<OpId> &Alternatives,
                                    int Cycle);

  /// The schedulers' window scan: the first cycle of From, From + 1, ...,
  /// From + Count - 1 at which checkWithAlternatives() finds a fit. Returns
  /// that cycle and sets \p Alt to the alternative index found there, or
  /// returns -1 and sets \p Alt to -1 when no cycle of the window fits
  /// (\p Alt, not the return value, tells the two apart). The answer and
  /// the work counters are exactly those of the checkWithAlternatives()
  /// loop. The base version is that loop, so a wrapper that observes
  /// checkWithAlternatives() (tracing, shadowing) sees every call; a
  /// concrete module overrides it to scan its own inlined check() with one
  /// virtual call per window instead of one per cycle.
  virtual int findSlot(const std::vector<OpId> &Alternatives, int From,
                       int Count, int &Alt);

  WorkCounters &counters() { return Counters; }
  const WorkCounters &counters() const { return Counters; }

protected:
  WorkCounters Counters;

  /// findSlot() for a final module type: \p M's own check() per
  /// alternative and cycle, which the compiler calls (and inlines)
  /// directly.
  template <typename ModuleT>
  static int scanChecks(ModuleT &M, const std::vector<OpId> &Alternatives,
                        int From, int Count, int &Alt) {
    for (int I = 0; I < Count; ++I)
      for (size_t A = 0; A < Alternatives.size(); ++A)
        if (M.check(Alternatives[A], From + I)) {
          Alt = static_cast<int>(A);
          return From + I;
        }
    Alt = -1;
    return -1;
  }

  /// Work zeroed out of Counters by retireCounters(); the destructor
  /// publishes RetiredWork + Counters so per-run resets don't erase the
  /// module's lifetime accounting.
  WorkCounters RetiredWork;

  /// Implementations call this from reset() (instead of Counters.reset())
  /// so the cleared work still reaches the stats registry at destruction.
  void retireCounters() {
    RetiredWork.accumulate(Counters);
    Counters.reset();
  }

  /// When true (the default), the base destructor publishes the lifetime
  /// work to the stats registry as `query.*` counters. Wrapper modules
  /// that mirror an inner module's counters (TracingQueryModule,
  /// ShadowQueryModule) set this false so the same work is not published
  /// twice.
  bool PublishWorkToStats = true;
};

} // namespace rmd

#endif // RMD_QUERY_QUERYMODULE_H
