//===- sched/IterativeModuloScheduler.cpp ---------------------------------===//

#include "sched/IterativeModuloScheduler.h"

#include "query/DiscreteQuery.h" // hasModuloSelfConflict
#include "sched/MII.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"
#include "verify/QueryTrace.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <optional>

using namespace rmd;

namespace {

/// Scheduling state of one II attempt, reset at its start; the buffers
/// keep their capacity from attempt to attempt.
struct AttemptState {
  std::vector<bool> EverScheduled;
  std::vector<int> Time;
  std::vector<int> Alternative;
  std::vector<int> PrevTime;
  std::vector<uint32_t> ForcedCount;

  /// Priority per node; larger schedules earlier.
  std::vector<long long> Priority;
  /// Node ids by (priority descending, id ascending), and each node's
  /// position in that order.
  std::vector<NodeId> Order;
  std::vector<uint32_t> Rank;
  /// Bit r set iff node Order[r] is unscheduled, so the next operation to
  /// place is the lowest set bit.
  std::vector<uint64_t> Unscheduled;

  /// II feasibility per distinct original op: FeasibleAt[op] indexes the
  /// op's run of per-alternative flags in AltFeasible (-1: op not in G).
  std::vector<int32_t> FeasibleAt;
  std::vector<uint8_t> AltFeasible;

  std::vector<InstanceId> Evicted;

  bool scheduled(NodeId V) const {
    uint32_t R = Rank[V];
    return !((Unscheduled[R / 64] >> (R % 64)) & 1);
  }
  void markScheduled(NodeId V) {
    Unscheduled[Rank[V] / 64] &= ~(uint64_t(1) << (Rank[V] % 64));
  }
  void markUnscheduled(NodeId V) {
    Unscheduled[Rank[V] / 64] |= uint64_t(1) << (Rank[V] % 64);
  }
  /// The highest-priority unscheduled node; at least one must exist.
  NodeId next() const {
    size_t W = 0;
    while (Unscheduled[W] == 0)
      ++W;
    return Order[W * 64 + static_cast<size_t>(
                              std::countr_zero(Unscheduled[W]))];
  }
};

/// The earliest cycle E's target may issue when E's source issues at
/// \p FromTime. In 64 bits: II * Distance can leave int range on large
/// inputs even with every literal bounded (mdl/Lexer.h).
long long issueBound(const DepEdge &E, int FromTime, int II) {
  return static_cast<long long>(FromTime) + E.Delay -
         static_cast<long long>(II) * E.Distance;
}

/// Height-based priority at a given II: HeightR(v) = max over edges v->s of
/// HeightR(s) + Delay - II*Distance, computed by relaxation (converges for
/// II >= RecMII, where no positive cycle exists). Depth is the same
/// relaxation forward, from the iteration start.
void relaxLongestPaths(const DepGraph &G, int II, bool Forward,
                       std::vector<long long> &Length) {
  Length.assign(G.numNodes(), 0);
  for (size_t Pass = 0; Pass <= G.numNodes() + 1; ++Pass) {
    bool Changed = false;
    for (const DepEdge &E : G.edges()) {
      NodeId Src = Forward ? E.From : E.To;
      NodeId Dst = Forward ? E.To : E.From;
      long long Candidate =
          Length[Src] + E.Delay - static_cast<long long>(II) * E.Distance;
      if (Candidate > Length[Dst]) {
        Length[Dst] = Candidate;
        Changed = true;
      }
    }
    if (!Changed)
      break;
  }
}

/// Fills \p Priority with the selected priority values.
void computePriorities(const DepGraph &G, int II, SchedulePriority Kind,
                       std::vector<long long> &Priority) {
  switch (Kind) {
  case SchedulePriority::Height:
    relaxLongestPaths(G, II, /*Forward=*/false, Priority);
    return;
  case SchedulePriority::Depth:
    relaxLongestPaths(G, II, /*Forward=*/true, Priority);
    return;
  case SchedulePriority::SourceOrder:
    Priority.resize(G.numNodes());
    for (NodeId N = 0; N < G.numNodes(); ++N)
      Priority[N] = static_cast<long long>(G.numNodes() - N);
    return;
  }
}

/// How one II attempt ended.
enum class AttemptEnd {
  /// Complete schedule found within budget.
  Complete,
  /// Decision budget exhausted (or no II-feasible alternative); the caller
  /// escalates to II + 1.
  BudgetExhausted,
  /// Deadline expired or cancellation requested mid-attempt; the caller
  /// returns best-so-far instead of escalating.
  Interrupted,
};

} // namespace

/// One II attempt. On Interrupted, S holds the partial placement with
/// S.Alternative[v] == -1 for every node not scheduled at the interrupt.
static AttemptEnd
attemptSchedule(const DepGraph &G, const QueryEnvironment &Env, int II,
                uint64_t Budget, const ModuloScheduleOptions &Options,
                AttemptState &S, ModuloScheduleStats &Stats,
                uint64_t &DecisionsThisAttempt, WorkCounters &Accum,
                ScheduleOutcome &Interrupt) {
  SchedulePriority Kind = Options.Priority;
  QueryTraceLog *TraceLog = Options.TraceLog;
  const auto &Groups = *Env.Groups;
  const MachineDescription &Flat = *Env.FlatMD;
  size_t N = G.numNodes();

  // Alternatives that collide with their own modulo copies at this II can
  // never be placed; if some node has no feasible alternative, the attempt
  // fails immediately (the scheduler must raise the II). Decided once per
  // distinct original op.
  S.FeasibleAt.assign(Groups.size(), -1);
  S.AltFeasible.clear();
  for (NodeId V = 0; V < N; ++V) {
    OpId Op = G.opOf(V);
    if (S.FeasibleAt[Op] >= 0)
      continue;
    S.FeasibleAt[Op] = static_cast<int32_t>(S.AltFeasible.size());
    bool Any = false;
    for (OpId Alt : Groups[Op]) {
      bool Ok = !hasModuloSelfConflict(Flat.operation(Alt).table(), II);
      S.AltFeasible.push_back(Ok);
      Any |= Ok;
    }
    if (!Any)
      return AttemptEnd::BudgetExhausted;
  }

  std::unique_ptr<ContentionQueryModule> Module =
      Env.MakeModule(QueryConfig::modulo(II));

  // Opt-in recording: one trace segment per II attempt, routed through a
  // pass-through tracer. Counters stay on the inner module, so accounting
  // (ChecksPerDecision, the accumulated totals) is unchanged by tracing.
  std::optional<TracingQueryModule> Tracer;
  if (TraceLog)
    Tracer.emplace(*Module, TraceLog->beginSegment(Flat.name(),
                                                   QueryConfig::modulo(II)));
  ContentionQueryModule &Q =
      TraceLog ? static_cast<ContentionQueryModule &>(*Tracer) : *Module;

  // Rank the nodes once: the next operation is always the unscheduled one
  // of highest priority, ties going to the lowest id.
  computePriorities(G, II, Kind, S.Priority);
  S.Order.resize(N);
  for (NodeId V = 0; V < N; ++V)
    S.Order[V] = V;
  std::sort(S.Order.begin(), S.Order.end(), [&](NodeId A, NodeId B) {
    return S.Priority[A] != S.Priority[B] ? S.Priority[A] > S.Priority[B]
                                          : A < B;
  });
  S.Rank.resize(N);
  for (size_t R = 0; R < N; ++R)
    S.Rank[S.Order[R]] = static_cast<uint32_t>(R);
  S.Unscheduled.assign((N + 63) / 64, ~uint64_t(0));
  if (N % 64)
    S.Unscheduled.back() = (uint64_t(1) << (N % 64)) - 1;

  S.EverScheduled.assign(N, false);
  S.Time.assign(N, 0);
  S.Alternative.assign(N, -1);
  S.PrevTime.assign(N, 0);
  S.ForcedCount.assign(N, 0);

  DecisionsThisAttempt = 0;
  size_t NumScheduled = 0;

  while (NumScheduled < N) {
    // Wall-clock / cancellation poll, once per scheduling decision: cheap
    // (one steady_clock read at most) relative to the window scan each
    // decision performs.
    bool WantCancel = Options.Cancel && Options.Cancel->cancelled();
    bool WantStop = WantCancel || Options.TheDeadline.expired() ||
                    FaultInjection::fire(faultpoints::SchedDeadline);
    if (WantStop) {
      for (NodeId U = 0; U < N; ++U)
        if (!S.scheduled(U))
          S.Alternative[U] = -1;
      Accum.accumulate(Module->counters());
      Interrupt = WantCancel ? ScheduleOutcome::Cancelled
                             : ScheduleOutcome::TimedOut;
      return AttemptEnd::Interrupted;
    }

    if (DecisionsThisAttempt >= Budget) {
      Accum.accumulate(Module->counters());
      return AttemptEnd::BudgetExhausted;
    }

    NodeId V = S.next();

    // Earliest start from currently scheduled predecessors.
    long long Earliest = 0;
    for (uint32_t EIdx : G.predEdges(V)) {
      const DepEdge &E = G.edges()[EIdx];
      if (E.From != V && S.scheduled(E.From))
        Earliest = std::max(Earliest, issueBound(E, S.Time[E.From], II));
    }
    int Estart = static_cast<int>(Earliest);

    const std::vector<OpId> &Alts = Groups[G.opOf(V)];
    uint64_t ChecksBefore = Module->counters().CheckCalls;

    // Scan one II window for a contention-free slot.
    int Alt;
    int Slot = Q.findSlot(Alts, Estart, II, Alt);

    S.Evicted.clear();
    if (Alt >= 0) {
      // The IMS schedules through assign&free even for conflict-free slots
      // (Section 8: the benchmark issues no plain assign calls); eviction
      // cannot happen here since check() just succeeded.
      Q.assignAndFree(Alts[Alt], Slot, static_cast<InstanceId>(V), S.Evicted);
      assert(S.Evicted.empty() && "eviction on a checked-free slot");
    } else {
      // Forced placement (Rau): at Estart, or just past the previous
      // placement when re-scheduling at the same spot.
      Slot = (!S.EverScheduled[V] || Estart > S.PrevTime[V])
                 ? Estart
                 : S.PrevTime[V] + 1;
      // Rotate through the II-feasible alternatives. Each draw advances the
      // rotation by one position, so Alts.size() draws cover every
      // alternative exactly once — the up-front feasibility scan guarantees
      // a feasible one is among them. If that invariant ever breaks, raise
      // the II through the normal escalation path rather than silently
      // placing an infeasible alternative (the old assert-only guard
      // vanished in NDEBUG builds).
      const uint8_t *Feasible = &S.AltFeasible[S.FeasibleAt[G.opOf(V)]];
      unsigned Tried = 0;
      do {
        Alt = static_cast<int>(S.ForcedCount[V]++ % Alts.size());
        ++Tried;
      } while (!Feasible[Alt] && Tried < Alts.size());
      if (!Feasible[Alt]) {
        Accum.accumulate(Module->counters());
        return AttemptEnd::BudgetExhausted;
      }

      Q.assignAndFree(Alts[Alt], Slot, static_cast<InstanceId>(V), S.Evicted);
      if (!S.Evicted.empty())
        ++Stats.AssignFreeCallsWithEviction;
      for (InstanceId Victim : S.Evicted) {
        assert(Victim >= 0 && static_cast<size_t>(Victim) < N &&
               S.scheduled(static_cast<NodeId>(Victim)) &&
               "evicted an unknown instance");
        S.markUnscheduled(static_cast<NodeId>(Victim));
        --NumScheduled;
        ++Stats.EvictedByResource;
        Stats.UsedAssignFreeEviction = true;
      }
    }

    S.Time[V] = Slot;
    S.Alternative[V] = Alt;
    S.PrevTime[V] = Slot;
    S.EverScheduled[V] = true;
    S.markScheduled(V);
    ++NumScheduled;
    ++DecisionsThisAttempt;
    Stats.ChecksPerDecision.push_back(static_cast<uint32_t>(
        Module->counters().CheckCalls - ChecksBefore));

    // Unschedule operations whose dependences the new placement violates.
    auto unschedule = [&](NodeId W) {
      Q.free(Groups[G.opOf(W)][S.Alternative[W]], S.Time[W],
             static_cast<InstanceId>(W));
      S.markUnscheduled(W);
      --NumScheduled;
      ++Stats.EvictedByDependence;
    };
    for (uint32_t EIdx : G.succEdges(V)) {
      const DepEdge &E = G.edges()[EIdx];
      if (E.To != V && S.scheduled(E.To) &&
          S.Time[E.To] < issueBound(E, Slot, II))
        unschedule(E.To);
    }
    for (uint32_t EIdx : G.predEdges(V)) {
      const DepEdge &E = G.edges()[EIdx];
      if (E.From != V && S.scheduled(E.From) &&
          Slot < issueBound(E, S.Time[E.From], II))
        unschedule(E.From);
    }
  }

  Accum.accumulate(Module->counters());
  return AttemptEnd::Complete;
}

ModuloScheduleResult
rmd::moduloSchedule(const DepGraph &G, const MachineDescription &MD,
                    const QueryEnvironment &Env,
                    const ModuloScheduleOptions &Options) {
  assert(Env.FlatMD && Env.Groups && Env.MakeModule &&
         "incomplete query environment");
  assert(G.numNodes() > 0 && "cannot schedule an empty graph");

  ModuloScheduleResult Result;

  // Published on every exit path (success, infeasible recurrence, timeout,
  // ceiling) by the scope guard below, so stats snapshots account for every
  // run. All values derive from the deterministic scheduling loop.
  struct StatsPublisher {
    ModuloScheduleResult &R;
    ~StatsPublisher() {
      static StatCounter Runs("sched.ims.runs");
      static StatCounter Attempts("sched.ims.attempts");
      static StatCounter Decisions("sched.ims.decisions");
      static StatCounter EvictedRes("sched.ims.evicted_resource");
      static StatCounter EvictedDep("sched.ims.evicted_dependence");
      static StatCounter Scheduled("sched.ims.scheduled");
      static StatCounter IITotal("sched.ims.ii_total");
      static StatCounter MIITotal("sched.ims.mii_total");
      static StatCounter IIExcess("sched.ims.ii_excess");
      static StatHistogram Checks("sched.ims.checks_per_decision");
      Runs.add();
      Attempts.add(R.Stats.DecisionsPerAttempt.size());
      uint64_t TotalDecisions = 0;
      for (uint64_t D : R.Stats.DecisionsPerAttempt)
        TotalDecisions += D;
      Decisions.add(TotalDecisions);
      EvictedRes.add(R.Stats.EvictedByResource);
      EvictedDep.add(R.Stats.EvictedByDependence);
      for (uint32_t C : R.Stats.ChecksPerDecision)
        Checks.record(C);
      if (R.Success) {
        Scheduled.add();
        IITotal.add(static_cast<uint64_t>(R.Stats.II));
        MIITotal.add(static_cast<uint64_t>(R.Stats.MII));
        IIExcess.add(static_cast<uint64_t>(R.Stats.II - R.Stats.MII));
      }
    }
  } Publisher{Result};

  Result.Stats.ResMII = computeResMII(MD, G);
  Expected<int> RecMII = computeRecMIIChecked(G);
  if (!RecMII) {
    Result.Outcome = ScheduleOutcome::InfeasibleRecurrence;
    Result.Error = RecMII.status();
    Result.Stats.Degradation.InfeasibleRecurrences += 1;
    globalDegradation().noteInfeasibleRecurrence();
    return Result;
  }
  Result.Stats.RecMII = RecMII.value();
  Result.Stats.MII = std::max(Result.Stats.ResMII, Result.Stats.RecMII);

  int MaxII = Options.MaxII > 0 ? Options.MaxII : Result.Stats.MII + 128;
  uint64_t Budget =
      static_cast<uint64_t>(Options.BudgetRatio) * G.numNodes();

  // One state per thread, so its buffers outlive the run: every attempt
  // of every loop scheduled on this thread reuses them. (moduloSchedule
  // never runs re-entrantly on one thread.)
  thread_local AttemptState S;
  for (int II = Result.Stats.MII; II <= MaxII; ++II) {
    uint64_t Decisions = 0;
    ScheduleOutcome Interrupt = ScheduleOutcome::TimedOut;
    AttemptEnd End =
        attemptSchedule(G, Env, II, Budget, Options, S, Result.Stats,
                        Decisions, Result.Counters, Interrupt);
    Result.Stats.DecisionsPerAttempt.push_back(Decisions);
    if (End == AttemptEnd::Complete) {
      Result.Success = true;
      Result.Outcome = ScheduleOutcome::Scheduled;
      Result.II = II;
      Result.Stats.II = II;
      Result.Time = S.Time;
      Result.Alternative = S.Alternative;
      assert(G.scheduleRespectsDependences(Result.Time, II) &&
             "IMS produced a dependence-violating schedule");
      return Result;
    }
    if (End == AttemptEnd::Interrupted) {
      // Best-so-far: the partial placement of the interrupted attempt
      // (unplaced nodes carry Alternative == -1).
      Result.Outcome = Interrupt;
      Result.Error =
          Interrupt == ScheduleOutcome::Cancelled
              ? Status(ErrorCode::Cancelled,
                       "scheduling cancelled at II=" + std::to_string(II))
              : Status(ErrorCode::TimedOut,
                       "scheduling deadline expired at II=" +
                           std::to_string(II));
      Result.II = II;
      Result.Stats.II = II;
      Result.Time = S.Time;
      Result.Alternative = S.Alternative;
      Result.Stats.Degradation.SchedulerTimeouts += 1;
      globalDegradation().noteSchedulerTimeout();
      return Result;
    }
  }
  Result.Outcome = ScheduleOutcome::CeilingReached;
  return Result;
}
