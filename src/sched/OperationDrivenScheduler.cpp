//===- sched/OperationDrivenScheduler.cpp ---------------------------------===//

#include "sched/OperationDrivenScheduler.h"

#include "support/Degradation.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"
#include "verify/QueryTrace.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <unordered_map>

using namespace rmd;

namespace {

/// Critical-path heights over delays (resource-free), for the priority.
std::vector<long long> criticalHeights(const DepGraph &G) {
  std::vector<long long> Height(G.numNodes(), 0);
  std::vector<NodeId> Topo = G.topologicalOrder();
  for (auto It = Topo.rbegin(); It != Topo.rend(); ++It)
    for (uint32_t EIdx : G.succEdges(*It)) {
      const DepEdge &E = G.edges()[EIdx];
      Height[*It] = std::max(Height[*It], Height[E.To] + E.Delay);
    }
  return Height;
}

} // namespace

OperationDrivenResult rmd::operationDrivenSchedule(
    const DepGraph &G, const std::vector<std::vector<OpId>> &Groups,
    const MachineDescription &FlatMD, ContentionQueryModule &Module,
    const std::vector<DanglingOp> &Dangling,
    const OperationDrivenOptions &Options, QueryTrace *Trace) {
  assert(G.isAcyclic() && "operation-driven scheduling is for basic blocks");

  // Opt-in recording: route every query through a tracer. Counters mirror
  // the inner module's, so accounting is unchanged by tracing.
  std::optional<TracingQueryModule> Tracer;
  if (Trace)
    Tracer.emplace(Module, *Trace);
  ContentionQueryModule &Q =
      Trace ? static_cast<ContentionQueryModule &>(*Tracer) : Module;

  OperationDrivenResult Result;
  size_t N = G.numNodes();
  Result.Time.assign(N, 0);
  Result.Alternative.assign(N, -1);

  // Published on every exit (success, timeout, budget) by the scope guard.
  uint64_t Backtracks = 0;
  struct StatsPublisher {
    OperationDrivenResult &R;
    uint64_t &Backtracks;
    ~StatsPublisher() {
      static StatCounter Runs("sched.block.runs");
      static StatCounter Decisions("sched.block.decisions");
      static StatCounter BacktrackStat("sched.block.backtracks");
      static StatCounter Scheduled("sched.block.scheduled");
      Runs.add();
      Decisions.add(R.Decisions);
      BacktrackStat.add(Backtracks);
      if (R.Success)
        Scheduled.add();
    }
  } Publisher{Result, Backtracks};

  // Seed predecessor residue below instance id -1; remember each so a
  // forced placement that trampled one can restore it (the predecessor
  // block is immutable).
  std::unordered_map<InstanceId, DanglingOp> DanglingInfo;
  InstanceId DanglingId = -2;
  for (const DanglingOp &D : Dangling) {
    Q.assign(D.FlatOp, D.Cycle, DanglingId);
    DanglingInfo.emplace(DanglingId, D);
    --DanglingId;
  }

  std::vector<long long> Height = criticalHeights(G);
  std::vector<bool> Scheduled(N, false);
  std::vector<unsigned> Evictions(N, 0);
  size_t NumScheduled = 0;

  // Termination backstop: operation-driven backtracking can in principle
  // thrash; a generous global budget turns livelock into honest failure.
  uint64_t Budget = 64ull * N + 64;

  while (NumScheduled < N) {
    // Wall-clock / cancellation poll per decision; best-so-far on expiry
    // (unscheduled nodes keep Alternative == -1 below).
    bool WantCancel = Options.Cancel && Options.Cancel->cancelled();
    if (WantCancel || Options.TheDeadline.expired() ||
        FaultInjection::fire(faultpoints::SchedDeadline)) {
      for (NodeId U = 0; U < N; ++U)
        if (!Scheduled[U])
          Result.Alternative[U] = -1;
      Result.Error =
          WantCancel ? Status(ErrorCode::Cancelled,
                              "block scheduling cancelled")
                     : Status(ErrorCode::TimedOut,
                              "block scheduling deadline expired");
      globalDegradation().noteSchedulerTimeout();
      return Result; // Success stays false
    }

    if (Result.Decisions >= Budget)
      return Result; // Success stays false

    // Highest critical-path height among unscheduled ops (ties: lower id).
    NodeId V = static_cast<NodeId>(N);
    for (NodeId U = 0; U < N; ++U)
      if (!Scheduled[U] && (V == N || Height[U] > Height[V]))
        V = U;
    assert(V < N && "no candidate despite unscheduled operations");

    // Dependence window against *scheduled* neighbours: note that
    // operations are NOT placed in cycle order -- V may land before
    // already-scheduled operations.
    int Estart = 0;
    for (uint32_t EIdx : G.predEdges(V)) {
      const DepEdge &E = G.edges()[EIdx];
      if (Scheduled[E.From])
        Estart = std::max(Estart, Result.Time[E.From] + E.Delay);
    }
    int Lstart = Estart + 64; // bounded in-window search
    for (uint32_t EIdx : G.succEdges(V)) {
      const DepEdge &E = G.edges()[EIdx];
      if (Scheduled[E.To])
        Lstart = std::min(Lstart, Result.Time[E.To] - E.Delay);
    }

    const std::vector<OpId> &Alts = Groups[G.opOf(V)];
    int Alt;
    int Slot = Q.findSlot(Alts, Estart, Lstart - Estart + 1, Alt);

    if (Alt >= 0) {
      Q.assign(Alts[Alt], Slot, static_cast<InstanceId>(V));
    } else if (Evictions[V] < Options.MaxEvictions) {
      // Forced placement at Estart: evict whoever holds the resources.
      // Predecessor residue is immutable: if a forced slot tramples a
      // dangling reservation, restore it and push the slot forward.
      Slot = Estart;
      Alt = 0;
      for (;;) {
        std::vector<InstanceId> Evicted;
        Q.assignAndFree(Alts[Alt], Slot, static_cast<InstanceId>(V),
                        Evicted);
        bool HitDangling = false;
        for (InstanceId Victim : Evicted) {
          if (Victim < -1) {
            HitDangling = true;
            continue;
          }
          assert(Victim >= 0 && static_cast<size_t>(Victim) < N &&
                 "evicted an unknown instance");
          Scheduled[Victim] = false;
          --NumScheduled;
          ++Evictions[Victim];
          ++Backtracks;
        }
        if (!HitDangling)
          break;
        // Undo: release this placement, restore trampled residue, retry
        // one cycle later.
        Q.free(Alts[Alt], Slot, static_cast<InstanceId>(V));
        for (InstanceId Victim : Evicted)
          if (Victim < -1) {
            const DanglingOp &D = DanglingInfo.at(Victim);
            Q.assign(D.FlatOp, D.Cycle, Victim);
          }
        ++Slot;
      }
    } else {
      // Eviction budget spent: take the first conflict-free cycle at or
      // past the window (always exists in a linear schedule).
      int From = std::max(Estart, Lstart + 1);
      Slot = Q.findSlot(Alts, From, std::numeric_limits<int>::max() - From,
                        Alt);
      assert(Alt >= 0 && "no free cycle in a linear schedule");
      Q.assign(Alts[Alt], Slot, static_cast<InstanceId>(V));
    }

    Result.Time[V] = Slot;
    Result.Alternative[V] = Alt;
    Scheduled[V] = true;
    ++NumScheduled;
    ++Result.Decisions;

    // Unschedule neighbours whose dependence constraints the placement
    // violates; they re-enter the worklist.
    auto unschedule = [&](NodeId W) {
      Q.free(Groups[G.opOf(W)][Result.Alternative[W]], Result.Time[W],
             static_cast<InstanceId>(W));
      Scheduled[W] = false;
      --NumScheduled;
      ++Evictions[W];
      ++Backtracks;
    };
    for (uint32_t EIdx : G.succEdges(V)) {
      const DepEdge &E = G.edges()[EIdx];
      if (Scheduled[E.To] && Result.Time[E.To] < Slot + E.Delay)
        unschedule(E.To);
    }
    for (uint32_t EIdx : G.predEdges(V)) {
      const DepEdge &E = G.edges()[EIdx];
      if (Scheduled[E.From] && Slot < Result.Time[E.From] + E.Delay)
        unschedule(E.From);
    }
  }

  // Schedule length and the residue dangling into a successor block.
  for (NodeId V = 0; V < N; ++V)
    Result.Length = std::max(Result.Length, Result.Time[V] + 1);
  for (NodeId V = 0; V < N; ++V) {
    OpId Flat = Groups[G.opOf(V)][Result.Alternative[V]];
    int Len = FlatMD.operation(Flat).table().length();
    if (Result.Time[V] + Len > Result.Length)
      Result.Dangling.push_back(
          DanglingOp{Flat, Result.Time[V] - Result.Length});
  }

  assert(G.scheduleRespectsDependences(Result.Time, 0) &&
         "operation-driven scheduler violated a dependence");
  Result.Success = true;
  return Result;
}

std::vector<OperationDrivenResult> rmd::scheduleBlockSequence(
    const std::vector<const DepGraph *> &Blocks,
    const std::vector<std::vector<OpId>> &Groups,
    const MachineDescription &FlatMD,
    const std::function<std::unique_ptr<ContentionQueryModule>()> &MakeModule,
    const OperationDrivenOptions &Options) {
  std::vector<OperationDrivenResult> Results;
  std::vector<DanglingOp> Residue;
  for (const DepGraph *Block : Blocks) {
    std::unique_ptr<ContentionQueryModule> Module = MakeModule();
    Results.push_back(operationDrivenSchedule(*Block, Groups, FlatMD,
                                              *Module, Residue, Options));
    if (!Results.back().Success)
      return Results;
    Residue = Results.back().Dangling;
  }
  return Results;
}
