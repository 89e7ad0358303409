//===- sched/ListScheduler.cpp --------------------------------------------===//

#include "sched/ListScheduler.h"

#include "verify/QueryTrace.h"

#include <algorithm>
#include <optional>

using namespace rmd;

ListScheduleResult
rmd::listSchedule(const DepGraph &G,
                  const std::vector<std::vector<OpId>> &Groups,
                  ContentionQueryModule &Module,
                  const std::vector<DanglingOp> &Dangling,
                  QueryTrace *Trace) {
  assert(G.isAcyclic() && "list scheduling requires an acyclic graph");

  // Opt-in recording: route every query through a tracer. Counters mirror
  // the inner module's, so accounting is unchanged by tracing.
  std::optional<TracingQueryModule> Tracer;
  if (Trace)
    Tracer.emplace(Module, *Trace);
  ContentionQueryModule &Q =
      Trace ? static_cast<ContentionQueryModule &>(*Tracer) : Module;

  ListScheduleResult Result;
  Result.Time.assign(G.numNodes(), -1);
  Result.Alternative.assign(G.numNodes(), -1);

  // Seed dangling reservations from predecessor blocks. Their instance ids
  // live below -1 so they can never collide with node instances.
  InstanceId DanglingId = -2;
  for (const DanglingOp &D : Dangling)
    Q.assign(D.FlatOp, D.Cycle, DanglingId--);

  // Critical-path heights over delays (resource-free).
  std::vector<int> Height(G.numNodes(), 0);
  std::vector<NodeId> Topo = G.topologicalOrder();
  for (auto It = Topo.rbegin(); It != Topo.rend(); ++It)
    for (uint32_t EIdx : G.succEdges(*It)) {
      const DepEdge &E = G.edges()[EIdx];
      Height[*It] = std::max(Height[*It], Height[E.To] + E.Delay);
    }

  // Greedy list scheduling in (height, id) priority order among ready
  // nodes.
  std::vector<bool> Scheduled(G.numNodes(), false);
  for (size_t Step = 0; Step < G.numNodes(); ++Step) {
    // Pick the ready node (all preds scheduled) with maximal height.
    NodeId Best = static_cast<NodeId>(G.numNodes());
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      if (Scheduled[N])
        continue;
      bool Ready = true;
      for (uint32_t EIdx : G.predEdges(N))
        Ready &= Scheduled[G.edges()[EIdx].From];
      if (!Ready)
        continue;
      if (Best == G.numNodes() || Height[N] > Height[Best])
        Best = N;
    }
    assert(Best < G.numNodes() && "acyclic graph must always have a ready "
                                  "node");

    int Estart = 0;
    for (uint32_t EIdx : G.predEdges(Best)) {
      const DepEdge &E = G.edges()[EIdx];
      Estart = std::max(Estart, Result.Time[E.From] + E.Delay);
    }

    const std::vector<OpId> &Alternatives = Groups[G.opOf(Best)];
    // An empty machine would loop forever; bound the scan generously.
    int Alt;
    int Cycle = Q.findSlot(Alternatives, Estart, 4097, Alt);
    if (Alt < 0)
      return Result; // Success stays false

    Q.assign(Alternatives[Alt], Cycle, static_cast<InstanceId>(Best));
    Result.Time[Best] = Cycle;
    Result.Alternative[Best] = Alt;
    Result.Length = std::max(Result.Length, Cycle + 1);
    Scheduled[Best] = true;
  }

  Result.Success = true;
  return Result;
}
