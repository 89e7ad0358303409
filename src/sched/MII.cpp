//===- sched/MII.cpp ------------------------------------------------------===//

#include "sched/MII.h"

#include "support/FatalError.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

using namespace rmd;

int rmd::computeResMII(const MachineDescription &MD, const DepGraph &G) {
  // Fractional per-resource load: an operation with A alternatives
  // contributes 1/A of each alternative's usages.
  std::vector<double> Load(MD.numResources(), 0.0);
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    const Operation &Op = MD.operation(G.opOf(N));
    double Share = 1.0 / static_cast<double>(Op.Alternatives.size());
    for (const ReservationTable &RT : Op.Alternatives)
      for (const ResourceUsage &U : RT.usages())
        Load[U.Resource] += Share;
  }
  double MaxLoad = 0;
  for (double L : Load)
    MaxLoad = std::max(MaxLoad, L);
  return std::max(1, static_cast<int>(std::ceil(MaxLoad - 1e-9)));
}

/// Renders node \p N for a diagnostic: its name when the graph has one,
/// "#<id>" otherwise.
static std::string nodeLabel(const DepGraph &G, NodeId N) {
  const std::string &Name = G.nodeName(N);
  return Name.empty() ? "#" + std::to_string(N) : Name;
}

namespace {

/// One dependence cycle, as its edges in path order, plus the relaxation
/// buffers that found it (reused from probe to probe).
struct DepCycle {
  std::vector<uint32_t> Edges;
  long long Delay = 0;
  long long Distance = 0;
  std::vector<long long> Dist;
  std::vector<uint32_t> Parent;
  std::vector<uint32_t> Seen;
};

constexpr uint32_t NoParent = std::numeric_limits<uint32_t>::max();

} // namespace

/// Bellman-Ford longest-path relaxation of \p G under weight
/// (Delay - II * Distance), from all nodes at once (distance 0 start).
/// Returns false when it converges: no dependence cycle is positive, so
/// II is feasible for the recurrences. Otherwise fills \p C with one
/// positive cycle. Every relaxation strictly lengthens a path, so any cycle
/// of parent edges is positive; after each pass the parent chain of the
/// last node relaxed is walked, and the first cycle it closes is taken.
/// Such a cycle exists at the latest on pass N, when the relaxation would
/// otherwise stop, and usually within a few passes.
static bool findPositiveCycle(const DepGraph &G, long long II, DepCycle &C) {
  size_t N = G.numNodes();
  const std::vector<DepEdge> &Edges = G.edges();
  C.Dist.assign(N, 0);
  C.Parent.assign(N, NoParent);
  C.Seen.assign(N, 0);
  for (uint32_t Pass = 1; Pass <= N + 1; ++Pass) {
    NodeId Touched = 0;
    bool Changed = false;
    for (uint32_t EIdx = 0; EIdx < Edges.size(); ++EIdx) {
      const DepEdge &E = Edges[EIdx];
      long long Candidate = C.Dist[E.From] + E.Delay - II * E.Distance;
      if (Candidate > C.Dist[E.To]) {
        C.Dist[E.To] = Candidate;
        C.Parent[E.To] = EIdx;
        Touched = E.To;
        Changed = true;
      }
    }
    if (!Changed)
      return false;

    // Walk back from Touched, stamping nodes with this pass; reaching a
    // stamped node closes a cycle, reaching a root ends the walk.
    NodeId X = Touched;
    while (C.Parent[X] != NoParent && C.Seen[X] != Pass) {
      C.Seen[X] = Pass;
      X = Edges[C.Parent[X]].From;
    }
    if (C.Parent[X] == NoParent)
      continue;

    C.Edges.clear();
    C.Delay = C.Distance = 0;
    NodeId V = X;
    do {
      C.Edges.push_back(C.Parent[V]);
      V = Edges[C.Parent[V]].From;
    } while (V != X);
    std::reverse(C.Edges.begin(), C.Edges.end());
    for (uint32_t EIdx : C.Edges) {
      C.Delay += Edges[EIdx].Delay;
      C.Distance += Edges[EIdx].Distance;
    }
    return true;
  }
  assert(false && "a relaxation on pass N leaves a parent cycle");
  return true;
}

/// Renders \p C as "a -> b -> a (total delay D, distance S)".
static std::string describeCycle(const DepGraph &G, const DepCycle &C) {
  std::string Path = nodeLabel(G, G.edges()[C.Edges.front()].From);
  for (uint32_t EIdx : C.Edges)
    Path += " -> " + nodeLabel(G, G.edges()[EIdx].To);
  return Path + " (total delay " + std::to_string(C.Delay) + ", distance " +
         std::to_string(C.Distance) + ")";
}

Expected<int> rmd::computeRecMIIChecked(const DepGraph &G) {
  // Cycle raising: probe II; while some cycle is positive, raise II to
  // that cycle's ceil(Delay / Distance). Every cycle needs at least its own
  // ratio, so II never passes RecMII, and it rises strictly each probe
  // (the cycle was positive at II): the first feasible probe is RecMII.
  // A positive cycle with distance 0 is positive at every II (not a valid
  // loop body). The cap keeps the II ceiling (MII + 128) within int; a
  // graph that needs an II past it is reported infeasible rather than
  // wrapped.
  constexpr long long Cap = std::numeric_limits<int>::max() / 2;
  long long II = 1;
  DepCycle C;
  while (findPositiveCycle(G, II, C)) {
    if (C.Distance == 0)
      return Status(ErrorCode::InfeasibleRecurrence,
                    "zero-distance positive-delay cycle: " +
                        describeCycle(G, C) +
                        "; no initiation interval is feasible");
    II = (C.Delay + C.Distance - 1) / C.Distance;
    if (II > Cap)
      return Status(ErrorCode::InfeasibleRecurrence,
                    "recurrence needs an initiation interval above " +
                        std::to_string(Cap) + ": " + describeCycle(G, C) +
                        "; no initiation interval is feasible");
  }
  return static_cast<int>(II);
}

int rmd::computeRecMII(const DepGraph &G) {
  Expected<int> RecMII = computeRecMIIChecked(G);
  if (!RecMII)
    fatalError(RecMII.status().render().c_str());
  return RecMII.value();
}

int rmd::computeMII(const MachineDescription &MD, const DepGraph &G) {
  return std::max(computeResMII(MD, G), computeRecMII(G));
}
