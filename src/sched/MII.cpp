//===- sched/MII.cpp ------------------------------------------------------===//

#include "sched/MII.h"

#include "support/FatalError.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
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

/// True if some dependence cycle of \p G has positive total weight under
/// (Delay - II * Distance): i.e. II is infeasible for the recurrences.
static bool hasPositiveCycle(const DepGraph &G, int II) {
  // Bellman-Ford longest-path relaxation from all nodes simultaneously
  // (distance 0 start); a relaxation succeeding on pass N implies a
  // positive cycle.
  size_t N = G.numNodes();
  std::vector<long long> Dist(N, 0);
  for (size_t Pass = 0; Pass <= N; ++Pass) {
    bool Changed = false;
    for (const DepEdge &E : G.edges()) {
      long long W = E.Delay - static_cast<long long>(II) * E.Distance;
      if (Dist[E.From] + W > Dist[E.To]) {
        Dist[E.To] = Dist[E.From] + W;
        Changed = true;
      }
    }
    if (!Changed)
      return false;
  }
  return true;
}

/// Renders node \p N for a diagnostic: its name when the graph has one,
/// "#<id>" otherwise.
static std::string nodeLabel(const DepGraph &G, NodeId N) {
  const std::string &Name = G.nodeName(N);
  return Name.empty() ? "#" + std::to_string(N) : Name;
}

/// Extracts one positive cycle of \p G under weight (Delay - II*Distance),
/// assuming hasPositiveCycle(G, II). Renders it as
/// "a -> b -> a (total delay D, distance 0)".
static std::string describePositiveCycle(const DepGraph &G, int II) {
  size_t N = G.numNodes();
  std::vector<long long> Dist(N, 0);
  std::vector<int32_t> Parent(N, -1);
  // N full passes leave every node that keeps relaxing with a Parent chain
  // that must contain a positive cycle.
  NodeId Touched = N;
  for (size_t Pass = 0; Pass <= N; ++Pass)
    for (uint32_t EIdx = 0; EIdx < G.numEdges(); ++EIdx) {
      const DepEdge &E = G.edges()[EIdx];
      long long W = E.Delay - static_cast<long long>(II) * E.Distance;
      if (Dist[E.From] + W > Dist[E.To]) {
        Dist[E.To] = Dist[E.From] + W;
        Parent[E.To] = static_cast<int32_t>(EIdx);
        Touched = E.To;
      }
    }
  if (Touched == N)
    return "(cycle extraction failed)"; // unreachable given the caller

  // Walk N parent steps to land inside the cycle, then collect it.
  NodeId X = Touched;
  for (size_t I = 0; I < N; ++I)
    X = G.edges()[static_cast<uint32_t>(Parent[X])].From;
  std::vector<uint32_t> CycleEdges;
  NodeId V = X;
  do {
    uint32_t EIdx = static_cast<uint32_t>(Parent[V]);
    CycleEdges.push_back(EIdx);
    V = G.edges()[EIdx].From;
  } while (V != X);
  std::reverse(CycleEdges.begin(), CycleEdges.end());

  long long DelaySum = 0, DistanceSum = 0;
  std::string Path = nodeLabel(G, X);
  for (uint32_t EIdx : CycleEdges) {
    const DepEdge &E = G.edges()[EIdx];
    DelaySum += E.Delay;
    DistanceSum += E.Distance;
    Path += " -> " + nodeLabel(G, E.To);
  }
  return Path + " (total delay " + std::to_string(DelaySum) + ", distance " +
         std::to_string(DistanceSum) + ")";
}

Expected<int> rmd::computeRecMIIChecked(const DepGraph &G) {
  bool HasCarried = false;
  long long MaxDelaySum = 1;
  for (const DepEdge &E : G.edges()) {
    HasCarried |= E.Distance > 0;
    MaxDelaySum += std::max(0, E.Delay);
  }
  if (!HasCarried) {
    // No carried dependence: RecMII is 1 — unless the "loop body" has a
    // zero-distance cycle, which no II fixes (a positive zero-distance
    // cycle has positive weight at every II; probe at II = 1).
    if (hasPositiveCycle(G, 1))
      return Status(ErrorCode::InfeasibleRecurrence,
                    "zero-distance positive-delay cycle: " +
                        describePositiveCycle(G, 1) +
                        "; no initiation interval is feasible");
    return 1;
  }

  // Feasibility is monotone in II; binary search the smallest feasible II.
  // A graph with a positive-delay cycle at distance 0 has no feasible II at
  // all (it is not a valid loop body): at II = MaxDelaySum every
  // distance-carrying cycle is already far negative, so a surviving
  // positive cycle is zero-distance.
  // Capped so the II ceiling (MII + 128) stays within int; a graph that
  // needs an II past the cap is reported infeasible rather than wrapped.
  int Lo = 1;
  int Hi = static_cast<int>(
      std::min<long long>(MaxDelaySum, std::numeric_limits<int>::max() / 2));
  if (hasPositiveCycle(G, Hi))
    return Status(ErrorCode::InfeasibleRecurrence,
                  "zero-distance positive-delay cycle: " +
                      describePositiveCycle(G, Hi) +
                      "; no initiation interval is feasible");
  while (Lo < Hi) {
    int Mid = Lo + (Hi - Lo) / 2;
    if (hasPositiveCycle(G, Mid))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
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
