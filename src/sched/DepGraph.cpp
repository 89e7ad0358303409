//===- sched/DepGraph.cpp -------------------------------------------------===//

#include "sched/DepGraph.h"

#include <algorithm>

using namespace rmd;

NodeId DepGraph::addNode(OpId Op, std::string NodeName) {
  if (NodeName.empty())
    NodeName = "n" + std::to_string(Ops.size());
  Ops.push_back(Op);
  Names.push_back(std::move(NodeName));
  Succ.emplace_back();
  Pred.emplace_back();
  return static_cast<NodeId>(Ops.size() - 1);
}

void DepGraph::addEdge(NodeId From, NodeId To, int Delay, int Distance) {
  assert(From < Ops.size() && To < Ops.size() && "edge endpoint out of range");
  assert(Distance >= 0 && "negative dependence distance");
  uint32_t Index = static_cast<uint32_t>(Edges.size());
  Edges.push_back(DepEdge{From, To, Delay, Distance});
  Succ[From].push_back(Index);
  Pred[To].push_back(Index);
}

bool DepGraph::isAcyclic() const {
  for (const DepEdge &E : Edges)
    if (E.Distance != 0)
      return false;
  return topologicalOrder().size() == numNodes();
}

std::vector<NodeId> DepGraph::topologicalOrder() const {
  std::vector<uint32_t> InDegree(numNodes(), 0);
  for (const DepEdge &E : Edges)
    if (E.Distance == 0)
      ++InDegree[E.To];

  std::vector<NodeId> Order;
  Order.reserve(numNodes());
  std::vector<NodeId> Ready;
  for (NodeId N = 0; N < numNodes(); ++N)
    if (InDegree[N] == 0)
      Ready.push_back(N);
  // Pop the smallest id first for determinism.
  while (!Ready.empty()) {
    auto It = std::min_element(Ready.begin(), Ready.end());
    NodeId N = *It;
    Ready.erase(It);
    Order.push_back(N);
    for (uint32_t EIdx : Succ[N]) {
      const DepEdge &E = Edges[EIdx];
      if (E.Distance == 0 && --InDegree[E.To] == 0)
        Ready.push_back(E.To);
    }
  }
  return Order;
}

bool DepGraph::scheduleRespectsDependences(const std::vector<int> &Time,
                                           int II) const {
  assert(Time.size() == numNodes() && "time vector size mismatch");
  // In 64 bits: II * Distance can leave int range on large inputs.
  for (const DepEdge &E : Edges)
    if (Time[E.To] < static_cast<long long>(Time[E.From]) + E.Delay -
                         static_cast<long long>(II) * E.Distance)
      return false;
  return true;
}
