//===- tests/RecMIIOracleTest.cpp - Cycle raising vs binary search --------===//
//
// computeRecMIIChecked raises II cycle by cycle: probe, and while some
// dependence cycle is positive, jump to that cycle's ceil(Delay/Distance).
// It replaced a binary search of Bellman-Ford feasibility probes, which is
// kept here as the oracle. Both must agree on the value, and on the error
// code of every graph no II can schedule, over two Cydra 5 corpora and
// thousands of random graphs that include zero-distance cycles, negative
// delays, self loops and parallel edges.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "sched/MII.h"
#include "support/RNG.h"
#include "workload/Corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace rmd;

namespace {

/// The former feasibility probe: true if some cycle of \p G has positive
/// total weight under (Delay - II * Distance).
bool hasPositiveCycle(const DepGraph &G, int II) {
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

/// The former RecMII: a binary search of hasPositiveCycle over
/// [1, min(1 + sum of positive delays, INT_MAX / 2)]. Returns the value, or
/// -1 where it reported InfeasibleRecurrence.
int binarySearchRecMII(const DepGraph &G) {
  bool HasCarried = false;
  long long MaxDelaySum = 1;
  for (const DepEdge &E : G.edges()) {
    HasCarried |= E.Distance > 0;
    MaxDelaySum += std::max(0, E.Delay);
  }
  if (!HasCarried)
    return hasPositiveCycle(G, 1) ? -1 : 1;
  int Lo = 1;
  int Hi = static_cast<int>(
      std::min<long long>(MaxDelaySum, std::numeric_limits<int>::max() / 2));
  if (hasPositiveCycle(G, Hi))
    return -1;
  while (Lo < Hi) {
    int Mid = Lo + (Hi - Lo) / 2;
    if (hasPositiveCycle(G, Mid))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  return Lo;
}

/// Compares the two on \p G; returns false (after a gtest failure) on a
/// mismatch.
bool agrees(const DepGraph &G, const std::string &Label) {
  int Want = binarySearchRecMII(G);
  Expected<int> Got = computeRecMIIChecked(G);
  if (Want < 0) {
    EXPECT_FALSE(Got.hasValue()) << Label << ": oracle rejects, got "
                                 << Got.value();
    if (!Got.hasValue()) {
      EXPECT_EQ(Got.status().code(), ErrorCode::InfeasibleRecurrence)
          << Label;
    }
    return !Got.hasValue() &&
           Got.status().code() == ErrorCode::InfeasibleRecurrence;
  }
  EXPECT_TRUE(Got.hasValue()) << Label << ": oracle gives " << Want << ", got "
                              << Got.status().render();
  if (!Got.hasValue())
    return false;
  EXPECT_EQ(Got.value(), Want) << Label;
  return Got.value() == Want;
}

void checkCorpus(uint64_t Seed) {
  MachineModel Model = loadMachine("cydra5").take();
  CorpusParams Params;
  Params.Seed = Seed;
  std::vector<DepGraph> Corpus = buildCorpus(Model, Params);
  ASSERT_EQ(Corpus.size(), 1327u);
  size_t Mismatches = 0, Cyclic = 0;
  for (size_t I = 0; I < Corpus.size(); ++I) {
    Mismatches += !agrees(Corpus[I], "loop " + std::to_string(I));
    Cyclic += binarySearchRecMII(Corpus[I]) > 1;
  }
  EXPECT_EQ(Mismatches, 0u);
  // The corpus must exercise the raising loop, not only acyclic bodies.
  EXPECT_GT(Cyclic, 100u);
}

} // namespace

TEST(RecMIIOracle, MatchesBinarySearchOnDefaultCorpus) { checkCorpus(4903); }

TEST(RecMIIOracle, MatchesBinarySearchOnHeldOutCorpus) { checkCorpus(7919); }

TEST(RecMIIOracle, MatchesBinarySearchOnRandomGraphs) {
  RNG R(20260);
  size_t Mismatches = 0, Infeasible = 0, Raised = 0;
  for (int Trial = 0; Trial < 12000; ++Trial) {
    DepGraph G;
    size_t N = static_cast<size_t>(R.nextInRange(1, 9));
    for (size_t I = 0; I < N; ++I)
      G.addNode(0);
    size_t E = static_cast<size_t>(R.nextInRange(0, 3 * N));
    // Some trials use large delays and distances, so the ratios and the
    // raising steps span several orders of magnitude.
    bool Wide = R.nextChance(1, 8);
    for (size_t I = 0; I < E; ++I) {
      NodeId From = static_cast<NodeId>(R.nextBelow(N));
      NodeId To = static_cast<NodeId>(R.nextBelow(N));
      int Delay = static_cast<int>(Wide ? R.nextInRange(-50, 4095)
                                        : R.nextInRange(-3, 12));
      // Mostly distance 0, so zero-distance cycles appear regularly.
      int Distance = R.nextChance(3, 5)
                         ? 0
                         : static_cast<int>(Wide ? R.nextInRange(1, 4095)
                                                 : R.nextInRange(1, 3));
      G.addEdge(From, To, Delay, Distance);
    }
    int Want = binarySearchRecMII(G);
    Infeasible += Want < 0;
    Raised += Want > 1;
    Mismatches += !agrees(G, "trial " + std::to_string(Trial));
    if (Mismatches > 10)
      break;
  }
  EXPECT_EQ(Mismatches, 0u);
  // Both outcomes must be well represented for the comparison to mean
  // anything.
  EXPECT_GT(Infeasible, 1000u);
  EXPECT_GT(Raised, 1000u);
}

TEST(RecMIIOracle, RatioPastTheCapIsInfeasible) {
  // A carried cycle whose ratio exceeds INT_MAX / 2: the binary search
  // capped its range and rejected it; so must cycle raising, naming the
  // cycle.
  DepGraph G;
  NodeId A = G.addNode(0, "a");
  NodeId B = G.addNode(0, "b");
  NodeId C = G.addNode(0, "c");
  int Quarter = std::numeric_limits<int>::max() / 4;
  G.addEdge(A, B, Quarter);
  G.addEdge(B, C, Quarter);
  G.addEdge(C, A, Quarter, 1);
  EXPECT_LT(binarySearchRecMII(G), 0);
  Expected<int> Got = computeRecMIIChecked(G);
  ASSERT_FALSE(Got.hasValue());
  EXPECT_EQ(Got.status().code(), ErrorCode::InfeasibleRecurrence);
  const std::string &Message = Got.status().message();
  for (const char *Name : {"a ->", "b ->", "c ->", "distance 1",
                           "no initiation interval is feasible"})
    EXPECT_NE(Message.find(Name), std::string::npos) << Message;
}
