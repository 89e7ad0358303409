//===- tests/ImsGoldenTest.cpp - Pinned IMS outputs per priority kind -----===//
//
// The Iterative Modulo Scheduler's bookkeeping (operation selection,
// eviction, II feasibility) may be rewritten for speed, but every output
// must stay bit-identical: the II, each node's issue cycle and alternative,
// the decisions per attempt, both eviction counts, the checks issued per
// decision and the query-module WorkCounters. These tests pin a digest of
// those outputs over a slice of the Cydra 5 corpus for each
// SchedulePriority kind, the trace segments of a traced run, the partial
// placement of an interrupted attempt, and the exact schedule of a
// hand-built graph whose equal heights exercise the lowest-id tie-break
// and the re-selection of an evicted operation.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/DiscreteQuery.h"
#include "sched/IterativeModuloScheduler.h"
#include "support/FaultInjection.h"
#include "verify/QueryTrace.h"
#include "workload/Corpus.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace rmd;

namespace {

/// FNV-1a over a stream of integers.
struct Digest {
  uint64_t H = 0xcbf29ce484222325ULL;
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  void addBytes(const std::string &S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 0x100000001b3ULL;
    }
  }
};

void addResult(Digest &D, const ModuloScheduleResult &R) {
  D.add(static_cast<uint64_t>(R.Outcome));
  D.add(static_cast<uint64_t>(R.II));
  D.add(R.Time.size());
  for (int T : R.Time)
    D.add(static_cast<uint64_t>(static_cast<int64_t>(T)));
  for (int A : R.Alternative)
    D.add(static_cast<uint64_t>(static_cast<int64_t>(A)));
  D.add(R.Stats.DecisionsPerAttempt.size());
  for (uint64_t N : R.Stats.DecisionsPerAttempt)
    D.add(N);
  D.add(R.Stats.EvictedByResource);
  D.add(R.Stats.EvictedByDependence);
  D.add(R.Stats.AssignFreeCallsWithEviction);
  D.add(R.Stats.ChecksPerDecision.size());
  for (uint32_t C : R.Stats.ChecksPerDecision)
    D.add(C);
  const WorkCounters &W = R.Counters;
  for (uint64_t V : {W.CheckCalls, W.CheckUnits, W.AssignCalls, W.AssignUnits,
                     W.FreeCalls, W.FreeUnits, W.AssignFreeCalls,
                     W.AssignFreeUnits, W.TransitionUnits})
    D.add(V);
}

/// The Cydra 5, its expansion and every third loop of the default corpus.
struct CydraSlice {
  MachineModel Model = loadMachine("cydra5").take();
  ExpandedMachine EM = expandAlternatives(Model.MD);
  std::vector<DepGraph> Loops;

  CydraSlice() {
    std::vector<DepGraph> Corpus = buildCorpus(Model);
    for (size_t I = 0; I < Corpus.size(); I += 3)
      Loops.push_back(std::move(Corpus[I]));
  }

  QueryEnvironment env() const {
    QueryEnvironment Env;
    Env.FlatMD = &EM.Flat;
    Env.Groups = &EM.Groups;
    const MachineDescription *Flat = &EM.Flat;
    Env.MakeModule = [Flat](QueryConfig C) {
      return std::unique_ptr<ContentionQueryModule>(
          new DiscreteQueryModule(*Flat, C));
    };
    return Env;
  }
};

const CydraSlice &cydra() {
  static const CydraSlice S;
  return S;
}

struct SliceTotals {
  uint64_t Digest = 0;
  uint64_t EvictedByResource = 0;
  uint64_t EvictedByDependence = 0;
  uint64_t Attempts = 0;
};

SliceTotals scheduleSlice(SchedulePriority Kind) {
  const CydraSlice &C = cydra();
  QueryEnvironment Env = C.env();
  ModuloScheduleOptions Options;
  Options.Priority = Kind;
  Digest D;
  SliceTotals T;
  for (const DepGraph &G : C.Loops) {
    ModuloScheduleResult R = moduloSchedule(G, C.Model.MD, Env, Options);
    // Depth and SourceOrder hit the II ceiling on some loops; the
    // outcome is part of the digest.
    if (Kind == SchedulePriority::Height) {
      EXPECT_TRUE(R.Success) << G.name();
    }
    addResult(D, R);
    T.EvictedByResource += R.Stats.EvictedByResource;
    T.EvictedByDependence += R.Stats.EvictedByDependence;
    T.Attempts += R.Stats.DecisionsPerAttempt.size();
  }
  T.Digest = D.H;
  return T;
}

} // namespace

TEST(ImsGolden, CorpusSliceHeightPriority) {
  SliceTotals T = scheduleSlice(SchedulePriority::Height);
  EXPECT_GT(T.EvictedByResource, 0u);
  EXPECT_GT(T.EvictedByDependence, 0u);
  EXPECT_GT(T.Attempts, cydra().Loops.size()) << "no II escalation covered";
  EXPECT_EQ(T.Digest, 0x66fbb259f50cb6daULL) << std::hex << "digest 0x" << T.Digest;
}

TEST(ImsGolden, CorpusSliceDepthPriority) {
  SliceTotals T = scheduleSlice(SchedulePriority::Depth);
  EXPECT_GT(T.EvictedByResource, 0u);
  EXPECT_GT(T.EvictedByDependence, 0u);
  EXPECT_EQ(T.Digest, 0x0180659af0d6205fULL) << std::hex << "digest 0x" << T.Digest;
}

TEST(ImsGolden, CorpusSliceSourceOrderPriority) {
  SliceTotals T = scheduleSlice(SchedulePriority::SourceOrder);
  EXPECT_GT(T.EvictedByResource, 0u);
  EXPECT_GT(T.EvictedByDependence, 0u);
  EXPECT_EQ(T.Digest, 0x75e0b3ff2170b1dfULL) << std::hex << "digest 0x" << T.Digest;
}

TEST(ImsGolden, TraceSegments) {
  // Every query-module call of every II attempt, serialized.
  const CydraSlice &C = cydra();
  QueryEnvironment Env = C.env();
  Digest D;
  size_t Segments = 0;
  for (size_t I = 0; I < C.Loops.size(); I += 8) {
    QueryTraceLog Log;
    ModuloScheduleOptions Options;
    Options.TraceLog = &Log;
    ModuloScheduleResult R = moduloSchedule(C.Loops[I], C.Model.MD, Env,
                                            Options);
    ASSERT_TRUE(R.Success);
    EXPECT_LE(Log.Segments.size(), R.Stats.DecisionsPerAttempt.size());
    Segments += Log.Segments.size();
    std::ostringstream OS;
    Log.serialize(OS);
    D.addBytes(OS.str());
  }
  EXPECT_GT(Segments, 0u);
  EXPECT_EQ(D.H, 0xe00eac2a7bdaa347ULL) << std::hex << "digest 0x" << D.H;
}

TEST(ImsGolden, InterruptedPartialPlacement) {
  // The deadline fires at a fixed decision of a fixed attempt, so the
  // best-so-far placement (unplaced nodes at Alternative -1) is pinned.
  const CydraSlice &C = cydra();
  QueryEnvironment Env = C.env();
  Digest D;
  size_t Partial = 0;
  for (size_t I = 0; I < C.Loops.size(); I += 16) {
    const DepGraph &G = C.Loops[I];
    FaultInjection::instance().reset();
    std::string Spec = std::string(faultpoints::SchedDeadline) + ":" +
                       std::to_string(G.numNodes() + 2);
    ASSERT_TRUE(FaultInjection::instance().configure(Spec).isOk());
    ModuloScheduleResult R = moduloSchedule(G, C.Model.MD, Env);
    FaultInjection::instance().reset();
    if (R.Outcome == ScheduleOutcome::TimedOut)
      for (int A : R.Alternative)
        Partial += A < 0;
    addResult(D, R);
  }
  EXPECT_GT(Partial, 0u) << "no attempt was interrupted mid-placement";
  EXPECT_EQ(D.H, 0xeed461d27dec0e8cULL) << std::hex << "digest 0x" << D.H;
}

TEST(ImsGolden, EqualHeightsTieBreakAndEvictionReselection) {
  // One resource r. `s` holds r for cycle 0; `l` holds it at cycles 0 and
  // 2. Three independent nodes s0, s1, l2 have equal heights (0), so they
  // are picked by lowest id. At ResMII = 4, s0 takes slot 0 and s1 slot 1;
  // l2 then needs two free slots t, t+2 (mod 4), which no window position
  // offers, so it is forced at Estart 0 and evicts s0. s0 is re-selected
  // and lands in the only free slot, 3. Each decision's check count is
  // the number of window slots probed.
  MachineDescription MD("tiebreak");
  ResourceId Res = MD.addResource("r");
  ReservationTable Short;
  Short.addUsage(Res, 0);
  ReservationTable Long;
  Long.addUsage(Res, 0);
  Long.addUsage(Res, 2);
  OpId S = MD.addOperation("s", Short);
  OpId L = MD.addOperation("l", Long);
  ExpandedMachine EM = expandAlternatives(MD);
  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&EM](QueryConfig Config) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, Config));
  };

  DepGraph G("tiebreak");
  G.addNode(S, "s0");
  G.addNode(S, "s1");
  G.addNode(L, "l2");
  for (SchedulePriority Kind :
       {SchedulePriority::Height, SchedulePriority::Depth}) {
    ModuloScheduleOptions Options;
    Options.Priority = Kind;
    ModuloScheduleResult R = moduloSchedule(G, MD, Env, Options);
    ASSERT_TRUE(R.Success);
    EXPECT_EQ(R.II, 4);
    EXPECT_EQ(R.Time, (std::vector<int>{3, 1, 0}));
    EXPECT_EQ(R.Stats.DecisionsPerAttempt, (std::vector<uint64_t>{4}));
    EXPECT_EQ(R.Stats.EvictedByResource, 1u);
    EXPECT_EQ(R.Stats.EvictedByDependence, 0u);
    EXPECT_EQ(R.Stats.ChecksPerDecision, (std::vector<uint32_t>{1, 2, 4, 4}));
  }

  // A dependence s1 -> s0 (delay 1) lifts s1 above the others (Height 1),
  // so s1 takes slot 0 and s0 its Estart, 1. l2 is forced at 0 and evicts
  // s1, which is re-selected first and lands at 3; that violates s1 -> s0,
  // so s0 is evicted by dependence and re-placed at Estart 4 + 1 = 5.
  DepGraph H("tiebreak-dep");
  H.addNode(S, "s0");
  H.addNode(S, "s1");
  H.addNode(L, "l2");
  H.addEdge(1, 0, 1);
  ModuloScheduleResult R = moduloSchedule(H, MD, Env);
  ASSERT_TRUE(R.Success);
  EXPECT_EQ(R.II, 4);
  EXPECT_EQ(R.Time, (std::vector<int>{5, 3, 0}));
  EXPECT_EQ(R.Stats.DecisionsPerAttempt, (std::vector<uint64_t>{5}));
  EXPECT_EQ(R.Stats.EvictedByResource, 1u);
  EXPECT_EQ(R.Stats.EvictedByDependence, 1u);
  EXPECT_EQ(R.Stats.ChecksPerDecision,
            (std::vector<uint32_t>{1, 1, 4, 4, 2}));
}
