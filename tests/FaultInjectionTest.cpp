//===- tests/FaultInjectionTest.cpp - Fault sweep & degradation ladder ----===//
//
// The robustness contract of the recoverable-error layer: with any
// registered fault point armed — alone or in pairs — the pipeline either
// recovers (producing a schedule *identical* to the fault-free one) or
// fails with a clean structured error. Nothing aborts; that is asserted by
// these tests running to completion in-process.
//
// The identity half leans on the paper's Theorem 1: every reduce/cache
// fault degrades to scheduling against the original description, whose
// forbidden-latency matrix is exactly the reduced one's, so the scheduler
// makes bit-identical decisions.
//
//===----------------------------------------------------------------------===//

#include "automaton/AutomatonQuery.h"
#include "mdl/Parser.h"
#include "query/DiscreteQuery.h"
#include "reduce/ReductionCache.h"
#include "sched/IterativeModuloScheduler.h"
#include "sched/MII.h"
#include "sched/OperationDrivenScheduler.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/Deadline.h"
#include "support/Degradation.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <unistd.h>

using namespace rmd;

namespace {

/// The paper's Figure 1 machine, via the parser so the mdl.parse fault
/// point sits on the harness path.
const char *Fig1Mdl = R"(machine fig1 {
  resources r0, r1, r2, r3, r4;
  operation A { r0 at 0; r1 at 1; r2 at 2; }
  operation B { r1 at 0; r2 at 1; r3 at 2 .. 5; r4 at 6 .. 7; }
}
)";

/// Everything one end-to-end run can end as. Abort-free by construction:
/// the harness returns one of these for every armed fault combination.
struct PipelineOutcome {
  bool ParseFailed = false;   ///< parseMdl reported an error (clean)
  bool Degraded = false;      ///< reduce fell back to the original
  ModuloScheduleResult R;     ///< scheduling result (when parse succeeded)
  /// The in-process server round-trip: ok, or the structured error the
  /// client saw. Never an abort, never a hang (the client arms a recv
  /// timeout, so a request that is never answered ends TimedOut).
  Status ServerStatus;
  bool ServerLeakedSessions = false; ///< sessions outlived their teardown
};

std::string uniqueFaultSocket() {
  static std::atomic<int> Counter{0};
  return "@rmd-fault-" + std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1));
}

/// One client round-trip against a fresh in-process server: load fig1,
/// open a session, run a small batch, close. Puts server.accept,
/// server.enqueue, and server.session_alloc on the sweep path; every
/// armed-fault outcome must be a structured Status, and no session may
/// survive the teardown.
void runServerRoundTrip(PipelineOutcome &Out) {
  using namespace rmd::server;
  using namespace rmd::wire;

  ServerOptions Options;
  Options.SocketPath = uniqueFaultSocket();
  Options.Workers = 1;
  Options.QueueCapacity = 4;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  if (!Server) {
    Out.ServerStatus = Server.status();
    return;
  }

  Out.ServerStatus = [&]() -> Status {
    Expected<std::unique_ptr<RmdClient>> Client =
        RmdClient::connect(Server.value()->socketPath(),
                           /*RecvTimeoutMs=*/2000);
    if (!Client)
      return Client.status();
    RmdClient &C = *Client.value();
    Expected<LoadMachineReply> M = C.loadMachine("fig1");
    if (!M)
      return M.status();
    OpenSessionRequest OpenReq;
    OpenReq.MachineId = M.value().MachineId;
    Expected<OpenSessionReply> Open = C.openSession(OpenReq);
    if (!Open)
      return Open.status();
    BatchRequest Batch;
    Batch.SessionId = Open.value().SessionId;
    Batch.Events.push_back({Verb::Check, 0, 0, 0});
    Batch.Events.push_back({Verb::CheckAssign, 0, 0, 1});
    Batch.Events.push_back({Verb::Reset, 0, 0, 0});
    Expected<BatchReply> R = C.runBatch(Batch);
    if (!R)
      return R.status();
    return C.closeSession(Open.value().SessionId);
  }();

  Server.value()->stop();
  Out.ServerLeakedSessions = Server.value()->sessionCount() != 0;
}

/// Parse -> expand -> reduce (through a cache in \p CacheDir, verified,
/// two threads) -> modulo-schedule a 3-node loop. Also touches the
/// automaton rung so automaton.cap is on the path.
PipelineOutcome runPipeline(const std::string &CacheDir) {
  PipelineOutcome Out;

  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  if (!MD) {
    Out.ParseFailed = true;
    return Out;
  }

  ExpandedMachine EM = expandAlternatives(*MD);
  ReductionOptions Options;
  Options.Threads = 2;
  ReductionCache Cache(CacheDir);
  SafeReduction Safe = reduceMachineOrFallback(EM.Flat, Options, &Cache);
  Out.Degraded = Safe.Degraded;
  const MachineDescription &Reduced = Safe.Result.Reduced;

  // Automaton rung: build (or fall back) and answer one query, asserting
  // the fallback answers it exactly like a discrete module would.
  std::unique_ptr<ContentionQueryModule> Auto =
      makeAutomatonOrFallback(Reduced, /*Horizon=*/32);
  DiscreteQueryModule Ref(Reduced, QueryConfig::linear(0));
  EXPECT_EQ(Auto->check(0, 0), Ref.check(0, 0));

  // A small loop with a carried recurrence: A -> B -> A(next iteration).
  DepGraph G("loop");
  NodeId N0 = G.addNode(0, "a0");
  NodeId N1 = G.addNode(1, "b0");
  NodeId N2 = G.addNode(0, "a1");
  G.addEdge(N0, N1, 1);
  G.addEdge(N1, N2, 1);
  G.addEdge(N2, N0, 1, /*Distance=*/1);

  QueryEnvironment Env;
  Env.FlatMD = &Reduced;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&Reduced](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(Reduced, C));
  };
  Out.R = moduloSchedule(G, *MD, Env, {});

  runServerRoundTrip(Out);
  return Out;
}

/// Asserts \p Got is a recovery (schedule identical to \p Baseline) or a
/// clean structured error — never anything in between.
void expectRecoveryOrCleanError(const PipelineOutcome &Got,
                                const PipelineOutcome &Baseline,
                                const std::string &Spec) {
  // The server rungs: whatever the fault did to the round-trip, the
  // client saw either success or a structured error (a Status with a
  // nonzero code — never a hang past its timeout, and the harness
  // completing at all rules out an abort), and teardown closed every
  // session.
  EXPECT_FALSE(Got.ServerLeakedSessions) << Spec;
  if (!Got.ServerStatus.isOk()) {
    EXPECT_FALSE(Got.ServerStatus.message().empty())
        << Spec << ": structured errors carry a message";
  }

  if (Got.ParseFailed)
    return; // the mdl.parse rung: a clean diagnostic, nothing scheduled
  if (Got.R.Outcome == ScheduleOutcome::TimedOut ||
      Got.R.Outcome == ScheduleOutcome::Cancelled) {
    // The sched.deadline rung: a structured error plus a sane partial
    // placement (unplaced nodes marked, placed nodes within bounds).
    EXPECT_FALSE(Got.R.Error.isOk()) << Spec;
    ASSERT_EQ(Got.R.Alternative.size(), Baseline.R.Alternative.size());
    for (int A : Got.R.Alternative)
      EXPECT_GE(A, -1) << Spec;
    return;
  }
  // Every other rung recovers completely: same schedule, decision for
  // decision, as the fault-free run (Theorem 1 for the reduce/cache rungs).
  ASSERT_TRUE(Got.R.Success) << Spec << ": " << Got.R.Error.render();
  EXPECT_EQ(Got.R.II, Baseline.R.II) << Spec;
  EXPECT_EQ(Got.R.Time, Baseline.R.Time) << Spec;
  EXPECT_EQ(Got.R.Alternative, Baseline.R.Alternative) << Spec;
}

class FaultInjectionTest : public ::testing::Test {
protected:
  void SetUp() override {
    FaultInjection::instance().reset();
    Dir = ::testing::TempDir() + "/rmd-fault-test-" +
          ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(Dir);
  }
  void TearDown() override {
    FaultInjection::instance().reset();
    std::filesystem::remove_all(Dir);
  }
  std::string Dir;
};

} // namespace

//===----------------------------------------------------------------------===//
// Spec grammar
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, EmptySpecDisarms) {
  FaultInjection &FI = FaultInjection::instance();
  ASSERT_TRUE(FI.configure("cache.read").isOk());
  EXPECT_TRUE(FI.armed());
  ASSERT_TRUE(FI.configure("").isOk());
  EXPECT_FALSE(FI.armed());
  EXPECT_FALSE(FaultInjection::fire(faultpoints::CacheRead));
}

TEST_F(FaultInjectionTest, UnknownPointRejected) {
  Status S = FaultInjection::instance().configure("no.such.point");
  ASSERT_FALSE(S.isOk());
  EXPECT_EQ(S.code(), ErrorCode::ParseError);
  EXPECT_NE(S.message().find("no.such.point"), std::string::npos);
  EXPECT_FALSE(FaultInjection::instance().armed());
}

TEST_F(FaultInjectionTest, MalformedEntriesRejected) {
  FaultInjection &FI = FaultInjection::instance();
  EXPECT_EQ(FI.configure("cache.read:0").code(), ErrorCode::ParseError);
  EXPECT_EQ(FI.configure("cache.read:x").code(), ErrorCode::ParseError);
  EXPECT_EQ(FI.configure("cache.read%101").code(), ErrorCode::ParseError);
  EXPECT_EQ(FI.configure("seed=abc").code(), ErrorCode::ParseError);
  EXPECT_FALSE(FI.armed());
}

TEST_F(FaultInjectionTest, NthHitFiresExactlyOnce) {
  FaultInjection &FI = FaultInjection::instance();
  ASSERT_TRUE(FI.configure("reduce.verify:2").isOk());
  EXPECT_FALSE(FaultInjection::fire(faultpoints::ReduceVerify));
  EXPECT_TRUE(FaultInjection::fire(faultpoints::ReduceVerify));
  EXPECT_FALSE(FaultInjection::fire(faultpoints::ReduceVerify));
  EXPECT_EQ(FI.hits(faultpoints::ReduceVerify), 3u);
  EXPECT_EQ(FI.fired(faultpoints::ReduceVerify), 1u);
}

TEST_F(FaultInjectionTest, FromNthHitFiresOnward) {
  FaultInjection &FI = FaultInjection::instance();
  ASSERT_TRUE(FI.configure("cache.write:2+").isOk());
  EXPECT_FALSE(FaultInjection::fire(faultpoints::CacheWrite));
  EXPECT_TRUE(FaultInjection::fire(faultpoints::CacheWrite));
  EXPECT_TRUE(FaultInjection::fire(faultpoints::CacheWrite));
  EXPECT_EQ(FI.fired(faultpoints::CacheWrite), 2u);
}

TEST_F(FaultInjectionTest, StarArmsEveryPoint) {
  FaultInjection &FI = FaultInjection::instance();
  ASSERT_TRUE(FI.configure("*").isOk());
  for (const char *Point : FaultInjection::registeredPoints())
    EXPECT_TRUE(FaultInjection::fire(Point)) << Point;
}

TEST_F(FaultInjectionTest, PercentIsDeterministicInSeed) {
  FaultInjection &FI = FaultInjection::instance();
  auto Run = [&FI](const char *Spec) {
    FI.reset();
    EXPECT_TRUE(FI.configure(Spec).isOk());
    std::vector<bool> Pattern;
    for (int I = 0; I < 64; ++I)
      Pattern.push_back(FaultInjection::fire(faultpoints::CacheRead));
    return Pattern;
  };
  std::vector<bool> A = Run("seed=7,cache.read%40");
  std::vector<bool> B = Run("seed=7,cache.read%40");
  std::vector<bool> C = Run("seed=8,cache.read%40");
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C); // one in 2^64-ish to collide; a fixed seed keeps it stable

  // ~40% over 64 hits, loosely: the mix is good, not exact.
  size_t Fired = 0;
  for (bool F : A)
    Fired += F;
  EXPECT_GT(Fired, 10u);
  EXPECT_LT(Fired, 54u);
}

TEST_F(FaultInjectionTest, DisarmedFireCountsNothing) {
  FaultInjection &FI = FaultInjection::instance();
  EXPECT_FALSE(FaultInjection::fire(faultpoints::MdlParse));
  EXPECT_EQ(FI.hits(faultpoints::MdlParse), 0u);
}

TEST_F(FaultInjectionTest, DisarmedHitsDoNotShiftLaterOrdinals) {
  // fire() while disarmed neither counts the hit nor consumes an ordinal,
  // so a trigger armed afterwards counts from its own first hit.
  FaultInjection &FI = FaultInjection::instance();
  for (int I = 0; I < 100000; ++I)
    ASSERT_FALSE(FaultInjection::fire(faultpoints::SchedDeadline));
  EXPECT_EQ(FI.hits(faultpoints::SchedDeadline), 0u);
  ASSERT_TRUE(FI.configure("sched.deadline:3").isOk());
  EXPECT_FALSE(FaultInjection::fire(faultpoints::SchedDeadline));
  EXPECT_FALSE(FaultInjection::fire(faultpoints::SchedDeadline));
  EXPECT_TRUE(FaultInjection::fire(faultpoints::SchedDeadline));
  EXPECT_FALSE(FaultInjection::fire(faultpoints::SchedDeadline));
  EXPECT_EQ(FI.hits(faultpoints::SchedDeadline), 4u);
  EXPECT_EQ(FI.fired(faultpoints::SchedDeadline), 1u);
}

//===----------------------------------------------------------------------===//
// Per-point sweep and pairwise combinations
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, EveryPointAloneRecoversOrFailsCleanly) {
  PipelineOutcome Baseline = runPipeline(Dir + "/base");
  ASSERT_TRUE(Baseline.R.Success);
  ASSERT_FALSE(Baseline.Degraded);
  ASSERT_TRUE(Baseline.ServerStatus.isOk()) << Baseline.ServerStatus.render();

  for (const char *Point : FaultInjection::registeredPoints()) {
    std::string PointDir = Dir + "/" + Point;
    FaultInjection &FI = FaultInjection::instance();
    FI.reset();
    ASSERT_TRUE(FI.configure(Point).isOk());
    // Twice on the same fresh cache: the first run exercises the miss /
    // store path under fault, the second the hit / load path (when the
    // first one managed to populate an entry at all).
    expectRecoveryOrCleanError(runPipeline(PointDir), Baseline, Point);
    expectRecoveryOrCleanError(runPipeline(PointDir), Baseline, Point);
    EXPECT_GT(FI.hits(Point), 0u) << Point << " never reached";
    FI.reset();
  }
}

TEST_F(FaultInjectionTest, PairwiseCombinationsNeverAbort) {
  PipelineOutcome Baseline = runPipeline(Dir + "/base");
  ASSERT_TRUE(Baseline.R.Success);

  const std::vector<const char *> &Points =
      FaultInjection::registeredPoints();
  for (size_t I = 0; I < Points.size(); ++I)
    for (size_t J = I + 1; J < Points.size(); ++J) {
      std::string Spec = std::string(Points[I]) + "," + Points[J];
      FaultInjection &FI = FaultInjection::instance();
      FI.reset();
      ASSERT_TRUE(FI.configure(Spec).isOk());
      PipelineOutcome Got = runPipeline(Dir + "/" + std::to_string(I) +
                                        "-" + std::to_string(J));
      expectRecoveryOrCleanError(Got, Baseline, Spec);
      FI.reset();
    }
}

//===----------------------------------------------------------------------===//
// Degradation identity: faulted schedules == unreduced-description schedules
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, ReduceFaultScheduleIdenticalToUnreduced) {
  // The degraded pipeline schedules against the original description; do
  // that directly (no reduction at all) and require the very same result.
  ASSERT_TRUE(
      FaultInjection::instance().configure(faultpoints::ReduceVerify).isOk());
  PipelineOutcome Degraded = runPipeline(Dir + "/deg");
  FaultInjection::instance().reset();
  EXPECT_TRUE(Degraded.Degraded);
  ASSERT_TRUE(Degraded.R.Success);

  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  ASSERT_TRUE(MD.has_value());
  ExpandedMachine EM = expandAlternatives(*MD);

  DepGraph G("loop");
  NodeId N0 = G.addNode(0, "a0");
  NodeId N1 = G.addNode(1, "b0");
  NodeId N2 = G.addNode(0, "a1");
  G.addEdge(N0, N1, 1);
  G.addEdge(N1, N2, 1);
  G.addEdge(N2, N0, 1, /*Distance=*/1);

  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&EM](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, C));
  };
  ModuloScheduleResult Unreduced = moduloSchedule(G, *MD, Env, {});
  ASSERT_TRUE(Unreduced.Success);

  EXPECT_EQ(Degraded.R.II, Unreduced.II);
  EXPECT_EQ(Degraded.R.Time, Unreduced.Time);
  EXPECT_EQ(Degraded.R.Alternative, Unreduced.Alternative);
}

TEST_F(FaultInjectionTest, CacheFaultScheduleIdenticalToFaultFree) {
  PipelineOutcome Baseline = runPipeline(Dir); // also warms the cache
  ASSERT_TRUE(Baseline.R.Success);

  // Every cache read rejects the (warm, valid) entry: recompute + reschedule
  // must reproduce the schedule exactly, and each rejection is counted.
  DegradationCounters Before = globalDegradation().snapshot();
  ASSERT_TRUE(
      FaultInjection::instance().configure(faultpoints::CacheRead).isOk());
  PipelineOutcome Got = runPipeline(Dir);
  FaultInjection::instance().reset();

  EXPECT_FALSE(Got.Degraded); // recovered, not degraded: recompute succeeded
  ASSERT_TRUE(Got.R.Success);
  EXPECT_EQ(Got.R.II, Baseline.R.II);
  EXPECT_EQ(Got.R.Time, Baseline.R.Time);
  EXPECT_EQ(Got.R.Alternative, Baseline.R.Alternative);
  EXPECT_GT(globalDegradation().snapshot().CacheRecoveries,
            Before.CacheRecoveries);
}

//===----------------------------------------------------------------------===//
// The individual rungs
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, ThreadPoolCapturesAndRethrows) {
  ThreadPool Pool(4);
  EXPECT_THROW(
      Pool.parallelFor(0, 1000,
                       [](size_t Begin, size_t) {
                         if (Begin == 0)
                           throw std::runtime_error("boom");
                       }),
      std::runtime_error);

  // The pool survives: the next call runs every index exactly once.
  std::vector<int> Seen(1000, 0);
  Pool.parallelFor(0, Seen.size(), [&Seen](size_t B, size_t E) {
    for (size_t I = B; I < E; ++I)
      ++Seen[I];
  });
  for (int S : Seen)
    ASSERT_EQ(S, 1);
}

TEST_F(FaultInjectionTest, WorkerFaultBecomesStructuredError) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  ASSERT_TRUE(MD.has_value());
  MachineDescription Flat = expandAlternatives(*MD).Flat;

  ASSERT_TRUE(FaultInjection::instance()
                  .configure(faultpoints::ThreadPoolTask)
                  .isOk());
  ReductionOptions Options;
  Options.Threads = 2;
  Expected<ReductionResult> R = reduceMachineChecked(Flat, Options);
  FaultInjection::instance().reset();
  ASSERT_FALSE(R.hasValue());
  EXPECT_EQ(R.status().code(), ErrorCode::WorkerFailed);
  EXPECT_NE(R.status().message().find("threadpool.task"), std::string::npos);
}

TEST_F(FaultInjectionTest, AutomatonCapFallsBackToBitvector) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  ASSERT_TRUE(MD.has_value());
  MachineDescription Flat = expandAlternatives(*MD).Flat;

  ASSERT_TRUE(FaultInjection::instance()
                  .configure(faultpoints::AutomatonCap)
                  .isOk());
  Status Why;
  std::unique_ptr<ContentionQueryModule> Q =
      makeAutomatonOrFallback(Flat, 32, (1u << 22), &Why);
  FaultInjection::instance().reset();
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Why.code(), ErrorCode::StateCapExceeded);

  // The fallback answers queries exactly like a reference discrete module.
  DiscreteQueryModule Ref(Flat, QueryConfig::linear(0));
  for (OpId Op = 0; Op < Flat.numOperations(); ++Op)
    for (int Cycle = 0; Cycle < 8; ++Cycle)
      EXPECT_EQ(Q->check(Op, Cycle), Ref.check(Op, Cycle))
          << "op " << Op << " cycle " << Cycle;
}

TEST_F(FaultInjectionTest, ExpiredDeadlineReturnsBestSoFar) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  ASSERT_TRUE(MD.has_value());
  ExpandedMachine EM = expandAlternatives(*MD);

  DepGraph G("loop");
  NodeId N0 = G.addNode(0);
  NodeId N1 = G.addNode(1);
  G.addEdge(N0, N1, 1);

  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&EM](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, C));
  };

  ModuloScheduleOptions Options;
  Options.TheDeadline = Deadline::afterMillis(-1); // already expired
  ModuloScheduleResult R = moduloSchedule(G, *MD, Env, Options);
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.Outcome, ScheduleOutcome::TimedOut);
  EXPECT_EQ(R.Error.code(), ErrorCode::TimedOut);
  ASSERT_EQ(R.Alternative.size(), G.numNodes());
  for (int A : R.Alternative)
    EXPECT_EQ(A, -1); // expired before the first decision
  EXPECT_EQ(R.Stats.Degradation.SchedulerTimeouts, 1u);
}

TEST_F(FaultInjectionTest, CancellationTokenStopsScheduling) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  ASSERT_TRUE(MD.has_value());
  ExpandedMachine EM = expandAlternatives(*MD);

  DepGraph G("loop");
  G.addNode(0);

  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&EM](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, C));
  };

  CancellationToken Token;
  Token.cancel();
  ModuloScheduleOptions Options;
  Options.Cancel = &Token;
  ModuloScheduleResult R = moduloSchedule(G, *MD, Env, Options);
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.Outcome, ScheduleOutcome::Cancelled);
  EXPECT_EQ(R.Error.code(), ErrorCode::Cancelled);
}

TEST_F(FaultInjectionTest, OperationDrivenDeadlineReturnsBestSoFar) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  ASSERT_TRUE(MD.has_value());
  ExpandedMachine EM = expandAlternatives(*MD);

  DepGraph G("block");
  NodeId N0 = G.addNode(0);
  NodeId N1 = G.addNode(1);
  G.addEdge(N0, N1, 1);

  DiscreteQueryModule Module(EM.Flat, QueryConfig::linear(0));
  OperationDrivenOptions Options;
  Options.TheDeadline = Deadline::afterMillis(-1);
  OperationDrivenResult R = operationDrivenSchedule(
      G, EM.Groups, EM.Flat, Module, {}, Options);
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.Error.code(), ErrorCode::TimedOut);
  for (int A : R.Alternative)
    EXPECT_EQ(A, -1);
}

TEST_F(FaultInjectionTest, InfeasibleRecurrenceNamesTheCycle) {
  DepGraph G("bad");
  NodeId A = G.addNode(0, "ld");
  NodeId B = G.addNode(0, "add");
  G.addEdge(A, B, 2);
  G.addEdge(B, A, 3); // zero-distance cycle with positive delay

  Expected<int> RecMII = computeRecMIIChecked(G);
  ASSERT_FALSE(RecMII.hasValue());
  EXPECT_EQ(RecMII.status().code(), ErrorCode::InfeasibleRecurrence);
  const std::string &Message = RecMII.status().message();
  EXPECT_NE(Message.find("ld"), std::string::npos) << Message;
  EXPECT_NE(Message.find("add"), std::string::npos) << Message;
  EXPECT_NE(Message.find("no initiation interval is feasible"),
            std::string::npos)
      << Message;
}

TEST_F(FaultInjectionTest, SchedulerRejectsInfeasibleRecurrence) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  ASSERT_TRUE(MD.has_value());
  ExpandedMachine EM = expandAlternatives(*MD);

  DepGraph G("bad");
  NodeId A = G.addNode(0);
  NodeId B = G.addNode(1);
  G.addEdge(A, B, 2);
  G.addEdge(B, A, 3);

  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&EM](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, C));
  };
  ModuloScheduleResult R = moduloSchedule(G, *MD, Env, {});
  EXPECT_FALSE(R.Success);
  EXPECT_EQ(R.Outcome, ScheduleOutcome::InfeasibleRecurrence);
  EXPECT_EQ(R.Error.code(), ErrorCode::InfeasibleRecurrence);
  EXPECT_EQ(R.Stats.Degradation.InfeasibleRecurrences, 1u);
}

//===----------------------------------------------------------------------===//
// The server rungs, individually
//===----------------------------------------------------------------------===//

TEST_F(FaultInjectionTest, ServerAcceptFaultDropsConnectionCleanly) {
  using namespace rmd::server;
  ServerOptions Options;
  Options.SocketPath = uniqueFaultSocket();
  Options.Workers = 1;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  ASSERT_TRUE(FaultInjection::instance()
                  .configure(faultpoints::ServerAccept)
                  .isOk());
  // The kernel completes the connect; the server drops the socket before a
  // reader ever starts. The client's first request surfaces a structured
  // error, not a hang.
  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Server.value()->socketPath(), 2000);
  ASSERT_TRUE(bool(C));
  Status S = C.value()->ping();
  EXPECT_FALSE(S.isOk());
  EXPECT_GT(FaultInjection::instance().fired(faultpoints::ServerAccept), 0u);
  FaultInjection::instance().reset();

  // Disarmed, the very same server serves the next connection normally.
  Expected<std::unique_ptr<RmdClient>> C2 =
      RmdClient::connect(Server.value()->socketPath(), 2000);
  ASSERT_TRUE(bool(C2));
  EXPECT_TRUE(C2.value()->ping().isOk());
}

TEST_F(FaultInjectionTest, ServerEnqueueFaultAnswersOverloadedOnce) {
  using namespace rmd::server;
  ServerOptions Options;
  Options.SocketPath = uniqueFaultSocket();
  Options.Workers = 1;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Server.value()->socketPath(), 2000);
  ASSERT_TRUE(bool(C));
  ASSERT_TRUE(C.value()->ping().isOk()); // reader up and serving

  // Exactly the first enqueue behaves as queue-full: that request gets a
  // structured Overloaded reply, the next one goes through untouched.
  ASSERT_TRUE(FaultInjection::instance()
                  .configure(std::string(faultpoints::ServerEnqueue) + ":1")
                  .isOk());
  Status S = C.value()->ping();
  FaultInjection::instance().reset();
  EXPECT_EQ(S.code(), ErrorCode::Overloaded) << S.render();
  EXPECT_EQ(Server.value()->overloadRejections(), 1u);
  EXPECT_TRUE(C.value()->ping().isOk());
}

TEST_F(FaultInjectionTest, ServerSessionAllocFaultLeaksNothing) {
  using namespace rmd::server;
  using namespace rmd::wire;
  ServerOptions Options;
  Options.SocketPath = uniqueFaultSocket();
  Options.Workers = 1;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Server.value()->socketPath(), 2000);
  ASSERT_TRUE(bool(C));
  Expected<LoadMachineReply> M = C.value()->loadMachine("fig1");
  ASSERT_TRUE(bool(M));

  ASSERT_TRUE(FaultInjection::instance()
                  .configure(faultpoints::ServerSessionAlloc)
                  .isOk());
  OpenSessionRequest Req;
  Req.MachineId = M.value().MachineId;
  Expected<OpenSessionReply> Open = C.value()->openSession(Req);
  FaultInjection::instance().reset();
  ASSERT_FALSE(bool(Open));
  EXPECT_EQ(Open.status().code(), ErrorCode::FaultInjected);
  EXPECT_EQ(Server.value()->sessionCount(), 0u); // nothing half-registered

  // And the path works once disarmed.
  Expected<OpenSessionReply> Open2 = C.value()->openSession(Req);
  ASSERT_TRUE(bool(Open2)) << Open2.status().render();
  EXPECT_EQ(Server.value()->sessionCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Degradation-counter coverage: each rung bumps exactly its own counter
//===----------------------------------------------------------------------===//

namespace {

/// Name/member table over DegradationCounters so each rung test can assert
/// "my counter moved by one, every other counter did not move at all" —
/// a rung that accidentally double-counts or bleeds into a sibling rung
/// fails by name.
struct RungField {
  const char *Name;
  uint64_t DegradationCounters::*Member;
};

constexpr RungField AllRungs[] = {
    {"reduce-fallbacks", &DegradationCounters::ReduceFallbacks},
    {"cache-recoveries", &DegradationCounters::CacheRecoveries},
    {"automaton-fallbacks", &DegradationCounters::AutomatonFallbacks},
    {"worker-rethrows", &DegradationCounters::WorkerRethrows},
    {"scheduler-timeouts", &DegradationCounters::SchedulerTimeouts},
    {"infeasible-recurrences", &DegradationCounters::InfeasibleRecurrences},
};

void expectExactlyOneRung(const DegradationCounters &Before,
                          const DegradationCounters &After,
                          uint64_t DegradationCounters::*Taken) {
  for (const RungField &F : AllRungs) {
    uint64_t Delta = After.*(F.Member) - Before.*(F.Member);
    EXPECT_EQ(Delta, F.Member == Taken ? 1u : 0u) << F.Name;
  }
}

MachineDescription fig1Flat() {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  EXPECT_TRUE(MD.has_value());
  return expandAlternatives(*MD).Flat;
}

} // namespace

TEST_F(FaultInjectionTest, ReduceFallbackRungCountsExactlyOnce) {
  MachineDescription Flat = fig1Flat();
  ASSERT_TRUE(
      FaultInjection::instance().configure(faultpoints::ReduceVerify).isOk());
  DegradationCounters Before = globalDegradation().snapshot();
  SafeReduction Safe = reduceMachineOrFallback(Flat);
  FaultInjection::instance().reset();
  EXPECT_TRUE(Safe.Degraded);
  expectExactlyOneRung(Before, globalDegradation().snapshot(),
                       &DegradationCounters::ReduceFallbacks);
}

TEST_F(FaultInjectionTest, CacheRecoveryRungCountsExactlyOnce) {
  MachineDescription Flat = fig1Flat();
  ReductionCache Cache(Dir);
  ASSERT_TRUE(Cache.reduceChecked(Flat).hasValue()); // warm the entry

  // One rejected read, then a successful recompute + store: exactly one
  // cache recovery, and no reduce fallback (the recompute succeeded).
  ASSERT_TRUE(
      FaultInjection::instance().configure(faultpoints::CacheRead).isOk());
  DegradationCounters Before = globalDegradation().snapshot();
  bool Hit = true;
  Expected<ReductionResult> R = Cache.reduceChecked(Flat, {}, &Hit);
  FaultInjection::instance().reset();
  ASSERT_TRUE(R.hasValue());
  EXPECT_FALSE(Hit);
  expectExactlyOneRung(Before, globalDegradation().snapshot(),
                       &DegradationCounters::CacheRecoveries);
}

TEST_F(FaultInjectionTest, AutomatonFallbackRungCountsExactlyOnce) {
  MachineDescription Flat = fig1Flat();
  ASSERT_TRUE(
      FaultInjection::instance().configure(faultpoints::AutomatonCap).isOk());
  DegradationCounters Before = globalDegradation().snapshot();
  Status Why;
  std::unique_ptr<ContentionQueryModule> Q =
      makeAutomatonOrFallback(Flat, 32, (1u << 22), &Why);
  FaultInjection::instance().reset();
  ASSERT_NE(Q, nullptr);
  EXPECT_EQ(Why.code(), ErrorCode::StateCapExceeded);
  expectExactlyOneRung(Before, globalDegradation().snapshot(),
                       &DegradationCounters::AutomatonFallbacks);
}

TEST_F(FaultInjectionTest, WorkerRethrowRungCountsExactlyOnce) {
  // One throwing block per parallelFor: the pool rethrows the captured
  // exception once at join, so the rung counts once per failed job, not
  // once per worker.
  ThreadPool Pool(4);
  DegradationCounters Before = globalDegradation().snapshot();
  EXPECT_THROW(
      Pool.parallelFor(0, 1000,
                       [](size_t Begin, size_t) {
                         if (Begin == 0)
                           throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  expectExactlyOneRung(Before, globalDegradation().snapshot(),
                       &DegradationCounters::WorkerRethrows);
}

TEST_F(FaultInjectionTest, SchedulerTimeoutRungCountsExactlyOnce) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  ASSERT_TRUE(MD.has_value());
  ExpandedMachine EM = expandAlternatives(*MD);

  DepGraph G("loop");
  NodeId N0 = G.addNode(0);
  NodeId N1 = G.addNode(1);
  G.addEdge(N0, N1, 1);

  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&EM](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, C));
  };
  ModuloScheduleOptions Options;
  Options.TheDeadline = Deadline::afterMillis(-1);

  DegradationCounters Before = globalDegradation().snapshot();
  ModuloScheduleResult R = moduloSchedule(G, *MD, Env, Options);
  EXPECT_EQ(R.Outcome, ScheduleOutcome::TimedOut);
  expectExactlyOneRung(Before, globalDegradation().snapshot(),
                       &DegradationCounters::SchedulerTimeouts);
}

TEST_F(FaultInjectionTest, InfeasibleRecurrenceRungCountsExactlyOnce) {
  DiagnosticEngine Diags;
  std::optional<MachineDescription> MD = parseMdl(Fig1Mdl, Diags);
  ASSERT_TRUE(MD.has_value());
  ExpandedMachine EM = expandAlternatives(*MD);

  DepGraph G("bad");
  NodeId A = G.addNode(0);
  NodeId B = G.addNode(1);
  G.addEdge(A, B, 2);
  G.addEdge(B, A, 3); // zero-distance cycle with positive delay

  QueryEnvironment Env;
  Env.FlatMD = &EM.Flat;
  Env.Groups = &EM.Groups;
  Env.MakeModule = [&EM](QueryConfig C) {
    return std::unique_ptr<ContentionQueryModule>(
        new DiscreteQueryModule(EM.Flat, C));
  };

  DegradationCounters Before = globalDegradation().snapshot();
  ModuloScheduleResult R = moduloSchedule(G, *MD, Env, {});
  EXPECT_EQ(R.Outcome, ScheduleOutcome::InfeasibleRecurrence);
  expectExactlyOneRung(Before, globalDegradation().snapshot(),
                       &DegradationCounters::InfeasibleRecurrences);
}
