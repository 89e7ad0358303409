//===- tests/ServerConcurrencyTest.cpp - N-client differential test -------===//
//
// The multi-tenant guarantee, tested differentially: N concurrent clients
// each stream a seeded workload to the server AND through a private local
// query module (server/Workload.h). Reduction is deterministic, so the
// local module is built over the same reduced description the server
// serves from its shared pattern arena — every per-event result, the
// final WorkCounters, and a full occupancy probe grid must match
// bit-identically at 1, 4, and 16 clients. Any cross-session bleed
// through the shared arena, session state touched by a thread other than
// its connection's, or a reordering of one connection's requests shows
// up as a mismatch.
//
// Runs under the tsan preset (label "server") to catch data races the
// differential comparison alone cannot see.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "query/QueryModule.h"
#include "reduce/Reduction.h"
#include "reduce/ReductionCache.h"
#include "server/Client.h"
#include "server/Server.h"
#include "server/Workload.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"

#include "gtest/gtest.h"

#include <atomic>
#include <limits>
#include <unistd.h>
#include <thread>
#include <vector>

using namespace rmd;
using namespace rmd::server;
using namespace rmd::wire;

namespace {

std::string uniqueSocket(const char *Tag) {
  static std::atomic<int> Counter{0};
  return std::string("@rmd-test-") + Tag + "-" +
         std::to_string(::getpid()) + "-" +
         std::to_string(Counter.fetch_add(1));
}

/// The client-side mirror of the server's load path: same expansion, same
/// reduction (deterministic), so local modules see the same description.
MachineDescription reducedFor(const MachineModel &Model) {
  ExpandedMachine EM = expandAlternatives(Model.MD);
  SafeReduction Safe = reduceMachineOrFallback(EM.Flat);
  return std::move(Safe.Result.Reduced);
}

struct ClientOutcome {
  bool Ok = false;
  std::string What;
};

/// One tenant: streams Batches batches of BatchLen seeded events, checks
/// every result byte against the local mirror, then the counters, then an
/// occupancy probe over every (op, cycle) in the window.
void runTenant(const std::string &Socket, const std::string &MachineName,
               const MachineDescription &Reduced, const QueryConfig &Config,
               uint64_t Seed, size_t Batches, size_t BatchLen,
               ClientOutcome &Out) {
  auto Fail = [&Out](std::string What) {
    Out.Ok = false;
    Out.What = std::move(What);
  };

  Expected<std::unique_ptr<RmdClient>> Client =
      RmdClient::connect(Socket, /*RecvTimeoutMs=*/300000);
  if (!Client)
    return Fail("connect: " + Client.status().render());
  RmdClient &C = *Client.value();

  Expected<LoadMachineReply> M = C.loadMachine(MachineName);
  if (!M)
    return Fail("load: " + M.status().render());

  OpenSessionRequest OpenReq;
  OpenReq.MachineId = M.value().MachineId;
  OpenReq.Modulo = Config.Mode == QueryConfig::Modulo ? 1 : 0;
  OpenReq.ModuloII = Config.ModuloII;
  OpenReq.MinCycle = Config.MinCycle;
  OpenReq.Tenant = "tenant-" + std::to_string(Seed);
  Expected<OpenSessionReply> Open = C.openSession(OpenReq);
  if (!Open)
    return Fail("open: " + Open.status().render());
  uint32_t SessionId = Open.value().SessionId;

  WorkloadGenerator Gen(Reduced, Config, Seed);
  std::vector<BatchEvent> Events;
  std::vector<uint8_t> Want;
  for (size_t B = 0; B < Batches; ++B) {
    Events.clear();
    Want.clear();
    Gen.nextBatch(BatchLen, Events, Want);
    BatchRequest Req;
    Req.SessionId = SessionId;
    Req.Events = Events;
    Expected<BatchReply> Reply = C.runBatch(Req);
    if (!Reply)
      return Fail("batch " + std::to_string(B) + ": " +
                  Reply.status().render());
    if (Reply.value().Results != Want)
      return Fail("batch " + std::to_string(B) +
                  ": result bytes diverge from the local module");
  }

  // Counters: the server session must have done exactly the same work.
  Expected<StatsReply> Stats = C.sessionStats(SessionId);
  if (!Stats)
    return Fail("stats: " + Stats.status().render());
  WorkCounters Local = Gen.module().counters();
  const WorkCounters &Remote = Stats.value().Session.Counters;
  if (Remote.CheckCalls != Local.CheckCalls ||
      Remote.CheckUnits != Local.CheckUnits ||
      Remote.AssignCalls != Local.AssignCalls ||
      Remote.AssignUnits != Local.AssignUnits ||
      Remote.FreeCalls != Local.FreeCalls ||
      Remote.FreeUnits != Local.FreeUnits ||
      Remote.AssignFreeCalls != Local.AssignFreeCalls ||
      Remote.AssignFreeUnits != Local.AssignFreeUnits ||
      Remote.TransitionUnits != Local.TransitionUnits)
    return Fail("WorkCounters diverge from the local module");
  if (Stats.value().Session.LiveInstances != Gen.liveInstances())
    return Fail("live-instance count diverges");

  // Occupancy probe: a Check over every (op, cycle) in the window proves
  // the occupancy itself (not just the sampled results) is identical.
  const bool Modulo = Config.Mode == QueryConfig::Modulo;
  const int ProbeBase = Modulo ? 0 : Config.MinCycle;
  const int ProbeSpan = Modulo ? Config.ModuloII : 64;
  BatchRequest Probe;
  Probe.SessionId = SessionId;
  std::vector<uint8_t> ProbeExpected;
  for (OpId Op = 0; Op < Reduced.numOperations(); ++Op)
    for (int D = 0; D < ProbeSpan; ++D) {
      Probe.Events.push_back(
          {Verb::Check, static_cast<uint32_t>(Op), ProbeBase + D, 0});
      ProbeExpected.push_back(Gen.mutableModule().check(Op, ProbeBase + D)
                                  ? 1
                                  : 0);
    }
  Expected<BatchReply> ProbeReply = C.runBatch(Probe);
  if (!ProbeReply)
    return Fail("probe: " + ProbeReply.status().render());
  if (ProbeReply.value().Results != ProbeExpected)
    return Fail("occupancy probe diverges from the local module");

  if (Status S = C.closeSession(SessionId); !S)
    return Fail("close: " + S.render());
  Out.Ok = true;
}

void runDifferential(const std::string &MachineName, const QueryConfig &Config,
                     size_t NumClients, size_t Batches, size_t BatchLen) {
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("conc");
  Options.Workers = 4;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  MachineDescription Reduced =
      reducedFor(loadMachine(MachineName).take());
  std::vector<ClientOutcome> Outcomes(NumClients);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < NumClients; ++I)
    Threads.emplace_back(runTenant, Server.value()->socketPath(),
                         MachineName, std::cref(Reduced), std::cref(Config),
                         /*Seed=*/0x5eed0000 + I, Batches, BatchLen,
                         std::ref(Outcomes[I]));
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < NumClients; ++I)
    EXPECT_TRUE(Outcomes[I].Ok) << "client " << I << ": " << Outcomes[I].What;

  EXPECT_EQ(Server.value()->sessionCount(), 0u);
  Server.value()->stop();
}

TEST(ServerConcurrency, SingleClientLinearMatchesLocal) {
  runDifferential("cydra5", QueryConfig::linear(0),
                  /*NumClients=*/1, /*Batches=*/16, /*BatchLen=*/256);
}

TEST(ServerConcurrency, FourClientsLinearMatchLocal) {
  runDifferential("cydra5", QueryConfig::linear(0),
                  /*NumClients=*/4, /*Batches=*/12, /*BatchLen=*/192);
}

TEST(ServerConcurrency, SixteenClientsLinearMatchLocal) {
  runDifferential("cydra5", QueryConfig::linear(0),
                  /*NumClients=*/16, /*Batches=*/6, /*BatchLen=*/128);
}

TEST(ServerConcurrency, FourClientsModuloSharedArenaMatchLocal) {
  // All four sessions share one modulo pattern arena (same machine, same
  // II): the strongest aliasing case for the arena refactor.
  runDifferential("cydra5", QueryConfig::modulo(8),
                  /*NumClients=*/4, /*Batches=*/12, /*BatchLen=*/192);
}

TEST(ServerConcurrency, SixteenClientsModuloMatchLocal) {
  runDifferential("mips-r3000", QueryConfig::modulo(6),
                  /*NumClients=*/16, /*Batches=*/6, /*BatchLen=*/128);
}

TEST(ServerConcurrency, RequestsWaitForASlotWhileTheWaitingRoomHasRoom) {
  // One execution slot and three waiting places: four closed-loop clients
  // never have more than four requests in flight, so each request either
  // runs or waits, and none is answered Overloaded.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("wait");
  Options.Workers = 1;
  Options.QueueCapacity = 3;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  MachineDescription Reduced = reducedFor(loadMachine("cydra5").take());
  QueryConfig Config = QueryConfig::linear(0);
  std::vector<ClientOutcome> Outcomes(4);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Outcomes.size(); ++I)
    Threads.emplace_back(runTenant, Server.value()->socketPath(),
                         std::string("cydra5"), std::cref(Reduced),
                         std::cref(Config), /*Seed=*/0xf00d00 + I,
                         /*Batches=*/50, /*BatchLen=*/64,
                         std::ref(Outcomes[I]));
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < Outcomes.size(); ++I)
    EXPECT_TRUE(Outcomes[I].Ok) << "client " << I << ": " << Outcomes[I].What;
  EXPECT_EQ(Server.value()->overloadRejections(), 0u);
  EXPECT_EQ(Server.value()->sessionCount(), 0u);
}

TEST(ServerConcurrency, ArmedThreadPoolFaultLeavesRequestsServed) {
  // Requests run on their connection's thread, not on a support/ThreadPool,
  // so an armed threadpool.task cannot wedge the server: a full
  // load/open/batch/close round trip still succeeds well inside the
  // client's receive timeout.
  ASSERT_TRUE(FaultInjection::instance()
                  .configure(faultpoints::ThreadPoolTask)
                  .isOk());
  Status RoundTrip = [] {
    ServerOptions Options;
    Options.SocketPath = uniqueSocket("tpfault");
    Options.Workers = 2;
    Expected<std::unique_ptr<RmdServer>> Server =
        RmdServer::start(std::move(Options));
    if (!Server)
      return Server.status();
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
    Batch.Events.push_back({Verb::CheckAssign, 0, 0, 1});
    Batch.Events.push_back({Verb::Check, 0, 0, 0});
    Expected<BatchReply> R = C.runBatch(Batch);
    if (!R)
      return R.status();
    if (R.value().Results != std::vector<uint8_t>{1, 0})
      return Status(ErrorCode::ProtocolError, "wrong batch results");
    return C.closeSession(Open.value().SessionId);
  }();
  FaultInjection::instance().reset();
  EXPECT_TRUE(RoundTrip.isOk()) << RoundTrip.render();
}

TEST(ServerConcurrency, MixedConfigsShareOneMachine) {
  // Linear and modulo sessions of the same machine at once: different
  // arenas, one registry entry; nothing may bleed between them.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("mixed");
  Options.Workers = 4;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  MachineModel Model = loadMachine("cydra5").take();
  MachineDescription Reduced = reducedFor(Model);
  QueryConfig Linear = QueryConfig::linear(0);
  QueryConfig Modulo = QueryConfig::modulo(11);

  std::vector<ClientOutcome> Outcomes(8);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < 8; ++I)
    Threads.emplace_back(runTenant, Server.value()->socketPath(),
                         std::string("cydra5"), std::cref(Reduced),
                         std::cref(I % 2 ? Modulo : Linear),
                         /*Seed=*/0xabc000 + I, /*Batches=*/8,
                         /*BatchLen=*/128, std::ref(Outcomes[I]));
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < 8; ++I)
    EXPECT_TRUE(Outcomes[I].Ok) << "client " << I << ": " << Outcomes[I].What;
  EXPECT_EQ(Server.value()->sessionCount(), 0u);
}

TEST(ServerConcurrency, ConcurrentModuloSessionsBuildEachArenaOnce) {
  // Four clients open modulo sessions at eight IIs at once, each walking
  // the IIs from a different start: the registry's arena cache must build
  // each II's arena exactly once and share it with the other clients.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("arenas");
  Options.Workers = 4;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  auto arenaBuilds = [] {
    StatsSnapshot Snap = StatsRegistry::instance().snapshot();
    auto It = Snap.Counters.find("query.arena.builds");
    return It == Snap.Counters.end() ? uint64_t(0) : It->second;
  };
  MachineDescription Reduced = reducedFor(loadMachine("cydra5").take());
  std::vector<QueryConfig> Configs;
  for (int II = 8; II < 16; ++II)
    Configs.push_back(QueryConfig::modulo(II));
  constexpr size_t NumClients = 4;
  uint64_t Builds0 = arenaBuilds();

  std::vector<ClientOutcome> Outcomes(NumClients * Configs.size());
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < NumClients; ++T)
    Threads.emplace_back([&, T] {
      for (size_t J = 0; J < Configs.size(); ++J) {
        size_t I = (2 * T + J) % Configs.size();
        runTenant(Server.value()->socketPath(), "cydra5", Reduced, Configs[I],
                  /*Seed=*/0xa7e000 + T * Configs.size() + I, /*Batches=*/4,
                  /*BatchLen=*/96, Outcomes[T * Configs.size() + J]);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 0; I < Outcomes.size(); ++I)
    EXPECT_TRUE(Outcomes[I].Ok) << "session " << I << ": " << Outcomes[I].What;
  EXPECT_EQ(arenaBuilds() - Builds0, Configs.size());
  EXPECT_EQ(Server.value()->sessionCount(), 0u);
}

TEST(ServerConcurrency, SessionsArePinnedToTheirConnection) {
  // A second connection must not be able to touch (or even probe) a
  // session opened by the first.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("pin");
  Options.Workers = 2;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  Expected<std::unique_ptr<RmdClient>> A =
      RmdClient::connect(Server.value()->socketPath(), 300000);
  Expected<std::unique_ptr<RmdClient>> B =
      RmdClient::connect(Server.value()->socketPath(), 300000);
  ASSERT_TRUE(bool(A));
  ASSERT_TRUE(bool(B));

  Expected<LoadMachineReply> M = A.value()->loadMachine("cydra5");
  ASSERT_TRUE(bool(M));
  OpenSessionRequest Req;
  Req.MachineId = M.value().MachineId;
  Expected<OpenSessionReply> Open = A.value()->openSession(Req);
  ASSERT_TRUE(bool(Open));

  BatchRequest Batch;
  Batch.SessionId = Open.value().SessionId;
  Batch.Events.push_back({Verb::Check, 0, 0, 0});
  Expected<BatchReply> Stolen = B.value()->runBatch(Batch);
  ASSERT_FALSE(bool(Stolen));
  EXPECT_EQ(Stolen.status().code(), ErrorCode::ProtocolError);

  // The owner can still use it.
  Expected<BatchReply> Own = A.value()->runBatch(Batch);
  EXPECT_TRUE(bool(Own)) << Own.status().render();

  // Dropping the owning connection reaps the session.
  A.value().reset();
  for (int Spin = 0; Spin < 200 && Server.value()->sessionCount(); ++Spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(Server.value()->sessionCount(), 0u);
}

TEST(ServerConcurrency, ReservedInstanceIdIsAProtocolError) {
  // INT32_MIN is the instance tables' empty-slot sentinel. A batch that
  // assigns it must be refused before it reaches the module, and the
  // server must keep serving.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("sentinel");
  Options.Workers = 2;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();
  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Server.value()->socketPath(), 300000);
  ASSERT_TRUE(bool(C));

  Expected<LoadMachineReply> M = C.value()->loadMachine("cydra5");
  ASSERT_TRUE(bool(M));
  OpenSessionRequest Req;
  Req.MachineId = M.value().MachineId;
  Expected<OpenSessionReply> Open = C.value()->openSession(Req);
  ASSERT_TRUE(bool(Open));

  BatchRequest Batch;
  Batch.SessionId = Open.value().SessionId;
  Batch.Events.push_back(
      {Verb::CheckAssign, 0, 0, std::numeric_limits<int32_t>::min()});
  Batch.Events.push_back({Verb::AssignFree, 0, 0, 1});
  Expected<BatchReply> Reply = C.value()->runBatch(Batch);
  ASSERT_FALSE(bool(Reply));
  EXPECT_EQ(Reply.status().code(), ErrorCode::ProtocolError);
  EXPECT_NE(Reply.status().message().find("event 0"), std::string::npos)
      << Reply.status().render();

  EXPECT_TRUE(C.value()->ping().isOk());
  // The rejected batch left the session untouched and usable.
  Batch.Events = {{Verb::CheckAssign, 0, 0, 1}};
  Reply = C.value()->runBatch(Batch);
  ASSERT_TRUE(bool(Reply)) << Reply.status().render();
  EXPECT_EQ(Reply.value().Results, std::vector<uint8_t>{1});
}

TEST(ServerConcurrency, OverloadedIsStructuredNotFatal) {
  // A tiny queue with slow drain: concurrent pings may be rejected with
  // Overloaded, but every rejection is a structured reply and the server
  // keeps serving afterwards.
  ServerOptions Options;
  Options.SocketPath = uniqueSocket("ovl");
  Options.Workers = 1;
  Options.QueueCapacity = 1;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  ASSERT_TRUE(bool(Server)) << Server.status().render();

  std::atomic<int> OkCount{0}, OverloadCount{0}, OtherCount{0};
  std::vector<std::thread> Threads;
  for (int I = 0; I < 8; ++I)
    Threads.emplace_back([&, I] {
      Expected<std::unique_ptr<RmdClient>> C =
          RmdClient::connect(Server.value()->socketPath(), 300000);
      if (!C) {
        OtherCount.fetch_add(1);
        return;
      }
      for (int J = 0; J < 50; ++J) {
        Status S = C.value()->ping();
        if (S.isOk())
          OkCount.fetch_add(1);
        else if (S.code() == ErrorCode::Overloaded)
          OverloadCount.fetch_add(1);
        else
          OtherCount.fetch_add(1);
      }
      (void)I;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(OtherCount.load(), 0);
  EXPECT_GT(OkCount.load(), 0);
  // Whatever was rejected must be visible in the server's own tally.
  EXPECT_EQ(Server.value()->overloadRejections(),
            static_cast<uint64_t>(OverloadCount.load()));

  // Still alive and well after the storm.
  Expected<std::unique_ptr<RmdClient>> C =
      RmdClient::connect(Server.value()->socketPath(), 300000);
  ASSERT_TRUE(bool(C));
  EXPECT_TRUE(C.value()->ping().isOk());
}

} // namespace
