//===- perfbench/cpp/ServerBatch.cpp - Client -> server -> client batches -===//
//
// Workload `server-batch`: rmdserved --workers=2 runs as a child process
// with cydra5 loaded. This process is the load generator: two closed-loop
// client connections, each a scheduler that waits for every answer, send
// 1,024-event linear-mode batches from server::WorkloadGenerator (30% free,
// 30% check, 40% check-assign). The streams and their answers are generated
// before the clock starts; every reply is compared with them. A stream
// cycle ends in a Reset event, so it can be replayed from the start for as
// long as the run lasts.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "QueryProbe.h"
#include "Trace.h"

#include "server/Client.h"
#include "server/MachineRegistry.h"
#include "server/Protocol.h"
#include "server/Workload.h"

#include <atomic>
#include <csignal>
#include <memory>
#include <stdexcept>
#include <thread>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace rmd;
using namespace rmd::server;
using namespace rmdbench;

namespace {

constexpr const char *kMachine = "cydra5";
constexpr unsigned kClients = 2;
constexpr size_t kBatchEvents = 1024;
constexpr size_t kBatchesPerCycle = 64;

/// The daemon as a child process. The destructor always stops it and
/// waits for it, gracefully when a client is still connected.
class ServerProcess {
public:
  ServerProcess(const std::string &Binary, const std::string &Socket) {
    std::string SocketArg = "--socket=" + Socket;
    Pid = fork();
    if (Pid < 0)
      throw std::runtime_error("fork failed");
    if (Pid == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      dup2(STDERR_FILENO, STDOUT_FILENO); // keep the result stream clean
      execl(Binary.c_str(), Binary.c_str(), SocketArg.c_str(), "--workers=2",
            static_cast<char *>(nullptr));
      _exit(127);
    }
  }
  ~ServerProcess() { stop(nullptr); }
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;

  int pid() const { return Pid; }
  /// False once the daemon has exited (it is then reaped here).
  bool running() {
    if (Pid > 0 && waitpid(Pid, nullptr, WNOHANG) != 0)
      Pid = -1;
    return Pid > 0;
  }

  /// Asks \p Control (if any) to shut the server down, then waits up to
  /// five seconds before killing it.
  void stop(RmdClient *Control) {
    if (Pid <= 0)
      return;
    if (!Control || !Control->shutdownServer())
      kill(Pid, SIGTERM);
    Clock::time_point Start = Clock::now();
    while (waitpid(Pid, nullptr, WNOHANG) == 0) {
      if (secondsSince(Start) > 5) {
        kill(Pid, SIGKILL);
        waitpid(Pid, nullptr, 0);
        break;
      }
      usleep(2000);
    }
    Pid = -1;
  }

private:
  int Pid = -1;
};

struct Stream {
  uint32_t SessionId = 0;
  std::vector<wire::BatchRequest> Batches;
  std::vector<std::vector<uint8_t>> Expected;
  uint64_t Events = 0;
};

/// A live server with cydra5 loaded, one connected client and session per
/// stream, and the streams themselves.
struct ServerSetUp {
  MachineRegistry Local;
  const LoadedMachine *Machine = nullptr;
  std::unique_ptr<ServerProcess> Process;
  std::vector<std::unique_ptr<RmdClient>> Clients;
  std::vector<Stream> Streams;
  double MachineLoadMs = 0;

  ~ServerSetUp() {
    if (Process)
      Process->stop(Clients.empty() ? nullptr : Clients[0].get());
  }
};

std::unique_ptr<RmdClient> connectTo(const std::string &Socket,
                                     ServerProcess &P) {
  Clock::time_point Start = Clock::now();
  while (true) {
    Expected<std::unique_ptr<RmdClient>> C =
        RmdClient::connect(Socket, /*RecvTimeoutMs=*/30000);
    if (C)
      return C.take();
    if (!P.running() || secondsSince(Start) > 10)
      throw std::runtime_error("cannot connect to rmdserved at " + Socket +
                               ": " + C.status().render());
    usleep(2000);
  }
}

void setUp(const RunOptions &Opts, unsigned Attempt, ServerSetUp &S) {
  Expected<const LoadedMachine *> Local = S.Local.load(kMachine);
  if (!Local)
    throw std::runtime_error(Local.status().render());
  S.Machine = Local.value();

  std::string Socket = "@rmdbench-" + std::to_string(getpid()) + "-" +
                       std::to_string(Attempt);
  S.Process = std::make_unique<ServerProcess>(Opts.ServerBinary, Socket);
  for (unsigned C = 0; C < kClients; ++C)
    S.Clients.push_back(connectTo(Socket, *S.Process));

  Clock::time_point LoadStart = Clock::now();
  Expected<wire::LoadMachineReply> Loaded = S.Clients[0]->loadMachine(kMachine);
  S.MachineLoadMs = msBetween(LoadStart, Clock::now());
  if (!Loaded)
    throw std::runtime_error("load " + std::string(kMachine) + ": " +
                             Loaded.status().render());
  const wire::LoadMachineReply &L = Loaded.value();
  if (L.Degraded || L.ReducedResources != S.Machine->reduced().numResources() ||
      L.Bitvector != S.Machine->usesBitvector())
    throw std::runtime_error("the server's reduced cydra5 differs from the "
                             "local reduction");

  uint64_t SeedState = Opts.Seed;
  for (unsigned C = 0; C < kClients; ++C) {
    wire::OpenSessionRequest Open;
    Open.MachineId = L.MachineId;
    Expected<wire::OpenSessionReply> Session =
        S.Clients[C]->openSession(Open);
    if (!Session)
      throw std::runtime_error("open session: " + Session.status().render());
    Stream St;
    St.SessionId = Session.value().SessionId;
    WorkloadGenerator Gen(S.Machine->reduced(), QueryConfig::linear(),
                          splitmix64(SeedState));
    for (size_t B = 0; B < kBatchesPerCycle; ++B) {
      wire::BatchRequest R;
      R.SessionId = St.SessionId;
      std::vector<uint8_t> Expected;
      bool Last = B + 1 == kBatchesPerCycle;
      Gen.nextBatch(Last ? kBatchEvents - 1 : kBatchEvents, R.Events,
                    Expected);
      if (Last) {
        R.Events.push_back(wire::BatchEvent{wire::Verb::Reset, 0, 0, 0});
        Expected.push_back(wire::kResultDone);
      }
      St.Events += R.Events.size();
      St.Batches.push_back(std::move(R));
      St.Expected.push_back(std::move(Expected));
    }
    S.Streams.push_back(std::move(St));
  }
}

/// What the clients saw in one timed window.
struct Window {
  std::vector<double> LatencyUs;
  uint64_t Batches = 0;
  uint64_t Events = 0;
  uint64_t Errors = 0;
  uint64_t Mismatches = 0;
  double WallS = 0;
  double ServerCpuS = 0;
  double ClientCpuS = 0;
  wire::ServerStats Before, After;

  double p(double Q) const { return quantile(LatencyUs, Q); }
  /// Adds \p O's samples and counts (not its stats snapshots).
  void add(const Window &O) {
    LatencyUs.insert(LatencyUs.end(), O.LatencyUs.begin(), O.LatencyUs.end());
    Batches += O.Batches;
    Events += O.Events;
    Errors += O.Errors;
    Mismatches += O.Mismatches;
    WallS += O.WallS;
    ServerCpuS += O.ServerCpuS;
    ClientCpuS += O.ClientCpuS;
  }
  double meanLatencyUs() const {
    double Sum = 0;
    for (double L : LatencyUs)
      Sum += L;
    return LatencyUs.empty() ? 0 : Sum / static_cast<double>(LatencyUs.size());
  }
};

wire::ServerStats serverStats(RmdClient &C) {
  Expected<wire::StatsReply> R = C.serverStats();
  if (!R)
    throw std::runtime_error("stats: " + R.status().render());
  return R.value().Server;
}

/// Runs every client's stream in a closed loop for \p Seconds (whole
/// cycles when \p Cycles is nonzero instead).
Window runWindow(ServerSetUp &S, double Seconds, unsigned Cycles,
                 TraceRecorder *Trace) {
  Window W;
  W.Before = serverStats(*S.Clients[0]);
  std::vector<Window> PerClient(kClients);
  std::atomic<bool> Go{false};
  std::vector<std::thread> Threads;
  double ServerCpu0 = processCpuSeconds(S.Process->pid());
  Clock::time_point Start;
  for (unsigned C = 0; C < kClients; ++C)
    Threads.emplace_back([&, C] {
      while (!Go.load(std::memory_order_acquire)) {
      }
      Window &Mine = PerClient[C];
      const Stream &St = S.Streams[C];
      Mine.LatencyUs.reserve(1 << 16);
      double Cpu0 = threadCpuSeconds();
      Clock::time_point Deadline =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(Seconds));
      bool Stop = false;
      for (unsigned Cycle = 0; !Stop; ++Cycle) {
        for (size_t B = 0; B < St.Batches.size() && !Stop; ++B) {
          Clock::time_point T0 = Clock::now();
          Expected<wire::BatchReply> R = S.Clients[C]->runBatch(St.Batches[B]);
          Clock::time_point T1 = Clock::now();
          ++Mine.Batches;
          Mine.Events += St.Batches[B].Events.size();
          Mine.LatencyUs.push_back(msBetween(T0, T1) * 1e3);
          if (Trace)
            Trace->span("batch", "server", T0, T1, C + 1,
                        "\"client\": " + std::to_string(C) + ", \"seq\": " +
                            std::to_string(Mine.Batches));
          if (!R) {
            ++Mine.Errors; // the session state is now unknown: stop
            Stop = true;
          } else if (R.value().Results != St.Expected[B]) {
            ++Mine.Mismatches;
            Stop = true;
          }
        }
        Stop = Stop ||
               (Cycles ? Cycle + 1 >= Cycles : Clock::now() >= Deadline);
      }
      Mine.ClientCpuS = threadCpuSeconds() - Cpu0;
    });
  Start = Clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  W.WallS = secondsSince(Start);
  W.ServerCpuS = processCpuSeconds(S.Process->pid()) - ServerCpu0;
  for (const Window &M : PerClient)
    W.add(M);
  W.After = serverStats(*S.Clients[0]);
  return W;
}

/// Counts the window toward the report and cross-checks it against the
/// server's own counters.
void account(const Window &W, Report &Out) {
  Out.Attempted += W.Batches;
  Out.Failed += W.Errors;
  ++Out.Passes;
  if (W.Mismatches)
    Out.error(std::to_string(W.Mismatches) +
              " batch replies differ from the precomputed answers");
  if (W.Errors)
    Out.error(std::to_string(W.Errors) + " batch requests failed");
  // Each stats request counts itself when it is dequeued, so the second
  // snapshot includes one request beyond the batches.
  Out.expectEq("requests served during the window",
               W.After.RequestsServed - W.Before.RequestsServed,
               W.Batches + 1);
  Out.expectEq("overload rejections during the window",
               W.After.OverloadRejections - W.Before.OverloadRejections,
               0);
  Out.expectEq("protocol errors during the window",
               W.After.ProtocolErrors - W.Before.ProtocolErrors, 0);
}

/// Runs closed-loop windows of about a second until \p Seconds have
/// passed, timing the calibration suite between windows (clients idle).
Window runSlices(ServerSetUp &S, double Seconds, TraceRecorder *Trace,
                 Report &Out) {
  Window All;
  Clock::time_point Start = Clock::now();
  do {
    Window W = runWindow(S, std::min(1.0, Seconds), 0, Trace);
    account(W, Out);
    All.add(W);
    All.After = W.After;
    if (!Trace)
      Out.calibrate();
  } while (secondsSince(Start) < Seconds);
  return All;
}

/// Replays every stream \p Cycles times on in-process modules built the
/// way the server builds its sessions'; returns ns per event.
double replayLocally(const ServerSetUp &S, unsigned Cycles, QueryProbe *Probe,
                     Report &Out) {
  double Ns = 0;
  uint64_t Events = 0;
  for (const Stream &St : S.Streams) {
    std::unique_ptr<ContentionQueryModule> Q =
        S.Machine->makeModule(QueryConfig::linear());
    if (Probe)
      Q = probeModule(std::move(Q), *Probe);
    std::vector<uint8_t> Got(kBatchEvents);
    for (unsigned Cycle = 0; Cycle < Cycles; ++Cycle)
      for (size_t B = 0; B < St.Batches.size(); ++B) {
        const std::vector<wire::BatchEvent> &Batch = St.Batches[B].Events;
        Got.resize(Batch.size());
        Clock::time_point Start = Clock::now();
        for (size_t I = 0; I < Batch.size(); ++I) {
          const wire::BatchEvent &E = Batch[I];
          switch (E.TheVerb) {
          case wire::Verb::Check:
            Got[I] = Q->check(E.Op, E.Cycle);
            break;
          case wire::Verb::Free:
            Q->free(E.Op, E.Cycle, E.Instance);
            Got[I] = wire::kResultDone;
            break;
          case wire::Verb::CheckAssign:
            Got[I] = Q->check(E.Op, E.Cycle);
            if (Got[I])
              Q->assign(E.Op, E.Cycle, E.Instance);
            break;
          case wire::Verb::Reset:
            Q->reset();
            Got[I] = wire::kResultDone;
            break;
          default:
            Got[I] = 0xEE; // the generator emits no other verb
          }
        }
        Ns += msBetween(Start, Clock::now()) * 1e6;
        Events += Batch.size();
        if (Got != St.Expected[B])
          Out.error("the local replay differs from the precomputed answers");
      }
  }
  if (Probe)
    Probe->Passes += Cycles;
  return Ns / static_cast<double>(Events);
}

/// Wire encode/decode of every batch request and its reply, both
/// directions; returns {encode, decode} ns per event.
std::pair<double, double> timeWire(const ServerSetUp &S, Report &Out) {
  double EncodeNs = 0, DecodeNs = 0;
  uint64_t Events = 0;
  uint32_t Id = 1;
  for (unsigned Rep = 0; Rep < 4; ++Rep)
    for (const Stream &St : S.Streams)
      for (size_t B = 0; B < St.Batches.size(); ++B, ++Id) {
        wire::BatchReply Reply;
        Reply.Results = St.Expected[B];
        Clock::time_point T0 = Clock::now();
        std::vector<uint8_t> Request = wire::encodeRequest(Id, St.Batches[B]);
        std::vector<uint8_t> Response = wire::encodeReply(Id, Reply);
        Clock::time_point T1 = Clock::now();
        wire::WireReader In(Request);
        Expected<wire::FrameHeader> H = wire::decodeHeader(In, false);
        Expected<wire::BatchRequest> Req = wire::decodeBatchRequest(In);
        wire::WireReader Back(Response);
        Expected<wire::FrameHeader> RH = wire::decodeHeader(Back, true);
        Status ServerStatus;
        Status Prefix = wire::decodeReplyStatus(Back, ServerStatus);
        Expected<wire::BatchReply> Rep2 = wire::decodeBatchReply(Back);
        Clock::time_point T2 = Clock::now();
        EncodeNs += msBetween(T0, T1) * 1e6;
        DecodeNs += msBetween(T1, T2) * 1e6;
        Events += St.Batches[B].Events.size();
        if (!H || !Req || !RH || !Prefix || !ServerStatus || !Rep2 ||
            Req.value().Events.size() != St.Batches[B].Events.size() ||
            Rep2.value().Results != St.Expected[B])
          Out.error("a batch does not survive a wire round trip");
      }
  return {EncodeNs / Events, DecodeNs / Events};
}

} // namespace

void rmdbench::runServerBatch(const RunOptions &Opts, Report &Out,
                              TraceRecorder *Trace) {
  if (Opts.ServerBinary.empty())
    throw std::runtime_error("server-batch needs --server-binary");
  std::unique_ptr<ServerSetUp> S;
  std::vector<double> LoadMs;
  unsigned Attempt = 0;
  Out.calibrate();
  double SetUpS = timedSetUps(3, [&] {
    S.reset(); // stops the previous set-up's server
    S = std::make_unique<ServerSetUp>();
    setUp(Opts, Attempt++, *S);
    LoadMs.push_back(S->MachineLoadMs);
  });

  Out.calibrate();

  // Warm-up: one whole cycle per client, checked like the rest.
  account(runWindow(*S, 0, 1, nullptr), Out);

  const double UntracedSeconds = Trace ? Opts.Seconds / 2 : Opts.Seconds;
  Window W = runSlices(*S, UntracedSeconds, nullptr, Out);

  double Mq = static_cast<double>(W.Events) / 1e6;
  double P50 = W.p(0.5), P99 = W.p(0.99);
  std::string Samples = std::to_string(W.LatencyUs.size()) + " batches of " +
                        std::to_string(kBatchEvents) + " events";
  Out.line("server_p50_us", P50, "us", Samples);
  Out.line("server_p99_us", P99, "us", Samples);
  Out.line("server_mqps", Mq / W.WallS, "Mq/s",
           std::to_string(kClients) + " closed-loop clients");
  Out.line("server_cpu_s_per_mq", W.ServerCpuS / Mq, "s", "rmdserved");
  Out.line("server.client_cpu_s_per_mq", W.ClientCpuS / Mq, "s",
           "load process client threads");
  Out.line("fail_ratio",
           static_cast<double>(Out.Failed) / static_cast<double>(Out.Attempted),
           "");
  Out.line("setup_s", SetUpS, "s", "median of 3 set-ups");
  if (W.LatencyUs.size() < 1000)
    Out.error("fewer than 1000 batch round trips: p99 has under 10 samples "
              "beyond it");

  Out.endToEnd(SetUpS, P50 / 1e3,
               W.ServerCpuS * 1e3 / static_cast<double>(W.Batches),
               static_cast<double>(W.Events) / W.ServerCpuS);
  if (!Trace)
    return;

  Window T = runSlices(*S, Opts.Seconds - UntracedSeconds, Trace, Out);

  double LocalNs = replayLocally(*S, 8, nullptr, Out);
  QueryProbe Probe;
  Probe.Timed = true;
  replayLocally(*S, 8, &Probe, Out);
  Probe.publish(Out, "query.local.");
  auto [EncodeNs, DecodeNs] = timeWire(*S, Out);
  double RoundTripNsPerEvent =
      W.meanLatencyUs() * 1e3 / static_cast<double>(kBatchEvents);

  Out.set("server.p50_us", P50, "us");
  Out.set("server.p99_us", P99, "us");
  Out.set("server.mqps", Mq / W.WallS, "Mq/s");
  Out.set("server.cpu_s_per_mq", W.ServerCpuS / Mq, "s");
  Out.set("server.client_cpu_s_per_mq", W.ClientCpuS / Mq, "s");
  Out.set("server.local_ns_per_event", LocalNs, "ns");
  Out.set("server.transport_share", 1 - LocalNs / RoundTripNsPerEvent,
          "ratio");
  Out.set("server.encode_ns_per_event", EncodeNs, "ns");
  Out.set("server.decode_ns_per_event", DecodeNs, "ns");
  Out.set("server.requests_served",
          static_cast<double>(T.After.RequestsServed), "count");
  Out.set("server.overload_rejections",
          static_cast<double>(T.After.OverloadRejections), "count");
  Out.set("server.protocol_errors", static_cast<double>(T.After.ProtocolErrors),
          "count");
  Out.set("server.machine_load_ms", median(LoadMs), "ms");
  Out.set("trace.overhead", T.p(0.5) / P50, "ratio");
  Out.set("fail_ratio",
          static_cast<double>(Out.Failed) / static_cast<double>(Out.Attempted),
          "ratio");
}
