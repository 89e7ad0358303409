//===- bench/server_throughput.cpp - Multi-client server bench ------------===//
//
// Gate bench for the contention-query server: N concurrent clients stream
// seeded valid batches (server/Workload.h) at an in-process server and
// every request's wall-clock latency is recorded. Reports, per machine:
//
//   server_clients   concurrent clients
//   server_p50_us    median request latency (batch of events), microseconds
//   server_p99_us    99th-percentile request latency
//   server_mqps      aggregate throughput, million query events / second
//
// Output is rmd-bench-v1 JSON (same shape scripts/bench_diff.py consumes),
// to stdout or --out=<file>. Options:
//
//   server_throughput [--clients=<n>] [--batches=<n>] [--batch=<events>]
//                     [--machines=<a,b,...>] [--out=<file>]
//
// Note the numbers are environment-honest: aggregate Mq/s scales with the
// cores actually available; on a single-core host the server's value is
// isolation and latency-under-load, not speedup.
//
//===----------------------------------------------------------------------===//

#include "machines/Catalog.h"
#include "reduce/ReductionCache.h"
#include "server/Client.h"
#include "server/Server.h"
#include "server/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace rmd;
using namespace rmd::server;
using namespace rmd::wire;

namespace {

struct BenchResult {
  std::string Machine;
  size_t Clients = 0;
  double P50Us = 0;
  double P99Us = 0;
  double Mqps = 0;
  double SingleMqps = 0; ///< one local thread on the same module, for scale
};

/// One client worker: stream Batches requests of BatchLen events, record
/// each request's latency in microseconds.
void runClient(const std::string &Socket, const std::string &Machine,
               const MachineDescription &Reduced, uint64_t Seed,
               size_t Batches, size_t BatchLen,
               std::vector<double> &LatenciesUs, uint64_t &EventsDone) {
  Expected<std::unique_ptr<RmdClient>> Client =
      RmdClient::connect(Socket, /*RecvTimeoutMs=*/120000);
  if (!Client) {
    std::cerr << "client connect failed: " << Client.status().render()
              << "\n";
    return;
  }
  RmdClient &C = *Client.value();
  Expected<LoadMachineReply> M = C.loadMachine(Machine);
  if (!M)
    return;
  OpenSessionRequest OpenReq;
  OpenReq.MachineId = M.value().MachineId;
  OpenReq.Tenant = "bench-" + std::to_string(Seed);
  Expected<OpenSessionReply> Open = C.openSession(OpenReq);
  if (!Open)
    return;

  WorkloadGenerator Gen(Reduced, QueryConfig::linear(0), Seed);
  LatenciesUs.reserve(Batches);
  std::vector<BatchEvent> Events;
  std::vector<uint8_t> Want;
  for (size_t B = 0; B < Batches; ++B) {
    Events.clear();
    Want.clear();
    Gen.nextBatch(BatchLen, Events, Want);
    BatchRequest Req;
    Req.SessionId = Open.value().SessionId;
    Req.Events = std::move(Events);
    auto T0 = std::chrono::steady_clock::now();
    Expected<BatchReply> R = C.runBatch(Req);
    auto T1 = std::chrono::steady_clock::now();
    Events = std::move(Req.Events);
    if (!R) {
      std::cerr << "batch failed: " << R.status().render() << "\n";
      return;
    }
    if (R.value().Results != Want) {
      std::cerr << "bench differential mismatch on " << Machine << "\n";
      std::exit(1); // a wrong answer invalidates the whole measurement
    }
    LatenciesUs.push_back(
        std::chrono::duration<double, std::micro>(T1 - T0).count());
    EventsDone += BatchLen;
  }
  (void)C.closeSession(Open.value().SessionId);
}

/// The single-thread reference: the same seeded stream against a local
/// module, no server in the way.
double singleThreadMqps(const MachineDescription &Reduced, size_t Batches,
                        size_t BatchLen) {
  WorkloadGenerator Gen(Reduced, QueryConfig::linear(0), /*Seed=*/0xb00);
  std::vector<BatchEvent> Events;
  std::vector<uint8_t> Want;
  auto T0 = std::chrono::steady_clock::now();
  for (size_t B = 0; B < Batches; ++B) {
    Events.clear();
    Want.clear();
    Gen.nextBatch(BatchLen, Events, Want);
  }
  auto T1 = std::chrono::steady_clock::now();
  double Seconds = std::chrono::duration<double>(T1 - T0).count();
  return Seconds > 0 ? (Batches * BatchLen) / Seconds / 1e6 : 0;
}

BenchResult benchMachine(const std::string &Name, size_t Clients,
                         size_t Batches, size_t BatchLen) {
  BenchResult Out;
  Out.Machine = Name;
  Out.Clients = Clients;

  Expected<MachineModel> Model = loadMachine(Name);
  if (!Model) {
    std::cerr << "server_throughput: " << Model.status().message() << "\n";
    std::exit(1);
  }
  ExpandedMachine EM = expandAlternatives(Model.value().MD);
  SafeReduction Safe = reduceMachineOrFallback(EM.Flat);
  const MachineDescription &Reduced = Safe.Result.Reduced;

  Out.SingleMqps = singleThreadMqps(Reduced, Batches, BatchLen);

  ServerOptions Options;
  Options.SocketPath =
      "@rmd-bench-" + std::to_string(::getpid()) + "-" + Name;
  Options.Workers = 0; // one per core
  Options.QueueCapacity = Clients * 4;
  Expected<std::unique_ptr<RmdServer>> Server =
      RmdServer::start(std::move(Options));
  if (!Server) {
    std::cerr << "server start failed: " << Server.status().render() << "\n";
    std::exit(1);
  }
  // Load once up front so client timings measure queries, not reduction.
  {
    Expected<std::unique_ptr<RmdClient>> Warm =
        RmdClient::connect(Server.value()->socketPath(), 120000);
    if (Warm)
      (void)Warm.value()->loadMachine(Name);
  }

  std::vector<std::vector<double>> Latencies(Clients);
  std::vector<uint64_t> Events(Clients, 0);
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Clients; ++I)
    Threads.emplace_back(runClient, Server.value()->socketPath(), Name,
                         std::cref(Reduced), /*Seed=*/0xb000 + I, Batches,
                         BatchLen, std::ref(Latencies[I]),
                         std::ref(Events[I]));
  for (std::thread &T : Threads)
    T.join();
  auto T1 = std::chrono::steady_clock::now();
  Server.value()->stop();

  std::vector<double> All;
  for (const std::vector<double> &L : Latencies)
    All.insert(All.end(), L.begin(), L.end());
  uint64_t TotalEvents = 0;
  for (uint64_t E : Events)
    TotalEvents += E;
  if (All.empty() || TotalEvents == 0) {
    std::cerr << "server_throughput: no successful requests on " << Name
              << "\n";
    std::exit(1);
  }
  std::sort(All.begin(), All.end());
  Out.P50Us = All[All.size() / 2];
  Out.P99Us = All[std::min(All.size() - 1, All.size() * 99 / 100)];
  double Seconds = std::chrono::duration<double>(T1 - T0).count();
  Out.Mqps = Seconds > 0 ? TotalEvents / Seconds / 1e6 : 0;
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  size_t Clients = 8;
  size_t Batches = 64;
  size_t BatchLen = 4096;
  std::string Out;
  std::vector<std::string> Machines = {"fig1", "mips-r3000", "m88100",
                                       "cydra5"};
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--clients=", 0) == 0)
      Clients = std::stoul(Arg.substr(10));
    else if (Arg.rfind("--batches=", 0) == 0)
      Batches = std::stoul(Arg.substr(10));
    else if (Arg.rfind("--batch=", 0) == 0)
      BatchLen = std::stoul(Arg.substr(8));
    else if (Arg.rfind("--out=", 0) == 0)
      Out = Arg.substr(6);
    else if (Arg.rfind("--machines=", 0) == 0) {
      Machines.clear();
      std::stringstream SS(Arg.substr(11));
      std::string Name;
      while (std::getline(SS, Name, ','))
        Machines.push_back(Name);
    } else {
      std::cerr << "usage: server_throughput [--clients=<n>] "
                   "[--batches=<n>] [--batch=<events>] "
                   "[--machines=<a,b,...>] [--out=<file>]\n";
      return Arg == "--help" ? 0 : 1;
    }
  }

  std::ostringstream Json;
  Json << "{\n  \"schema\": \"rmd-bench-v1\",\n"
       << "  \"tool\": \"server_throughput\",\n  \"machines\": [\n";
  for (size_t I = 0; I < Machines.size(); ++I) {
    BenchResult R = benchMachine(Machines[I], Clients, Batches, BatchLen);
    std::cerr << R.Machine << ": " << Clients << " clients, p50 " << R.P50Us
              << " us, p99 " << R.P99Us << " us, " << R.Mqps
              << " Mq/s aggregate (" << R.SingleMqps
              << " Mq/s single-thread local)\n";
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "    {\"machine\": \"%s\", \"server_clients\": %zu, "
                  "\"server_p50_us\": %.3f, \"server_p99_us\": %.3f, "
                  "\"server_mqps\": %.6f, "
                  "\"local_single_thread_mqps\": %.6f}%s\n",
                  R.Machine.c_str(), R.Clients, R.P50Us, R.P99Us, R.Mqps,
                  R.SingleMqps, I + 1 < Machines.size() ? "," : "");
    Json << Buf;
  }
  Json << "  ]\n}\n";

  if (Out.empty()) {
    std::cout << Json.str();
  } else {
    std::ofstream OS(Out);
    OS << Json.str();
    std::cerr << "wrote " << Out << "\n";
  }
  return 0;
}
