//===- server/Server.cpp --------------------------------------------------===//

#include "server/Server.h"

#include "query/DiscreteQuery.h" // hasModuloSelfConflict
#include "sched/GraphIO.h"
#include "sched/IterativeModuloScheduler.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"
#include "support/Stats.h"
#include "support/ThreadPool.h" // resolveThreadCount

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <sstream>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rmd;
using namespace rmd::server;
using namespace rmd::wire;

// Process-wide server counters (docs/observability.md, "server.*").
static StatCounter StatRequests("server.requests");
static StatCounter StatOverloads("server.overloaded");
static StatCounter StatProtocolErrors("server.protocol_errors");
static StatCounter StatSessionsOpened("server.sessions.opened");
static StatCounter StatSessionsClosed("server.sessions.closed");
static StatCounter StatBatchQueries("server.batch.queries");
static StatCounter StatScheduleLoops("server.schedule_loops");
static StatCounter StatAcceptDrops("server.accept.dropped");

/// Builds a sockaddr_un for \p Path. A leading '@' selects the Linux
/// abstract namespace: sun_path[0] is NUL and the name is not on the
/// filesystem, so tests and benches never create socket files.
static bool fillSockAddr(const std::string &Path, sockaddr_un &Addr,
                         socklen_t &Len) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path))
    return false;
  if (Path[0] == '@') {
    Addr.sun_path[0] = '\0';
    std::memcpy(Addr.sun_path + 1, Path.data() + 1, Path.size() - 1);
    Len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                 Path.size());
  } else {
    std::memcpy(Addr.sun_path, Path.data(), Path.size());
    Len = static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                 Path.size() + 1);
  }
  return true;
}

/// Reads exactly \p Size bytes; false on EOF/error.
static bool readFully(int Fd, void *Buf, size_t Size) {
  uint8_t *Out = static_cast<uint8_t *>(Buf);
  while (Size) {
    ssize_t N = ::recv(Fd, Out, Size, 0);
    if (N == 0)
      return false;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Out += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

/// Writes exactly \p Size bytes; false on a vanished peer.
static bool writeFully(int Fd, const void *Buf, size_t Size) {
  const uint8_t *In = static_cast<const uint8_t *>(Buf);
  while (Size) {
    // MSG_NOSIGNAL: a dead peer yields EPIPE, not a process-wide SIGPIPE.
    ssize_t N = ::send(Fd, In, Size, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    In += N;
    Size -= static_cast<size_t>(N);
  }
  return true;
}

RmdServer::RmdServer(ServerOptions TheOptions)
    : Options(std::move(TheOptions)) {}

Expected<std::unique_ptr<RmdServer>> RmdServer::start(ServerOptions Options) {
  if (Options.SocketPath.empty())
    Options.SocketPath = "@rmd-serve-" + std::to_string(::getpid());
  if (Options.QueueCapacity == 0)
    Options.QueueCapacity = 1;
  std::unique_ptr<RmdServer> Server(new RmdServer(std::move(Options)));
  Status S = Server->bindAndListen();
  if (!S)
    return S;
  Server->Options.Workers =
      ThreadPool::resolveThreadCount(Server->Options.Workers);
  Server->AcceptThread = std::thread([S = Server.get()] { S->acceptLoop(); });
  return Server;
}

RmdServer::~RmdServer() { stop(); }

Status RmdServer::bindAndListen() {
  sockaddr_un Addr;
  socklen_t Len;
  if (!fillSockAddr(Options.SocketPath, Addr, Len))
    return Status(ErrorCode::ProtocolError,
                  "bad socket path '" + Options.SocketPath + "'");
  ListenFd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (ListenFd < 0)
    return Status(ErrorCode::CacheIO,
                  std::string("socket(): ") + std::strerror(errno));
  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), Len) < 0) {
    Status S(ErrorCode::CacheIO, "bind('" + Options.SocketPath +
                                     "'): " + std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return S;
  }
  if (::listen(ListenFd, 64) < 0) {
    Status S(ErrorCode::CacheIO,
             std::string("listen(): ") + std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return S;
  }
  return Status::ok();
}

void RmdServer::acceptLoop() {
  while (true) {
    int Fd = ::accept4(ListenFd, nullptr, nullptr, SOCK_CLOEXEC);
    if (Fd < 0) {
      if (Stopping.load())
        break;
      if (errno == EINTR)
        continue;
      // EBADF/EINVAL mean the listen socket was torn down under us.
      if (errno == EBADF || errno == EINVAL)
        break;
      continue;
    }
    if (Stopping.load()) {
      ::close(Fd);
      break;
    }
    if (FaultInjection::fire(faultpoints::ServerAccept)) {
      // Injected accept failure: the connection attempt is dropped; the
      // loop keeps serving everyone else.
      StatAcceptDrops.add();
      ::close(Fd);
      continue;
    }
    reapFinishedReaders(false);
    std::lock_guard<std::mutex> Lock(ConnMutex);
    Connection &Conn = Connections.emplace_back();
    Conn.Fd = Fd;
    Conn.Id = NextConnId++;
    Conn.Reader = std::thread([this, &Conn] { readerLoop(Conn); });
  }
}

void RmdServer::readerLoop(Connection &Conn) {
  std::vector<uint8_t> Payload;
  while (true) {
    uint8_t LenBytes[4];
    if (!readFully(Conn.Fd, LenBytes, 4))
      break;
    uint32_t Len = 0;
    for (int I = 0; I < 4; ++I)
      Len |= static_cast<uint32_t>(LenBytes[I]) << (8 * I);
    if (Len == 0 || Len > kMaxFrameBytes) {
      // A garbage length prefix poisons the stream position; answer once
      // (best effort) and drop the connection rather than resync blindly.
      ProtocolErrors.fetch_add(1);
      StatProtocolErrors.add();
      sendFrame(Conn, encodeErrorReply(
                          0, MessageType::Ping,
                          Status(ErrorCode::ProtocolError,
                                 "frame length " + std::to_string(Len) +
                                     " outside (0, " +
                                     std::to_string(kMaxFrameBytes) + "]")));
      break;
    }
    Payload.resize(Len);
    if (!readFully(Conn.Fd, Payload.data(), Len))
      break;
    if (FaultInjection::fire(faultpoints::ServerEnqueue) || !admit()) {
      // Backpressure: every slot is busy and the waiting room is full (or
      // behaves as if, under the server.enqueue fault). The client gets a
      // structured Overloaded answer for *this* request and may retry;
      // nothing is dropped silently.
      MessageType Type;
      uint32_t RequestId;
      peekFrame(Payload, Type, RequestId);
      Overloads.fetch_add(1);
      StatOverloads.add();
      sendFrame(Conn, encodeErrorReply(
                          RequestId, Type,
                          Status(ErrorCode::Overloaded,
                                 "server request queue is full")));
      continue;
    }
    RequestsServed.fetch_add(1);
    StatRequests.add();
    handleRequest(Conn, Payload);
    release();
  }
  closeConnectionSessions(Conn.Id);
  ::close(Conn.Fd);
  Conn.Done.store(true);
}

bool RmdServer::admit() {
  std::unique_lock<std::mutex> Lock(AdmitMutex);
  if (Running == Options.Workers) {
    if (Waiting == Options.QueueCapacity)
      return false;
    ++Waiting;
    SlotFreed.wait(Lock, [this] { return Running < Options.Workers; });
    --Waiting;
  }
  ++Running;
  return true;
}

void RmdServer::release() {
  {
    std::lock_guard<std::mutex> Lock(AdmitMutex);
    --Running;
  }
  SlotFreed.notify_one();
}

void RmdServer::reapFinishedReaders(bool JoinAll) {
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (auto It = Connections.begin(); It != Connections.end();) {
    if (JoinAll || It->Done.load()) {
      if (It->Reader.joinable())
        It->Reader.join();
      It = Connections.erase(It);
    } else {
      ++It;
    }
  }
}

void RmdServer::closeConnectionSessions(uint64_t ConnId) {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  for (auto It = Sessions.begin(); It != Sessions.end();) {
    if (It->second->ConnId == ConnId) {
      StatSessionsClosed.add();
      It = Sessions.erase(It);
    } else {
      ++It;
    }
  }
}

void RmdServer::stop() {
  if (Stopped.exchange(true))
    return;
  Stopping.store(true);
  StopToken.cancel(); // abandon in-flight schedule-loops promptly
  if (ListenFd >= 0)
    ::shutdown(ListenFd, SHUT_RDWR);
  {
    // Wake blocked readers so they observe EOF and tear down.
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (Connection &C : Connections)
      ::shutdown(C.Fd, SHUT_RDWR);
  }
  if (AcceptThread.joinable())
    AcceptThread.join();
  reapFinishedReaders(true);
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  if (!Options.SocketPath.empty() && Options.SocketPath[0] != '@')
    ::unlink(Options.SocketPath.c_str());
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    for ([[maybe_unused]] auto &Entry : Sessions)
      StatSessionsClosed.add();
    Sessions.clear();
  }
  ShutdownCv.notify_all();
}

void RmdServer::waitForShutdown() {
  // Polls so requestShutdownAsync() can stay signal-handler-safe (a bare
  // atomic store; no cv notify needed from the handler).
  std::unique_lock<std::mutex> Lock(ShutdownMutex);
  while (!ShutdownRequested.load() && !Stopping.load())
    ShutdownCv.wait_for(Lock, std::chrono::milliseconds(50));
}

size_t RmdServer::sessionCount() const {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  return Sessions.size();
}

void RmdServer::sendFrame(Connection &Conn,
                          const std::vector<uint8_t> &Payload) {
  uint8_t LenBytes[4];
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I < 4; ++I)
    LenBytes[I] = static_cast<uint8_t>(Len >> (8 * I));
  if (writeFully(Conn.Fd, LenBytes, 4))
    writeFully(Conn.Fd, Payload.data(), Payload.size());
}

void RmdServer::peekFrame(const std::vector<uint8_t> &Payload,
                          MessageType &Type, uint32_t &RequestId) {
  Type = MessageType::Ping;
  RequestId = 0;
  if (Payload.size() >= 2) {
    uint8_t Bare = Payload[1] & ~kResponseBit;
    if (Bare >= static_cast<uint8_t>(MessageType::Ping) &&
        Bare <= static_cast<uint8_t>(MessageType::Shutdown))
      Type = static_cast<MessageType>(Bare);
  }
  if (Payload.size() >= 8)
    for (int I = 0; I < 4; ++I)
      RequestId |= static_cast<uint32_t>(Payload[4 + I]) << (8 * I);
}

void RmdServer::sendError(Connection &Conn, MessageType Type,
                          uint32_t RequestId, Status Error) {
  if (Error.code() == ErrorCode::ProtocolError) {
    ProtocolErrors.fetch_add(1);
    StatProtocolErrors.add();
  }
  sendFrame(Conn, encodeErrorReply(RequestId, Type, Error));
}

void RmdServer::handleRequest(Connection &Conn,
                              const std::vector<uint8_t> &Payload) {
  WireReader In(Payload);
  Expected<FrameHeader> Header = decodeHeader(In, /*ExpectResponse=*/false);
  if (!Header) {
    MessageType Type;
    uint32_t RequestId;
    peekFrame(Payload, Type, RequestId);
    sendError(Conn, Type, RequestId, Header.status());
    return;
  }
  MessageType Type = static_cast<MessageType>(Header.value().Type);
  uint32_t RequestId = Header.value().RequestId;

  Status Error = Status::ok();
  std::vector<uint8_t> Reply;
  switch (Type) {
  case MessageType::Ping: {
    Expected<PingRequest> R = decodePingRequest(In);
    if (!R)
      Error = R.status();
    else
      Reply = encodeReply(RequestId, PingReply{});
    break;
  }
  case MessageType::LoadMachine: {
    Expected<LoadMachineRequest> R = decodeLoadMachineRequest(In);
    if (!R)
      Error = R.status();
    else
      Reply = handleLoadMachine(R.value(), RequestId, Error);
    break;
  }
  case MessageType::OpenSession: {
    Expected<OpenSessionRequest> R = decodeOpenSessionRequest(In);
    if (!R)
      Error = R.status();
    else
      Reply = handleOpenSession(R.value(), Conn.Id, RequestId, Error);
    break;
  }
  case MessageType::Batch: {
    Expected<BatchRequest> R = decodeBatchRequest(In);
    if (!R)
      Error = R.status();
    else
      Reply = handleBatch(R.value(), Conn.Id, RequestId, Error);
    break;
  }
  case MessageType::ScheduleLoop: {
    Expected<ScheduleLoopRequest> R = decodeScheduleLoopRequest(In);
    if (!R)
      Error = R.status();
    else
      Reply = handleScheduleLoop(R.value(), RequestId, Error);
    break;
  }
  case MessageType::Stats: {
    Expected<StatsRequest> R = decodeStatsRequest(In);
    if (!R)
      Error = R.status();
    else
      Reply = handleStats(R.value(), Conn.Id, RequestId, Error);
    break;
  }
  case MessageType::CloseSession: {
    Expected<CloseSessionRequest> R = decodeCloseSessionRequest(In);
    if (!R)
      Error = R.status();
    else
      Reply = handleCloseSession(R.value(), Conn.Id, RequestId, Error);
    break;
  }
  case MessageType::Shutdown: {
    Expected<ShutdownRequest> R = decodeShutdownRequest(In);
    if (!R) {
      Error = R.status();
      break;
    }
    Reply = encodeReply(RequestId, ShutdownReply{});
    sendFrame(Conn, Reply);
    ShutdownRequested.store(true);
    ShutdownCv.notify_all();
    return; // reply already sent
  }
  }

  if (!Error.isOk())
    sendError(Conn, Type, RequestId, std::move(Error));
  else
    sendFrame(Conn, Reply);
}

std::vector<uint8_t>
RmdServer::handleLoadMachine(const LoadMachineRequest &R, uint32_t RequestId,
                             Status &Error) {
  Expected<const LoadedMachine *> M = Registry.load(R.Name);
  if (!M) {
    Error = M.status();
    return {};
  }
  LoadMachineReply Reply;
  Reply.MachineId = M.value()->id();
  Reply.Degraded = M.value()->degraded();
  Reply.Bitvector = M.value()->usesBitvector();
  Reply.NumOperations =
      static_cast<uint32_t>(M.value()->reduced().numOperations());
  Reply.OriginalResources =
      static_cast<uint32_t>(M.value()->model().MD.numResources());
  Reply.ReducedResources =
      static_cast<uint32_t>(M.value()->reduced().numResources());
  return encodeReply(RequestId, Reply);
}

std::vector<uint8_t>
RmdServer::handleOpenSession(const OpenSessionRequest &R, uint64_t ConnId,
                             uint32_t RequestId, Status &Error) {
  if (FaultInjection::fire(faultpoints::ServerSessionAlloc)) {
    // Injected allocation failure: a structured error, no session
    // registered (FaultInjectionTest asserts the count returns to zero).
    Error = Status(ErrorCode::FaultInjected,
                   "injected session-allocation failure");
    return {};
  }
  const LoadedMachine *M = Registry.byId(R.MachineId);
  if (!M) {
    Error = Status(ErrorCode::ProtocolError,
                   "unknown machine id " + std::to_string(R.MachineId));
    return {};
  }
  QueryConfig Config;
  if (R.Modulo) {
    if (R.ModuloII <= 0 || R.ModuloII > (1 << 16)) {
      Error = Status(ErrorCode::ProtocolError,
                     "modulo session needs an II in [1, 65536], got " +
                         std::to_string(R.ModuloII));
      return {};
    }
    Config = QueryConfig::modulo(R.ModuloII);
  } else {
    Config = QueryConfig::linear(R.MinCycle);
  }
  Config.UnionAlternativeCheck = R.UnionAlt != 0;

  auto S = std::make_unique<Session>();
  S->ConnId = ConnId;
  S->Machine = M;
  S->Config = Config;
  S->Tenant = R.Tenant;
  S->Module = M->makeModule(Config);
  if (R.Modulo) {
    const MachineDescription &MD = M->reduced();
    S->SelfConflict.assign(MD.numOperations(), 0);
    for (OpId Op = 0; Op < MD.numOperations(); ++Op)
      S->SelfConflict[Op] =
          hasModuloSelfConflict(MD.operation(Op).table(), R.ModuloII);
  }
  OpenSessionReply Reply;
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    S->Id = Reply.SessionId = NextSessionId++;
    Sessions.emplace(S->Id, std::move(S));
  }
  StatSessionsOpened.add();
  return encodeReply(RequestId, Reply);
}

RmdServer::Session *RmdServer::findSession(uint32_t Id, uint64_t ConnId,
                                           Status &Error) {
  std::lock_guard<std::mutex> Lock(SessionsMutex);
  auto It = Sessions.find(Id);
  if (It == Sessions.end()) {
    Error = Status(ErrorCode::ProtocolError,
                   "unknown session id " + std::to_string(Id));
    return nullptr;
  }
  if (It->second->ConnId != ConnId) {
    // Tenant isolation: a session is visible only to the connection that
    // opened it; a stray or malicious handle gets the same error as a
    // nonexistent one (no probing which ids are live elsewhere).
    Error = Status(ErrorCode::ProtocolError,
                   "unknown session id " + std::to_string(Id));
    return nullptr;
  }
  return It->second.get();
}

std::vector<uint8_t> RmdServer::handleBatch(const BatchRequest &R,
                                            uint64_t ConnId,
                                            uint32_t RequestId,
                                            Status &Error) {
  Session *S = findSession(R.SessionId, ConnId, Error);
  if (!S)
    return {};

  // Validate the whole batch before touching the module: the query API
  // treats out-of-range ops/cycles and self-conflicting placements as
  // caller contract violations (asserts), so the trust boundary is here.
  const size_t NumOps = S->Machine->reduced().numOperations();
  const bool Modulo = S->Config.Mode == QueryConfig::Modulo;
  for (size_t I = 0; I < R.Events.size(); ++I) {
    const BatchEvent &E = R.Events[I];
    std::string What;
    if (E.TheVerb != Verb::Reset && E.Op >= NumOps)
      What = "operation " + std::to_string(E.Op) + " out of range";
    else if (!Modulo && E.TheVerb != Verb::Reset &&
             E.Cycle < S->Config.MinCycle)
      What = "cycle " + std::to_string(E.Cycle) +
             " below the session's linear window";
    else if (Modulo && !S->SelfConflict.empty() && S->SelfConflict[E.Op] &&
             (E.TheVerb == Verb::Assign || E.TheVerb == Verb::AssignFree ||
              E.TheVerb == Verb::CheckAssign))
      What = "operation " + std::to_string(E.Op) +
             " self-conflicts at this II and can never be placed";
    else if (E.TheVerb != Verb::Reset && E.TheVerb != Verb::Check &&
             E.Instance == std::numeric_limits<InstanceId>::min())
      // The modules' instance tables reserve this id as their empty slot.
      What = "instance " + std::to_string(E.Instance) + " is reserved";
    if (!What.empty()) {
      Error = Status(ErrorCode::ProtocolError,
                     "event " + std::to_string(I) + ": " + What);
      return {};
    }
  }

  BatchReply Reply;
  Reply.Results.resize(R.Events.size());
  std::vector<InstanceId> Evicted;
  ContentionQueryModule &Q = *S->Module;
  for (size_t I = 0; I < R.Events.size(); ++I) {
    const BatchEvent &E = R.Events[I];
    switch (E.TheVerb) {
    case Verb::Check:
      Reply.Results[I] = Q.check(E.Op, E.Cycle) ? 1 : 0;
      break;
    case Verb::Assign:
      Q.assign(E.Op, E.Cycle, E.Instance);
      ++S->LiveInstances;
      Reply.Results[I] = kResultDone;
      break;
    case Verb::Free:
      Q.free(E.Op, E.Cycle, E.Instance);
      --S->LiveInstances;
      Reply.Results[I] = kResultDone;
      break;
    case Verb::CheckAssign:
      if (Q.check(E.Op, E.Cycle)) {
        Q.assign(E.Op, E.Cycle, E.Instance);
        ++S->LiveInstances;
        Reply.Results[I] = 1;
      } else {
        Reply.Results[I] = 0;
      }
      break;
    case Verb::AssignFree: {
      Evicted.clear();
      Q.assignAndFree(E.Op, E.Cycle, E.Instance, Evicted);
      S->LiveInstances += 1;
      S->LiveInstances -= Evicted.size();
      Reply.Results[I] = static_cast<uint8_t>(
          std::min<size_t>(Evicted.size(), 0xFE));
      break;
    }
    case Verb::Reset:
      Q.reset();
      S->LiveInstances = 0;
      Reply.Results[I] = kResultDone;
      break;
    }
  }
  StatBatchQueries.add(R.Events.size());
  if (!S->Tenant.empty()) {
    // Per-tenant accounting: a counter per tenant name, registered lazily
    // (the registry is idempotent per name) and summed across sessions.
    StatCounter("server.tenant." + S->Tenant + ".queries")
        .add(R.Events.size());
  }
  return encodeReply(RequestId, Reply);
}

std::vector<uint8_t>
RmdServer::handleScheduleLoop(const ScheduleLoopRequest &R,
                              uint32_t RequestId, Status &Error) {
  const LoadedMachine *M = Registry.byId(R.MachineId);
  if (!M) {
    Error = Status(ErrorCode::ProtocolError,
                   "unknown machine id " + std::to_string(R.MachineId));
    return {};
  }
  DiagnosticEngine Diags;
  std::optional<DepGraph> G = parseLoopGraph(R.GraphText, M->model(), Diags);
  if (!G) {
    std::ostringstream SS;
    Diags.print(SS, "<loop-graph>");
    Error = Status(ErrorCode::ParseError, SS.str());
    return {};
  }

  QueryEnvironment Env;
  Env.FlatMD = &M->reduced();
  Env.Groups = &M->groups();
  Env.MakeModule = [M](QueryConfig Config) { return M->makeModule(Config); };

  ModuloScheduleOptions Opts;
  Opts.BudgetRatio = std::max(1, static_cast<int>(R.BudgetRatio));
  Opts.MaxII = std::max(0, static_cast<int>(R.MaxII));
  if (R.DeadlineMs > 0)
    Opts.TheDeadline = Deadline::afterMillis(R.DeadlineMs);
  Opts.Cancel = &StopToken; // server stop abandons the run

  ModuloScheduleResult Result = moduloSchedule(*G, M->model().MD, Env, Opts);
  StatScheduleLoops.add();

  ScheduleLoopReply Reply;
  Reply.Success = Result.Success;
  Reply.Outcome = static_cast<uint8_t>(Result.Outcome);
  Reply.II = Result.II;
  Reply.Time.assign(Result.Time.begin(), Result.Time.end());
  Reply.Alternative.assign(Result.Alternative.begin(),
                           Result.Alternative.end());
  Reply.Message = Result.Success ? "" : Result.Error.render();
  return encodeReply(RequestId, Reply);
}

std::vector<uint8_t> RmdServer::handleStats(const StatsRequest &R,
                                            uint64_t ConnId,
                                            uint32_t RequestId,
                                            Status &Error) {
  StatsReply Reply;
  if (R.SessionId == 0) {
    Reply.ServerWide = 1;
    Reply.Server.ActiveSessions = sessionCount();
    Reply.Server.MachinesLoaded = Registry.size();
    Reply.Server.RequestsServed = RequestsServed.load();
    Reply.Server.OverloadRejections = Overloads.load();
    Reply.Server.ProtocolErrors = ProtocolErrors.load();
    return encodeReply(RequestId, Reply);
  }
  Session *S = findSession(R.SessionId, ConnId, Error);
  if (!S)
    return {};
  Reply.Session.Counters = S->Module->counters();
  Reply.Session.LiveInstances = S->LiveInstances;
  return encodeReply(RequestId, Reply);
}

std::vector<uint8_t>
RmdServer::handleCloseSession(const CloseSessionRequest &R, uint64_t ConnId,
                              uint32_t RequestId, Status &Error) {
  if (!findSession(R.SessionId, ConnId, Error))
    return {};
  {
    std::lock_guard<std::mutex> Lock(SessionsMutex);
    Sessions.erase(R.SessionId);
  }
  StatSessionsClosed.add();
  return encodeReply(RequestId, CloseSessionReply{});
}
