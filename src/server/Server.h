//===- server/Server.h - Multi-tenant contention-query server --*- C++ -*-===//
///
/// \file
/// Scheduling as a service: a long-running daemon that loads machine
/// descriptions once — reduced through the existing pipeline, bitvector
/// pattern arenas shared read-only across sessions — and answers
/// contention queries and schedule-loop requests for many concurrent
/// clients over a local stream socket (rmd-wire-v1, server/Protocol.h).
///
/// Threading model: one accept thread and one thread per connection.
/// RmdClient is strictly request/response and a session is usable only
/// over the connection that opened it, so each connection's thread runs
/// every request it reads to completion: read the frame, admit, handle,
/// send the reply, release. Admission bounds the work in flight —
/// ServerOptions::Workers requests execute at once and at most
/// QueueCapacity more wait for a slot; a request that finds both full is
/// answered ErrorCode::Overloaded immediately instead of stalling the
/// socket, so a client always knows whether its request was accepted.
/// Mutable state is per-session and lock-free (see Session); everything
/// sessions share — reduced descriptions, pattern arenas — is immutable
/// by construction.
///
/// Degradation ladder: machine loading rides reduceMachineOrFallback (a
/// failed reduction serves the original description and reports Degraded);
/// schedule-loop requests run under the scheduler's Deadline and the
/// server's CancellationToken, so stop() abandons in-flight scheduling
/// instead of waiting out II escalation. Fault points server.accept,
/// server.enqueue, and server.session_alloc (support/FaultInjection.h)
/// exercise the drop/overload/failed-alloc paths deterministically.
///
/// docs/server.md covers the protocol, session lifecycle, and operational
/// notes; rmdserved.cpp / rmdctl.cpp are the CLI front ends.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_SERVER_SERVER_H
#define RMD_SERVER_SERVER_H

#include "server/MachineRegistry.h"
#include "server/Protocol.h"
#include "support/Deadline.h"
#include "support/Status.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rmd {
namespace server {

struct ServerOptions {
  /// Local socket address. A leading '@' selects the Linux abstract
  /// namespace (no filesystem entry, auto-reclaimed on close) — the
  /// default for tests and benches so nothing is written outside the
  /// repo. Any other spelling is a filesystem socket path.
  std::string SocketPath;

  /// Requests that may execute at once; 0 = one per hardware core.
  unsigned Workers = 0;

  /// Requests that may wait for an execution slot; a request that finds
  /// every slot busy and this many already waiting answers Overloaded.
  size_t QueueCapacity = 256;
};

/// The server; see the file comment. start() binds and spawns the serving
/// threads; the destructor (or stop()) tears everything down, closing any
/// sessions that are still open.
class RmdServer {
public:
  static Expected<std::unique_ptr<RmdServer>> start(ServerOptions Options);
  ~RmdServer();

  RmdServer(const RmdServer &) = delete;
  RmdServer &operator=(const RmdServer &) = delete;

  /// Stops accepting, cancels in-flight scheduling, drains and joins every
  /// thread, and closes all sessions. Idempotent; must not be called from
  /// a serving thread (a Shutdown request signals instead, see
  /// waitForShutdown()).
  void stop();

  /// Blocks until a client sends Shutdown or stop() is called.
  void waitForShutdown();

  /// Unblocks waitForShutdown() without tearing anything down. Only
  /// touches an atomic flag, so it is safe from a signal handler (the
  /// waiter polls); the caller then runs stop() from a normal thread.
  void requestShutdownAsync() { ShutdownRequested.store(true); }

  const std::string &socketPath() const { return Options.SocketPath; }
  unsigned workerCount() const { return Options.Workers; }
  size_t queueCapacity() const { return Options.QueueCapacity; }

  /// Open sessions right now (0 after stop(): teardown closes them all).
  size_t sessionCount() const;

  uint64_t requestsServed() const { return RequestsServed.load(); }
  uint64_t overloadRejections() const { return Overloads.load(); }
  uint64_t protocolErrors() const { return ProtocolErrors.load(); }

private:
  explicit RmdServer(ServerOptions Options);

  /// One accepted socket and the thread that serves it.
  struct Connection {
    int Fd = -1;
    uint64_t Id = 0;
    std::thread Reader;
    std::atomic<bool> Done{false};
  };

  /// Used only by the thread of connection ConnId, and by stop() after
  /// joining it, so it needs no lock.
  struct Session {
    uint32_t Id = 0;
    uint64_t ConnId = 0;
    const LoadedMachine *Machine = nullptr;
    QueryConfig Config;
    std::string Tenant;
    std::unique_ptr<ContentionQueryModule> Module;
    /// Ops that self-conflict at this II (modulo sessions; empty
    /// otherwise). Assign/AssignFree on them is rejected up front — the
    /// module treats that as a caller contract violation.
    std::vector<uint8_t> SelfConflict;
    uint64_t LiveInstances = 0;
  };

  Status bindAndListen();
  void acceptLoop();
  void readerLoop(Connection &Conn);
  /// Takes an execution slot, waiting for one while the waiting room has
  /// space; false when it has none (the caller answers Overloaded).
  bool admit();
  void release();
  void reapFinishedReaders(bool JoinAll);
  void closeConnectionSessions(uint64_t ConnId);

  /// Writes one length-prefixed frame (best-effort: a vanished peer is not
  /// an error worth acting on beyond teardown).
  void sendFrame(Connection &Conn, const std::vector<uint8_t> &Payload);

  /// Best-effort (type, request id) extraction from a raw payload, for
  /// error replies to frames that cannot be decoded normally.
  static void peekFrame(const std::vector<uint8_t> &Payload,
                        wire::MessageType &Type, uint32_t &RequestId);

  void handleRequest(Connection &Conn, const std::vector<uint8_t> &Payload);
  void sendError(Connection &Conn, wire::MessageType Type, uint32_t RequestId,
                 Status Error);

  std::vector<uint8_t> handleLoadMachine(const wire::LoadMachineRequest &R,
                                         uint32_t RequestId, Status &Error);
  std::vector<uint8_t> handleOpenSession(const wire::OpenSessionRequest &R,
                                         uint64_t ConnId, uint32_t RequestId,
                                         Status &Error);
  std::vector<uint8_t> handleBatch(const wire::BatchRequest &R,
                                   uint64_t ConnId, uint32_t RequestId,
                                   Status &Error);
  std::vector<uint8_t> handleScheduleLoop(const wire::ScheduleLoopRequest &R,
                                          uint32_t RequestId, Status &Error);
  std::vector<uint8_t> handleStats(const wire::StatsRequest &R,
                                   uint64_t ConnId, uint32_t RequestId,
                                   Status &Error);
  std::vector<uint8_t> handleCloseSession(const wire::CloseSessionRequest &R,
                                          uint64_t ConnId, uint32_t RequestId,
                                          Status &Error);

  /// Looks up a session, enforcing connection ownership (a session is
  /// usable only over the connection that opened it).
  Session *findSession(uint32_t Id, uint64_t ConnId, Status &Error);

  ServerOptions Options;
  int ListenFd = -1;
  std::atomic<bool> Stopping{false};
  std::atomic<bool> Stopped{false};
  CancellationToken StopToken; ///< cancels in-flight schedule-loops

  MachineRegistry Registry;

  std::thread AcceptThread;

  std::mutex AdmitMutex;
  std::condition_variable SlotFreed;
  unsigned Running = 0; ///< requests holding an execution slot
  size_t Waiting = 0;   ///< requests waiting for one

  std::mutex ConnMutex;
  std::list<Connection> Connections;
  uint64_t NextConnId = 1;

  mutable std::mutex SessionsMutex;
  std::map<uint32_t, std::unique_ptr<Session>> Sessions;
  uint32_t NextSessionId = 1;

  std::mutex ShutdownMutex;
  std::condition_variable ShutdownCv;
  std::atomic<bool> ShutdownRequested{false};

  std::atomic<uint64_t> RequestsServed{0};
  std::atomic<uint64_t> Overloads{0};
  std::atomic<uint64_t> ProtocolErrors{0};
};

} // namespace server
} // namespace rmd

#endif // RMD_SERVER_SERVER_H
