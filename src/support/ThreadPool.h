//===- support/ThreadPool.h - Deterministic block-parallel pool -*- C++ -*-===//
///
/// \file
/// A small reusable worker pool serving only the reduction pipeline (the
/// contention-query server runs each request on its connection's thread
/// and needs no pool). The only primitive is parallelFor(): a half-open
/// index range is split into one contiguous block per participating
/// thread and each block is processed by exactly one thread. Blocks are assigned by block index, never by work
/// stealing, so the (block -> thread) mapping is deterministic — callers
/// that write only to per-index slots get bit-identical results at every
/// thread count by construction.
///
/// Design notes:
///   - Workers are started once and parked on a condition variable between
///     calls; a parallelFor() costs two lock/notify handshakes, cheap
///     enough to run once per elementary pair in Algorithm 1.
///   - A pool with concurrency() == 1 has no worker threads at all and runs
///     every block inline on the caller, so sequential execution is the
///     literal same code path as parallel execution with one block.
///   - parallelFor() is not reentrant (no nested parallelism) and the pool
///     must not be shared between concurrent parallelFor() callers; the
///     reduction pipeline drives it from a single thread.
///   - A block body that throws does NOT take the process down: the first
///     exception thrown by any block is captured and rethrown from
///     parallelFor() on the calling thread after every block has finished
///     (instead of std::terminate on a worker). Later exceptions of the
///     same call are discarded. The pool remains usable afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef RMD_SUPPORT_THREADPOOL_H
#define RMD_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rmd {

/// A fixed-size worker pool running contiguous index blocks; see file
/// comment for the determinism contract.
class ThreadPool {
public:
  /// Creates a pool that runs up to \p Threads blocks concurrently
  /// (including the calling thread); \p Threads == 0 asks for one thread
  /// per hardware core. The pool spawns Threads - 1 workers.
  explicit ThreadPool(unsigned Threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of threads that participate in a parallelFor (workers + the
  /// caller). Always >= 1.
  unsigned concurrency() const { return NumThreads; }

  /// Invokes \p Body(BlockBegin, BlockEnd) over a partition of
  /// [\p Begin, \p End) into at most concurrency() contiguous blocks; every
  /// index is covered exactly once. Blocks run concurrently; the call
  /// returns after every block has finished. \p Body must be safe to invoke
  /// concurrently from different threads on disjoint blocks.
  ///
  /// \p MinPerBlock caps the split: fewer blocks are used when the range is
  /// small, and a range of at most MinPerBlock indices runs inline on the
  /// caller with no synchronization at all.
  ///
  /// If any block throws, the first captured exception is rethrown here
  /// after all blocks have finished (see the file comment).
  void parallelFor(size_t Begin, size_t End,
                   const std::function<void(size_t, size_t)> &Body,
                   size_t MinPerBlock = 1);

  /// Resolves the \p Threads convention of ReductionOptions: 0 means one
  /// per hardware core, anything else is taken literally.
  static unsigned resolveThreadCount(unsigned Threads);

private:
  void workerLoop(unsigned WorkerIndex);

  /// Runs \p Body over [BlockBegin, BlockEnd), capturing the first
  /// exception of the current parallelFor into TaskError.
  void runBlock(const std::function<void(size_t, size_t)> &Body,
                size_t BlockBegin, size_t BlockEnd);

  unsigned NumThreads = 1;
  std::vector<std::thread> Workers;

  // State of the in-flight parallelFor, guarded by Mutex. Generation is
  // bumped per call so parked workers can tell a new job from a stale
  // wakeup.
  std::mutex Mutex;
  std::condition_variable WakeWorkers;
  std::condition_variable JobDone;
  uint64_t Generation = 0;
  bool ShuttingDown = false;
  const std::function<void(size_t, size_t)> *Body = nullptr;
  size_t JobBegin = 0, JobEnd = 0, BlockSize = 0;
  unsigned NumBlocks = 0;
  unsigned BlocksRemaining = 0; // blocks not yet finished (incl. caller's)
  std::exception_ptr TaskError; // first exception of the in-flight call
};

} // namespace rmd

#endif // RMD_SUPPORT_THREADPOOL_H
