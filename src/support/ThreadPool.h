//===----------------------------------------------------------------------===//
///
/// \file
/// A shared worker-thread pool with a deadlock-free fork/join primitive.
/// One pool (ThreadPool::global(), sized to the hardware) backs every
/// parallel stage: batch items (driver/BatchRunner, `aflc --batch -j N`),
/// the solver's shard groups on large systems (solver/Solver.cpp) and
/// the socket server's connections (driver/Server), so nested stages
/// share one set of threads instead of each spawning its own.
///
/// The only primitive is parallelFor(Items, MaxWorkers, Fn): run
/// Fn(0..Items-1) with at most MaxWorkers concurrent executors and block
/// until every item finished. The *calling* thread always participates:
/// it claims items from the same atomic cursor the pool workers steal
/// from. That is what makes nesting safe — a pool worker that issues an
/// inner parallelFor drains the inner batch itself even when every other
/// worker is busy, so the pool can never deadlock on its own capacity,
/// and a pool of size zero (or a fully loaded pool) degrades to inline
/// sequential execution rather than blocking.
///
/// Determinism contract: parallelFor guarantees only that every item runs
/// exactly once and has completed when the call returns (a full
/// happens-before barrier). Callers that need deterministic *results*
/// must make item slots independent (write only slot I from item I) or
/// merge in item order afterwards — see the batch runner.
///
//===----------------------------------------------------------------------===//

#ifndef AFL_SUPPORT_THREADPOOL_H
#define AFL_SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace afl {

class ThreadPool {
public:
  /// Work accounting for one parallelFor call (surfaced as the
  /// steal/queue counters in ClosureStats and `aflc --metrics`).
  struct RunStats {
    /// Items executed (== the Items argument).
    size_t Items = 0;
    /// Items the calling thread executed inline.
    size_t RanByCaller = 0;
    /// Items stolen by pool workers.
    size_t RanByWorkers = 0;
    /// Drainer tasks enqueued to the pool (≤ MaxWorkers - 1).
    size_t TasksQueued = 0;
    /// Executors that ran at least one item (caller included).
    unsigned WorkersEngaged = 0;
  };

  /// Creates \p Threads worker threads (0 = none; parallelFor then runs
  /// everything inline on the caller).
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned numThreads() const {
    return NumWorkers.load(std::memory_order_relaxed);
  }

  /// Runs \p Fn(I) for every I in [0, Items) with at most \p MaxWorkers
  /// concurrent executors (the caller plus up to MaxWorkers - 1 pool
  /// workers; MaxWorkers == 0 means "pool size + 1"). Blocks until all
  /// items completed. \p Fn must not throw. Reentrant: \p Fn may itself
  /// call parallelFor on the same pool.
  RunStats parallelFor(size_t Items, unsigned MaxWorkers,
                       const std::function<void(size_t)> &Fn);

  /// Enqueues one detached task. Unlike parallelFor, nobody waits on it
  /// and the submitting thread never runs it inline — a task that blocks
  /// (a connection handler polling its socket) occupies one worker and
  /// nothing else. Callers owning long-lived tasks must ensureWorkers()
  /// first: the global pool has hardwareThreads() - 1 workers, which
  /// is zero on a single-core host, and submit() never runs tasks itself.
  void submit(std::function<void()> Task);

  /// Grows the pool to at least \p Target workers (never shrinks).
  /// Thread-safe; used by the socket transport to reserve one worker per
  /// concurrent connection on top of the compute workers.
  void ensureWorkers(unsigned Target);

  /// The process-wide shared pool, lazily created with
  /// hardwareThreads() - 1 workers (the calling thread is the
  /// remaining executor). Never destroyed before program exit.
  static ThreadPool &global();

  /// The number of CPUs the calling thread may run on: its affinity mask
  /// on Linux, else hardware_concurrency() with the zero-means-unknown
  /// case mapped to 1.
  static unsigned hardwareThreads();

private:
  struct Batch;
  static void drain(Batch &B, bool IsCaller);
  void workerLoop();

  std::vector<std::thread> Workers; ///< Guarded by QueueMutex.
  std::atomic<unsigned> NumWorkers{0};
  std::mutex QueueMutex;
  std::condition_variable QueueCV;
  std::deque<std::function<void()>> Queue;
  bool Shutdown = false;
};

} // namespace afl

#endif // AFL_SUPPORT_THREADPOOL_H
