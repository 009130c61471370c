/**
 * @file
 * The one in-process job pool: a fixed set of worker threads popping
 * tasks from a single shared FIFO queue.
 *
 * SweepRunner::map() (harness/sweep.hh) runs every in-process sweep
 * on it, and mannad (harness/server.hh) runs daemon jobs on it. Tasks
 * start in submission order, so a caller that submits its longest
 * jobs first keeps the workers' shares even to the end. The pool
 * spawns exactly `workers` threads in its constructor and nothing
 * else: no timer thread, no per-worker queues. Job timeouts and
 * fault handling live with the callers (the sweep watchdog, the
 * daemon's task wrapper).
 */

#ifndef MANNA_HARNESS_WORKER_POOL_HH
#define MANNA_HARNESS_WORKER_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace manna::harness
{

class WorkerPool
{
  public:
    /** One unit of pool work. Tasks must not throw: callers catch at
     * their job boundary, so an escaping throw is a harness bug and
     * panics. */
    using Task = std::function<void()>;

    /** Spawn @p workers threads (at least 1). */
    explicit WorkerPool(std::size_t workers);
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Let the workers run every queued task, including tasks a
     * running task submits, then join them. Nothing queued is
     * discarded: mannad's shutdown relies on this, so that every job
     * it dispatched (cancelled by then) still settles its counters.
     * Idempotent; no submit() may follow from outside the pool. */
    void stop();

    /** Append @p task to the shared queue. */
    void submit(Task task);

    /** Block until the queue is empty and every worker is idle. */
    void drain();

    std::size_t workers() const { return executed_.size(); }

    // Counter snapshot (approximate under concurrency; exact once
    // drained) — surfaced in the daemon's metrics JSONL and stats.
    std::size_t busyWorkers() const;
    std::uint64_t executedBy(std::size_t worker) const;

  private:
    void workerLoop(std::size_t self);

    mutable std::mutex mutex_;
    std::condition_variable workCv_; ///< workers wait for tasks
    std::condition_variable idleCv_; ///< drain() waits for quiescence
    std::deque<Task> queue_;
    std::vector<std::uint64_t> executed_; ///< tasks run, per worker
    std::size_t busy_ = 0;
    bool stopping_ = false;
    std::vector<std::thread> threads_; ///< last: uses everything above
};

} // namespace manna::harness

#endif // MANNA_HARNESS_WORKER_POOL_HH
