/**
 * @file
 * Small work-stealing thread pool used by the parallel compression
 * pipeline.
 *
 * Each worker owns a deque; submitted tasks are distributed
 * round-robin and an idle worker steals from the back of a peer's
 * deque. The pool is a throughput device, not an ordering device —
 * callers that need determinism must make tasks write to
 * pre-partitioned slots (e.g. one result per shard) so the outcome is
 * independent of execution order.
 */

#ifndef FCC_UTIL_THREAD_POOL_HPP
#define FCC_UTIL_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace fcc::util {

/**
 * Fixed-size work-stealing pool.
 *
 * Tasks may throw; the first exception is captured and rethrown from
 * wait() (remaining tasks still run to completion so the pool stays
 * consistent).
 */
class ThreadPool
{
  public:
    /** @p threads == 0 means hardwareThreads(). */
    explicit ThreadPool(unsigned threads = 0);

    /** Drains outstanding work, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    unsigned size() const { return static_cast<unsigned>(workers_.size()); }

    /** std::thread::hardware_concurrency(), never less than 1. */
    static unsigned hardwareThreads();

    /** Enqueue one task. */
    void submit(std::function<void()> task);

    /**
     * Block until every submitted task has finished; rethrows the
     * first exception thrown by a task.
     */
    void wait();

    /**
     * Run body(0) ... body(count - 1) across the pool and wait.
     * Indices are independent tasks balanced by work stealing.
     */
    void parallelFor(size_t count,
                     const std::function<void(size_t)> &body);

  private:
    struct Worker
    {
        std::mutex mutex;
        std::deque<std::function<void()>> queue;
    };

    bool tryRunOne(size_t self);
    void workerLoop(size_t self);

    std::vector<std::unique_ptr<Worker>> queues_;
    std::vector<std::thread> workers_;

    std::atomic<size_t> nextQueue_{0};

    /** Guards the counters, stop flag and captured error. */
    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allDone_;
    size_t queued_ = 0;       ///< tasks sitting in a deque
    size_t outstanding_ = 0;  ///< queued + currently executing
    bool stopping_ = false;
    std::exception_ptr firstError_;
};

/**
 * Worker count of a `threads` setting (FccConfig::threads
 * semantics): 0 means hardwareThreads(), anything else is taken as
 * given.
 */
unsigned resolveThreads(uint32_t requested);

/**
 * Run body(0) ... body(count - 1) on a pool of
 * resolveThreads(@p threads) workers that lives for this call, or
 * inline in index order when that is one worker or one job. Bodies
 * must write to per-index slots, so the outcome does not depend on
 * the thread count.
 */
void runJobs(uint32_t threads, size_t count,
             const std::function<void(size_t)> &body);

} // namespace fcc::util

#endif // FCC_UTIL_THREAD_POOL_HPP
