/**
 * @file
 * Work-stealing pool: round-robin submission into per-worker deques,
 * idle workers steal from the back of a peer's deque, wait() blocks
 * on an outstanding-task counter and rethrows task exceptions.
 *
 * Bookkeeping (queued / outstanding counters) lives under one mutex:
 * tasks in this codebase are coarse (one per shard or chunk), so
 * simplicity beats lock-free cleverness here.
 */

#include "util/thread_pool.hpp"

#include "util/error.hpp"

namespace fcc::util {

unsigned
ThreadPool::hardwareThreads()
{
    unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = hardwareThreads();
    queues_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        queues_.push_back(std::make_unique<Worker>());
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    try {
        wait();
    } catch (...) {
        // Destructor must not throw; the error was the caller's to
        // collect via wait().
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    require(static_cast<bool>(task), "ThreadPool: empty task");
    size_t slot = nextQueue_.fetch_add(1, std::memory_order_relaxed) %
                  queues_.size();
    // Count before publishing the task: a worker that dequeues it can
    // then never see the counter at zero.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++queued_;
        ++outstanding_;
    }
    {
        std::lock_guard<std::mutex> lock(queues_[slot]->mutex);
        queues_[slot]->queue.push_back(std::move(task));
    }
    workAvailable_.notify_one();
}

bool
ThreadPool::tryRunOne(size_t self)
{
    std::function<void()> task;
    // Own queue first (front), then steal from peers (back).
    for (size_t probe = 0; probe < queues_.size() && !task; ++probe) {
        size_t victim = (self + probe) % queues_.size();
        std::lock_guard<std::mutex> lock(queues_[victim]->mutex);
        if (queues_[victim]->queue.empty())
            continue;
        if (probe == 0) {
            task = std::move(queues_[victim]->queue.front());
            queues_[victim]->queue.pop_front();
        } else {
            task = std::move(queues_[victim]->queue.back());
            queues_[victim]->queue.pop_back();
        }
    }
    if (!task)
        return false;

    {
        std::lock_guard<std::mutex> lock(mutex_);
        --queued_;
    }
    try {
        task();
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!firstError_)
            firstError_ = std::current_exception();
    }
    bool lastOut;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        lastOut = --outstanding_ == 0;
    }
    if (lastOut)
        allDone_.notify_all();
    return true;
}

void
ThreadPool::workerLoop(size_t self)
{
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(
                lock, [this] { return stopping_ || queued_ > 0; });
            if (stopping_ && queued_ == 0)
                return;
        }
        // The dequeue can still lose a race with a peer; loop back to
        // sleep when it does.
        tryRunOne(self);
    }
}

void
ThreadPool::wait()
{
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        allDone_.wait(lock, [this] { return outstanding_ == 0; });
        error = firstError_;
        firstError_ = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

void
ThreadPool::parallelFor(size_t count,
                        const std::function<void(size_t)> &body)
{
    if (count == 0)
        return;
    if (size() <= 1 || count == 1) {
        for (size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    for (size_t i = 0; i < count; ++i)
        submit([&body, i] { body(i); });
    wait();
}

unsigned
resolveThreads(uint32_t requested)
{
    return requested != 0 ? requested : ThreadPool::hardwareThreads();
}

void
runJobs(uint32_t threads, size_t count,
        const std::function<void(size_t)> &body)
{
    unsigned workers = resolveThreads(threads);
    if (workers > 1 && count > 1) {
        ThreadPool pool(workers);
        pool.parallelFor(count, body);
    } else {
        for (size_t i = 0; i < count; ++i)
            body(i);
    }
}

} // namespace fcc::util
