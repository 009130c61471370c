#include "worker_pool.hh"

#include <exception>

#include "common/logging.hh"

namespace manna::harness
{

WorkerPool::WorkerPool(std::size_t workers)
    : executed_(workers > 0 ? workers : 1, 0)
{
    threads_.reserve(executed_.size());
    for (std::size_t i = 0; i < executed_.size(); ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

WorkerPool::~WorkerPool()
{
    stop();
}

void
WorkerPool::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workCv_.notify_all();
    for (auto &t : threads_)
        if (t.joinable())
            t.join();
}

void
WorkerPool::submit(Task task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    workCv_.notify_one();
}

void
WorkerPool::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock, [this] { return queue_.empty() && busy_ == 0; });
}

std::size_t
WorkerPool::busyWorkers() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return busy_;
}

std::uint64_t
WorkerPool::executedBy(std::size_t worker) const
{
    MANNA_ASSERT(worker < executed_.size(), "bad pool worker index");
    std::lock_guard<std::mutex> lock(mutex_);
    return executed_[worker];
}

void
WorkerPool::workerLoop(std::size_t self)
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        workCv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stopping_ and drained
        Task task = std::move(queue_.front());
        queue_.pop_front();
        ++busy_;
        lock.unlock();
        // A throw reaching here would leave busy_ stuck and deadlock
        // drain(), so fail loudly instead.
        try {
            task();
        } catch (const std::exception &e) {
            panic("pool task threw (harness bug): %s", e.what());
        } catch (...) {
            panic("pool task threw (harness bug)");
        }
        task = nullptr; // release its captures before relocking
        lock.lock();
        --busy_;
        ++executed_[self];
        if (busy_ == 0 && queue_.empty())
            idleCv_.notify_all();
    }
}

} // namespace manna::harness
