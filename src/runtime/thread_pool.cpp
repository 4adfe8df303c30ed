#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "support/logging.hpp"

namespace icheck::runtime
{

unsigned
ThreadPool::hardwareWorkers()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1u : hw;
}

ThreadPool::ThreadPool(unsigned worker_count)
{
    if (worker_count == 0)
        worker_count = hardwareWorkers();
    deques.resize(worker_count);
    workers.reserve(worker_count);
    for (unsigned w = 0; w < worker_count; ++w)
        workers.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true; // workers drain their queues before exiting
    }
    cv.notify_all();
    for (std::thread &worker : workers)
        worker.join();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        ICHECK_ASSERT(!stopping, "submit on a stopping pool");
        deques[nextDeque++ % deques.size()].push_back(std::move(task));
        ++queuedTotal;
        counters.maxQueueDepth =
            std::max(counters.maxQueueDepth, queuedTotal);
    }
    cv.notify_one();
}

bool
ThreadPool::takeTask(unsigned self, std::function<void()> &task,
                     bool &stolen)
{
    // Caller holds mu. Execution counters are committed here, at dequeue
    // time, so a caller observing a task's completion (e.g. through its
    // future or parallelFor) is guaranteed to see it counted.
    if (!deques[self].empty()) {
        task = std::move(deques[self].front());
        deques[self].pop_front();
        stolen = false;
        // takeTask's contract is that the caller holds mu (see the
        // workerLoop call sites), so these updates are serialized.
        --queuedTotal;            // icheck-lint: allow(C2): caller holds mu allow(L1): caller holds mu
        ++counters.tasksExecuted; // icheck-lint: allow(C2): caller holds mu allow(L1): caller holds mu
        return true;
    }
    // Steal from the victim with the most queued work: the fullest deque
    // is where a backlog is building, and taking from its back disturbs
    // the owner's front-of-queue ordering the least.
    std::size_t victim = deques.size();
    std::size_t best = 0;
    for (std::size_t v = 0; v < deques.size(); ++v) {
        if (v != self && deques[v].size() > best) {
            best = deques[v].size();
            victim = v;
        }
    }
    if (victim == deques.size())
        return false;
    task = std::move(deques[victim].back());
    deques[victim].pop_back();
    stolen = true;
    --queuedTotal;            // icheck-lint: allow(C2): caller holds mu allow(L1): caller holds mu
    ++counters.tasksExecuted; // icheck-lint: allow(C2): caller holds mu allow(L1): caller holds mu
    ++counters.tasksStolen;   // icheck-lint: allow(C2): caller holds mu allow(L1): caller holds mu
    return true;
}

void
ThreadPool::workerLoop(unsigned self)
{
    for (;;) {
        std::function<void()> task;
        bool stolen = false;
        {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock,
                    [this] { return queuedTotal > 0 || stopping; });
            if (!takeTask(self, task, stolen)) {
                if (stopping)
                    return; // every deque empty: drained
                continue;
            }
        }
        const auto start = std::chrono::steady_clock::now();
        task(); // packaged_task captures exceptions into the future
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        {
            std::lock_guard<std::mutex> lock(mu);
            counters.busySeconds += elapsed.count();
        }
        // A drained deque may unblock stealers or the destructor.
        cv.notify_all();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    struct Join
    {
        std::mutex mu;
        std::condition_variable done;
        std::size_t remaining;
        std::exception_ptr firstError;
        std::size_t firstErrorIndex;
    };
    auto join = std::make_shared<Join>();
    join->remaining = n;
    join->firstErrorIndex = n;

    for (std::size_t i = 0; i < n; ++i) {
        enqueue([join, &fn, i] {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(join->mu);
                if (i < join->firstErrorIndex) {
                    join->firstError = std::current_exception();
                    join->firstErrorIndex = i;
                }
            }
            std::lock_guard<std::mutex> lock(join->mu);
            if (--join->remaining == 0)
                join->done.notify_all();
        });
    }

    // Move the exception out under the lock: the worker that drops the
    // last reference to `join` then never touches it.
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(join->mu);
        join->done.wait(lock, [&join] { return join->remaining == 0; });
        error = std::move(join->firstError);
    }
    if (error)
        std::rethrow_exception(error);
}

PoolStats
ThreadPool::stats() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters;
}

} // namespace icheck::runtime
