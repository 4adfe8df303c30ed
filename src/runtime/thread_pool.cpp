#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
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

    // One counter hands out iterations in index order. A helper that
    // starts after the last claim never touches fn, so it may outlive
    // this call; the loop state is shared with it for that reason.
    struct Loop
    {
        std::atomic<std::size_t> next{0};
        std::mutex mu;
        std::condition_variable done;
        std::size_t settled = 0;
        std::exception_ptr firstError;
        std::size_t firstErrorIndex = 0;
    };
    auto loop = std::make_shared<Loop>();
    loop->firstErrorIndex = n;
    const auto claim = [loop, &fn, n] {
        for (std::size_t i = loop->next.fetch_add(1); i < n;
             i = loop->next.fetch_add(1)) {
            std::exception_ptr error;
            try {
                fn(i);
            } catch (...) {
                error = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(loop->mu);
            if (error && i < loop->firstErrorIndex) {
                loop->firstError = std::move(error);
                loop->firstErrorIndex = i;
            }
            if (++loop->settled == n)
                loop->done.notify_all();
        }
    };

    const std::size_t helpers = std::min(workers.size(), n - 1);
    for (std::size_t h = 0; h < helpers; ++h)
        enqueue(claim);
    claim();

    // Move the exception out under the lock: a helper still holding
    // `loop` then never sees it.
    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(loop->mu);
        loop->done.wait(lock, [&loop, n] { return loop->settled == n; });
        error = std::move(loop->firstError);
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
