#ifndef ICHECK_RUNTIME_THREAD_POOL_HPP
#define ICHECK_RUNTIME_THREAD_POOL_HPP

/**
 * @file
 * Work-stealing thread pool for campaign execution.
 *
 * InstantCheck workloads are coarse: one task is one full simulated run
 * (milliseconds of work spanning thousands of simulated accesses), so the
 * pool optimizes for correctness and observability over lock-freedom.
 * Each worker owns a deque; submissions are distributed round-robin,
 * owners pop from the front (preserving submission order per deque), and
 * idle workers steal from the back of the fullest victim. Counters
 * (executed, stolen, peak depth, busy time) feed the result sink's
 * utilization report.
 *
 * parallelFor is a claim loop: the calling thread and at most
 * workerCount() helper tasks take iterations in index order, each run at
 * once by its claimer. The caller is therefore one of the threads doing
 * the work, so a caller that wants N threads in all creates a pool of
 * N - 1 workers (runtime::runCampaign and icheck-lint do). A pool shared
 * by several callers (the daemon's) keeps its size: each caller runs its
 * own iterations beside whichever workers are free.
 *
 * Guarantees:
 *  - a pool with one worker executes tasks in submission order;
 *  - parallelFor claims iterations in index order, so iteration i is
 *    claimed, and running on its claimer, before iteration i + 1 is;
 *  - exceptions thrown by a task propagate through its future, and
 *    parallelFor rethrows the lowest-index exception after all
 *    iterations settle;
 *  - the destructor drains every queued task before joining (shutdown
 *    never drops work).
 */

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace icheck::runtime
{

/**
 * Aggregate execution counters of one pool (for the result sink).
 * tasksExecuted/tasksStolen are committed when a task is dequeued, so a
 * caller that observed a task complete also observes it counted;
 * busySeconds is committed after each task and may trail in-flight work.
 * parallelFor's tasks are its helpers, at most workerCount() per call; a
 * helper that starts after the last claim still counts, possibly after
 * parallelFor has returned.
 */
struct PoolStats
{
    std::uint64_t tasksExecuted = 0;
    std::uint64_t tasksStolen = 0;   ///< Ran on a non-owning worker.
    std::uint64_t maxQueueDepth = 0; ///< Peak total queued tasks.
    double busySeconds = 0.0;        ///< Summed task execution time.
};

/**
 * The pool. Construction spawns the workers; destruction drains the
 * queues and joins them.
 */
class ThreadPool
{
  public:
    /** @param workers Worker count; 0 means hardwareWorkers(). */
    explicit ThreadPool(unsigned workers = 0);

    /** Drains all queued tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Host parallelism available to a default-sized pool (>= 1). */
    static unsigned hardwareWorkers();

    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers.size());
    }

    /**
     * Queue @p fn for execution. The returned future yields fn's result
     * and rethrows anything it throws.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using Result = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            std::forward<F>(fn));
        std::future<Result> future = task->get_future();
        enqueue([task] { (*task)(); });
        return future;
    }

    /**
     * Run fn(i) for every i in [0, n) on the calling thread and up to
     * min(workerCount(), n - 1) helper tasks, claimed in index order, and
     * block until all iterations finish. A helper that starts after the
     * last claim returns without calling fn. If iterations throw, the
     * exception of the lowest index is rethrown (after every iteration
     * has settled).
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** Snapshot of the execution counters. */
    PoolStats stats() const;

  private:
    void enqueue(std::function<void()> task);
    void workerLoop(unsigned self);

    /** Pop own front, else steal from the fullest victim's back. */
    bool takeTask(unsigned self, std::function<void()> &task,
                  bool &stolen);

    mutable std::mutex mu; ///< Guards deques, counters, and stopping.
    std::condition_variable cv;
    std::vector<std::deque<std::function<void()>>> deques;
    std::vector<std::thread> workers;
    std::uint64_t nextDeque = 0; ///< Round-robin submission cursor.
    std::uint64_t queuedTotal = 0;
    bool stopping = false;

    PoolStats counters;
};

} // namespace icheck::runtime

#endif // ICHECK_RUNTIME_THREAD_POOL_HPP
