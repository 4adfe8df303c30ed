/**
 * @file
 * The work-stealing pool's contracts: submission-order execution on one
 * worker, full coverage under parallelFor (a claim loop the caller takes
 * part in), exception propagation through futures and parallelFor,
 * destructor drain, and counter plausibility.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace icheck::runtime
{
namespace
{

TEST(ThreadPool, SingleWorkerPreservesSubmissionOrder)
{
    std::vector<int> order;
    {
        ThreadPool pool(1);
        for (int i = 0; i < 64; ++i)
            pool.submit([&order, i] { order.push_back(i); });
    } // destructor drains
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPool, SubmitReturnsValueThroughFuture)
{
    ThreadPool pool(2);
    auto future = pool.submit([] { return 6 * 7; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("task failed"); });
    EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(257);
    pool.parallelFor(hits.size(), [&hits](std::size_t i) {
        hits[i].fetch_add(1);
    });
    for (const std::atomic<int> &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsLowestIndexException)
{
    ThreadPool pool(4);
    std::atomic<int> completed{0};
    try {
        pool.parallelFor(50, [&completed](std::size_t i) {
            if (i == 7 || i == 31)
                throw std::out_of_range("iteration " + std::to_string(i));
            ++completed;
        });
        FAIL() << "expected an exception";
    } catch (const std::out_of_range &error) {
        EXPECT_STREQ(error.what(), "iteration 7");
    }
    // Every non-throwing iteration still ran to completion.
    EXPECT_EQ(completed.load(), 48);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> executed{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 100; ++i) {
            pool.submit([&executed] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                ++executed;
            });
        }
        // Destruction must wait for all 100, not just in-flight ones.
    }
    EXPECT_EQ(executed.load(), 100);
}

TEST(ThreadPool, CountsExecutedTasksAndQueueDepth)
{
    ThreadPool pool(2);
    std::vector<std::atomic<int>> hits(32);
    pool.parallelFor(hits.size(), [&hits](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        hits[i].fetch_add(1);
    });
    for (const std::atomic<int> &hit : hits)
        EXPECT_EQ(hit.load(), 1);
    // The tasks are parallelFor's helpers, one per worker at most; the
    // caller claims iterations too. A helper that has not started yet
    // is not counted.
    const PoolStats stats = pool.stats();
    EXPECT_LE(stats.tasksExecuted, 2u);
    EXPECT_GE(stats.maxQueueDepth, 1u);
    EXPECT_LE(stats.maxQueueDepth, 2u);
}

/**
 * Blocks each caller until @p parties have arrived or @p patience runs
 * out; returns whether everyone arrived.
 */
class Rendezvous
{
  public:
    explicit Rendezvous(int parties) : waiting(parties) {}

    bool
    arriveAndWait(std::chrono::seconds patience)
    {
        std::unique_lock<std::mutex> lock(mu);
        if (--waiting == 0)
            cv.notify_all();
        return cv.wait_for(lock, patience, [this] { return waiting <= 0; });
    }

  private:
    std::mutex mu;
    std::condition_variable cv;
    int waiting;
};

TEST(ThreadPool, ParallelForRunsOnCallerBesideHelpers)
{
    // Three iterations that can only finish together: the caller and
    // both helpers must each hold one at the same time.
    ThreadPool pool(2);
    Rendezvous all_three(3);
    std::mutex mu;
    std::vector<std::thread::id> claimers;
    pool.parallelFor(3, [&](std::size_t) {
        {
            std::lock_guard<std::mutex> lock(mu);
            claimers.push_back(std::this_thread::get_id());
        }
        EXPECT_TRUE(all_three.arriveAndWait(std::chrono::seconds(30)));
    });
    ASSERT_EQ(claimers.size(), 3u);
    EXPECT_NE(std::find(claimers.begin(), claimers.end(),
                        std::this_thread::get_id()),
              claimers.end());
    EXPECT_EQ(pool.stats().tasksExecuted, 2u);
}

TEST(ThreadPool, ParallelForFinishesOnCallerWhileWorkersAreBusy)
{
    // The only worker is held by another caller's task: every iteration
    // runs on this caller, and the queued helper returns later without
    // calling fn.
    ThreadPool pool(1);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    auto blocker = pool.submit([released] { released.wait(); });

    std::atomic<int> calls{0};
    std::vector<std::thread::id> claimers(16);
    pool.parallelFor(claimers.size(), [&](std::size_t i) {
        claimers[i] = std::this_thread::get_id();
        calls.fetch_add(1);
    });
    for (const std::thread::id &claimer : claimers)
        EXPECT_EQ(claimer, std::this_thread::get_id());

    release.set_value();
    blocker.get();
    pool.submit([] {}).get(); // the late helper has had its turn
    EXPECT_EQ(calls.load(), 16);
}

TEST(ThreadPool, DefaultSizeUsesHardwareWorkers)
{
    ThreadPool pool;
    EXPECT_EQ(pool.workerCount(), ThreadPool::hardwareWorkers());
    EXPECT_GE(ThreadPool::hardwareWorkers(), 1u);
}

} // namespace
} // namespace icheck::runtime
