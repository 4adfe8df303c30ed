/**
 * @file
 * SimFiber on its own: the resume/yield handoff, start and finish,
 * snapshot/restore of a parked body, abort unwinding, and the
 * per-context floating-point control state the switch must keep.
 */

#include <gtest/gtest.h>

#include <cfenv>
#include <utility>
#include <vector>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "sim/fiber.hpp"
#include "sim/thread.hpp"

namespace icheck::sim
{
namespace
{

TEST(SimFiber, ResumeAndYieldAlternateUntilFinished)
{
    std::vector<int> order;
    SimFiber fiber;
    fiber.start([&] {
        order.push_back(1);
        fiber.yield();
        order.push_back(3);
        fiber.yield();
        order.push_back(5);
    });
    fiber.resume();
    order.push_back(2);
    EXPECT_FALSE(fiber.finished());
    fiber.resume();
    order.push_back(4);
    EXPECT_FALSE(fiber.finished()) << "parked, not returned";
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
    fiber.join();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(SimFiber, BodyNeverResumedNeverRuns)
{
    bool ran = false;
    {
        SimFiber fiber;
        fiber.start([&] { ran = true; });
        EXPECT_FALSE(fiber.finished());
        fiber.join();
    }
    EXPECT_FALSE(ran) << "start() alone must not run the body";
}

/**
 * A body whose state lives in locals on the fiber stack: each slice
 * appends its running sum to @p log and parks. Locals are trivially
 * destructible, as the snapshot contract requires.
 */
void
sumBody(SimFiber &fiber, std::vector<long> &log)
{
    long sum = 0;
    for (int i = 1; i <= 6; ++i) {
        sum = sum * 3 + i;
        log.push_back(sum);
        fiber.yield();
    }
}

TEST(SimFiber, RestoredMidBodyReplaysItsLocals)
{
    if (!SimFiber::snapshotSupported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    std::vector<long> log;
    SimFiber fiber;
    fiber.start([&] { sumBody(fiber, log); });
    fiber.resume();
    fiber.resume();
    const FiberSnapshot snap = fiber.snapshot();
    EXPECT_TRUE(snap.started);
    EXPECT_FALSE(snap.done);
    EXPECT_GT(snap.bytes(), sizeof(FiberSnapshot));
    while (!fiber.finished())
        fiber.resume();
    const std::vector<long> cold(log.begin() + 2, log.end());
    ASSERT_EQ(cold.size(), 4u);

    // Twice, so the snapshot survives being restored more than once.
    for (int round = 0; round < 2; ++round) {
        fiber.restore(snap);
        EXPECT_FALSE(fiber.finished());
        log.clear();
        while (!fiber.finished())
            fiber.resume();
        EXPECT_EQ(log, cold) << "round " << round;
    }
    fiber.join();
}

TEST(SimFiber, RestoreToPreStartRunsTheBodyAgain)
{
    if (!SimFiber::snapshotSupported())
        GTEST_SKIP() << "fiber snapshots unavailable in this build";

    std::vector<long> log;
    SimFiber fiber;
    fiber.start([&] { sumBody(fiber, log); });
    const FiberSnapshot fresh = fiber.snapshot();
    EXPECT_FALSE(fresh.started);
    while (!fiber.finished())
        fiber.resume();
    const std::vector<long> cold = log;
    ASSERT_EQ(cold.size(), 6u);

    // From finished, and from a body parked mid-way.
    fiber.restore(fresh);
    log.clear();
    while (!fiber.finished())
        fiber.resume();
    EXPECT_EQ(log, cold);

    fiber.restore(fresh);
    log.clear();
    fiber.resume();
    fiber.resume();
    fiber.restore(fresh);
    log.clear();
    while (!fiber.finished())
        fiber.resume();
    EXPECT_EQ(log, cold);
    fiber.join();
}

TEST(SimFiber, AbortUnwindsAParkedBody)
{
    bool aborting = false;
    bool caught = false;
    int destroyed = 0;
    struct Guard
    {
        int &count;
        ~Guard() { ++count; }
    };
    SimFiber fiber;
    fiber.start([&] {
        try {
            Guard outer{destroyed};
            for (;;) {
                Guard inner{destroyed};
                fiber.yield();
                if (aborting)
                    throw AbortRun{};
            }
        } catch (const AbortRun &) {
            caught = true;
        }
    });
    fiber.resume();
    fiber.resume();
    EXPECT_EQ(destroyed, 1) << "one loop iteration completed";
    aborting = true;
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
    EXPECT_TRUE(caught);
    EXPECT_EQ(destroyed, 3) << "the parked frames' destructors ran";
    fiber.join();
}

/** The rounding mode as both FP units see it (x87 control word via
 *  fegetround, and the MXCSR where SSE exists). */
std::pair<int, int>
roundingModes()
{
#if defined(__SSE__)
    return {std::fegetround(),
            static_cast<int>(_mm_getcsr() & _MM_ROUND_MASK)};
#else
    return {std::fegetround(), 0};
#endif
}

TEST(SimFiber, RoundingModeStaysPerContext)
{
    const std::pair<int, int> outside = roundingModes();
    std::pair<int, int> inside_set;
    std::pair<int, int> inside_later;
    SimFiber fiber;
    fiber.start([&] {
        std::fesetround(FE_TOWARDZERO);
        inside_set = roundingModes();
        fiber.yield();
        inside_later = roundingModes();
    });
    fiber.resume();
    EXPECT_EQ(roundingModes(), outside)
        << "the fiber's mode leaked into the scheduler side";
    std::fesetround(FE_UPWARD);
    fiber.resume();
    EXPECT_TRUE(fiber.finished());
    EXPECT_EQ(inside_later, inside_set)
        << "the scheduler side's mode leaked into the fiber";
    EXPECT_EQ(inside_set.first, FE_TOWARDZERO);
#if defined(__SSE__)
    EXPECT_EQ(inside_set.second, _MM_ROUND_TOWARD_ZERO);
    EXPECT_EQ(static_cast<unsigned>(_mm_getcsr() & _MM_ROUND_MASK),
              _MM_ROUND_UP);
#endif
    EXPECT_EQ(std::fegetround(), FE_UPWARD);
    std::fesetround(FE_TONEAREST);
    fiber.join();
}

} // namespace
} // namespace icheck::sim
