#ifndef ICHECK_SIM_FIBER_HPP
#define ICHECK_SIM_FIBER_HPP

/**
 * @file
 * The control-transfer primitive under the serializing scheduler.
 *
 * A SimFiber runs one simulated thread's body and hands control back and
 * forth with the scheduler: resume() runs the body until its next yield()
 * (or until it returns), yield() parks it until the next resume(). Exactly
 * one side executes at a time, so the mechanism is invisible to simulation
 * semantics — every run produces bit-identical events and hashes no matter
 * how the handoff is implemented.
 *
 * One implementation per platform:
 *
 *  - x86-64: a hand-written stack switch (fiber.cpp). It saves only what
 *    the System V ABI makes the callee keep — rbp, rbx, r12–r15, the
 *    MXCSR and the x87 control word — on the stack it leaves, swaps the
 *    stack pointer, and pops the same state off the other stack: no
 *    syscall, no signal mask, no full FP environment. The scheduler
 *    switches every quantum (~100 simulated accesses), so this is on
 *    every run's hot path. Under AddressSanitizer the switches carry the
 *    sanitizer fiber annotations. The switch keeps no CET shadow stack.
 *  - every other target, and ThreadSanitizer builds: host threads with a
 *    semaphore handoff (TSan models the semaphores natively but has no
 *    stable story for switched stacks). A semaphore round trip costs
 *    microseconds and snapshots are unavailable, so this path is for
 *    checking, not for throughput.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#if defined(__SANITIZE_THREAD__) ||                                      \
    !(defined(__x86_64__) && defined(__LP64__))
#define ICHECK_FIBER_THREADS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ICHECK_FIBER_THREADS 1
#endif
#endif
#ifndef ICHECK_FIBER_THREADS
#define ICHECK_FIBER_THREADS 0
#endif

#if ICHECK_FIBER_THREADS
#include <semaphore>
#include <thread>
#else
#include <memory>
#endif

namespace icheck::sim
{

/**
 * The captured execution state of one fiber: its saved stack pointer plus
 * an image of the live portion of its stack. That is the whole context,
 * because a parked fiber's callee-saved registers sit in the image just
 * above the saved pointer. Machine-affine by construction — the image
 * contains frame pointers into the fiber's own stack buffer, so a
 * snapshot is only meaningful restored into the *same* SimFiber object
 * it was taken from (whose stack buffer is never reallocated once
 * created). Only parked fibers can be snapshotted: the scheduler side
 * owns control, so the saved state is complete and stable.
 *
 * The host-thread implementation cannot capture a stack it does not own;
 * SimFiber::snapshotSupported() reports false there and callers fall
 * back to cold re-execution.
 */
struct FiberSnapshot
{
    bool started = false;
    bool done = false;
#if !ICHECK_FIBER_THREADS
    /** Identity of the stack the image belongs to (restore asserts it). */
    const std::uint8_t *stackBase = nullptr;
    /** The parked fiber's saved stack pointer. */
    void *sp = nullptr;
    /** Live stack bytes, ending at the top of the stack buffer. */
    std::vector<std::uint8_t> image;
#endif

    /** Approximate heap footprint, for checkpoint-cache budgeting. */
    std::size_t
    bytes() const
    {
#if ICHECK_FIBER_THREADS
        return sizeof(*this);
#else
        return sizeof(*this) + image.capacity();
#endif
    }
};

/**
 * One suspendable simulated-thread body. See file comment.
 */
class SimFiber
{
  public:
    SimFiber() = default;
    ~SimFiber();

    SimFiber(const SimFiber &) = delete;
    SimFiber &operator=(const SimFiber &) = delete;

    /**
     * Bind the body. It does not run until the first resume(); a body
     * that is never resumed simply never executes.
     */
    void start(std::function<void()> body);

    /**
     * Run the body until its next yield() or until it returns. Must be
     * called from the scheduler side.
     */
    void resume();

    /**
     * Park the body and return control to the resume() that started this
     * slice. Must be called from inside the body.
     */
    void yield();

    /** True once the body has returned. */
    bool finished() const { return done; }

    /**
     * Release whatever the implementation holds for a body that has
     * returned (or was never resumed). For the host-thread
     * implementation this wakes and joins the thread; the caller must
     * first ensure the body will exit promptly when resumed (e.g. an
     * abort flag it checks on wake).
     */
    void join();

    /**
     * Whether snapshot()/restore() work in this build. False for the
     * host-thread (TSan) implementation.
     */
    static bool snapshotSupported();

    /**
     * Capture the parked fiber's context and live stack. Must be called
     * from the scheduler side (the fiber must not be running). See
     * FiberSnapshot for the affinity contract.
     */
    FiberSnapshot snapshot() const;

    /**
     * Rewind this fiber to @p snap, which must have been taken from this
     * same SimFiber. Whatever the fiber was doing is abandoned *without*
     * unwinding: destructors of frames live at abandonment never run, so
     * bodies that are snapshotted must keep only trivially-destructible
     * state on the fiber stack (true of the simulated programs, whose
     * real state lives in simulated memory).
     */
    void restore(const FiberSnapshot &snap);

  private:
    std::function<void()> entry;
    /** Resumed at least once since start() or the last restore. */
    bool started = false;
    bool done = false;

#if ICHECK_FIBER_THREADS
    std::thread host;
    std::binary_semaphore runSem{0};
    std::binary_semaphore doneSem{0};
    /** Set by join() on a never-resumed fiber: its thread exits without
     *  running the body. */
    bool skipBody = false;
#else
    /** Runs the body on the fiber stack; entered from the start stub. */
    [[noreturn]] static void trampoline(SimFiber *fiber);

    /** Default fiber stack; simulated program bodies are shallow, and
     *  sanitizer redzones inflate frames, so be generous. Allocated
     *  uninitialized — zero-filling a megabyte per short-lived Machine
     *  would dominate small runs. */
    static constexpr std::size_t stackBytes = 1 << 20;

    std::unique_ptr<std::uint8_t[]> stack;
    /** Saved stack pointer of the parked fiber. */
    void *fiberSp = nullptr;
    /** Saved stack pointer of the scheduler side while the fiber runs. */
    void *schedSp = nullptr;
    /** Scheduler-side stack bounds captured on first entry (ASan). */
    const void *parentStackBottom = nullptr;
    std::size_t parentStackSize = 0;
#endif
};

} // namespace icheck::sim

#endif // ICHECK_SIM_FIBER_HPP
