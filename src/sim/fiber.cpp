#include "sim/fiber.hpp"

#include "support/logging.hpp"

#if !ICHECK_FIBER_THREADS && defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#define ICHECK_FIBER_ASAN 1
#else
#define ICHECK_FIBER_ASAN 0
#endif

#if !ICHECK_FIBER_THREADS
#include <cstring>

extern "C" {
/**
 * Push the callee-saved state onto the current stack, store the stack
 * pointer to *save_sp, load load_sp and pop the state saved there. Under
 * the System V ABI that state is rbp, rbx, r12–r15, the MXCSR and the x87
 * control word; everything else is caller-saved around the call. A saved
 * stack pointer addresses, lowest first: MXCSR (4 bytes), x87 control
 * word (2 bytes, 2 of padding), r15, r14, r13, r12, rbx, rbp, and the
 * return address.
 */
void icheck_fiber_switch(void **save_sp, void *load_sp);

/**
 * The first return address of a new fiber: calls rbx(r12), i.e.
 * trampoline(fiber), from the frame SimFiber::resume() built. It marks
 * the return address undefined so unwinders stop at the fiber's base.
 */
void icheck_fiber_start();
}

asm(R"(
    .pushsection .text
    .globl icheck_fiber_switch
    .hidden icheck_fiber_switch
    .type icheck_fiber_switch, @function
    .p2align 4
icheck_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size icheck_fiber_switch, .-icheck_fiber_switch

    .globl icheck_fiber_start
    .hidden icheck_fiber_start
    .type icheck_fiber_start, @function
    .p2align 4
icheck_fiber_start:
    .cfi_startproc
    .cfi_undefined rip
    movq %r12, %rdi
    callq *%rbx
    ud2
    .cfi_endproc
    .size icheck_fiber_start, .-icheck_fiber_start
    .popsection
)");
#endif // !ICHECK_FIBER_THREADS

namespace icheck::sim
{

#if ICHECK_FIBER_THREADS

SimFiber::~SimFiber()
{
    ICHECK_ASSERT(!host.joinable(),
                  "SimFiber destroyed without join()");
}

void
SimFiber::start(std::function<void()> body)
{
    ICHECK_ASSERT(!entry, "SimFiber started twice");
    entry = std::move(body);
    host = std::thread([this] {
        runSem.acquire();
        if (!skipBody)
            entry();
        done = true;
        doneSem.release();
    });
}

void
SimFiber::resume()
{
    ICHECK_ASSERT(entry && !done, "resume of an unstarted/finished fiber");
    started = true;
    runSem.release();
    doneSem.acquire();
}

void
SimFiber::yield()
{
    doneSem.release();
    runSem.acquire();
}

void
SimFiber::join()
{
    if (!host.joinable())
        return;
    if (!done) {
        // Wake the thread so it can exit: a never-resumed body is
        // skipped, a parked one must see its own abort flag.
        skipBody = !started;
        runSem.release();
    }
    host.join();
}

bool
SimFiber::snapshotSupported()
{
    return false;
}

FiberSnapshot
SimFiber::snapshot() const
{
    ICHECK_PANIC("fiber snapshots are unavailable with host-thread "
                 "fibers");
}

void
SimFiber::restore(const FiberSnapshot &)
{
    ICHECK_PANIC("fiber snapshots are unavailable with host-thread "
                 "fibers");
}

#else // stack-switch implementation

SimFiber::~SimFiber() = default;

void
SimFiber::trampoline(SimFiber *fiber)
{
#if ICHECK_FIBER_ASAN
    // First entry onto this stack: tell ASan where we came from so the
    // switch back is annotated with real bounds.
    __sanitizer_finish_switch_fiber(nullptr, &fiber->parentStackBottom,
                                    &fiber->parentStackSize);
#endif
    fiber->entry();
    fiber->done = true;
#if ICHECK_FIBER_ASAN
    // This stack dies now: null fake_stack_save tells ASan to destroy
    // its fake stack instead of preserving it.
    __sanitizer_start_switch_fiber(nullptr, fiber->parentStackBottom,
                                   fiber->parentStackSize);
#endif
    // Switch back for the last time. This stack is entered again only
    // through a new initial frame (a restart) or a restored image.
    icheck_fiber_switch(&fiber->fiberSp, fiber->schedSp);
    ICHECK_PANIC("a finished fiber was resumed");
}

void
SimFiber::start(std::function<void()> body)
{
    ICHECK_ASSERT(!entry, "SimFiber started twice");
    entry = std::move(body);
}

void
SimFiber::resume()
{
    ICHECK_ASSERT(entry && !done, "resume of an unstarted/finished fiber");
    if (!started) {
        started = true;
        // Uninitialized on purpose: only the pages the body actually
        // touches get faulted in, so a Machine with many mostly-idle
        // fibers does not pay for megabytes of zero-fill. The buffer is
        // allocated once and never moves afterwards — even a restart
        // after a checkpoint restore to the pre-start state reuses it,
        // because outstanding FiberSnapshots hold images bound to this
        // address.
        if (!stack) {
            stack = std::make_unique_for_overwrite<std::uint8_t[]>(
                stackBytes);
        }
#if ICHECK_FIBER_ASAN
        // A restart may find redzones of the previous body's frames.
        __asan_unpoison_memory_region(stack.get(), stackBytes);
#endif
        // The initial frame, laid out as icheck_fiber_switch pops it,
        // "returns" into the start stub with the stack 16-byte aligned,
        // as the ABI requires before its call. The new fiber inherits
        // this side's MXCSR and x87 control word.
        const std::uintptr_t top =
            (reinterpret_cast<std::uintptr_t>(stack.get()) + stackBytes) &
            ~std::uintptr_t{15};
        std::uint32_t mxcsr = 0;
        std::uint16_t fpucw = 0;
        asm volatile("stmxcsr %0" : "=m"(mxcsr));
        asm volatile("fnstcw %0" : "=m"(fpucw));
        const std::uint64_t frame[8] = {
            mxcsr | std::uint64_t{fpucw} << 32,
            0, // r15
            0, // r14
            0, // r13
            reinterpret_cast<std::uintptr_t>(this), // r12
            reinterpret_cast<std::uintptr_t>(&trampoline), // rbx
            0, // rbp
            reinterpret_cast<std::uintptr_t>(&icheck_fiber_start),
        };
        fiberSp = reinterpret_cast<void *>(top - 16 - sizeof(frame));
        std::memcpy(fiberSp, frame, sizeof(frame));
    }
#if ICHECK_FIBER_ASAN
    void *fakeStack = nullptr;
    __sanitizer_start_switch_fiber(&fakeStack, stack.get(), stackBytes);
#endif
    icheck_fiber_switch(&schedSp, fiberSp);
#if ICHECK_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
}

void
SimFiber::yield()
{
#if ICHECK_FIBER_ASAN
    void *fakeStack = nullptr;
    __sanitizer_start_switch_fiber(&fakeStack, parentStackBottom,
                                   parentStackSize);
#endif
    icheck_fiber_switch(&fiberSp, schedSp);
#if ICHECK_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fakeStack, nullptr, nullptr);
#endif
}

void
SimFiber::join()
{
    // Nothing to release: an unfinished fiber's stack dies with the
    // object, and a parked one is simply never resumed again.
}

bool
SimFiber::snapshotSupported()
{
    return true;
}

FiberSnapshot
SimFiber::snapshot() const
{
    FiberSnapshot snap;
    snap.started = started;
    snap.done = done;
    if (!started || done)
        return snap; // no live frames: flags are the whole state
    ICHECK_ASSERT(stack != nullptr, "started fiber without a stack");
    // Image only the live region, [saved sp, stack top): the switch
    // pushed everything the parked fiber keeps at or above its saved
    // stack pointer.
    const auto *low = static_cast<const std::uint8_t *>(fiberSp);
    const std::uint8_t *top = stack.get() + stackBytes;
    ICHECK_ASSERT(low >= stack.get() && low < top,
                  "parked fiber's stack pointer is off its stack");
#if ICHECK_FIBER_ASAN
    // The parked frames' redzones are still poisoned, and the copy
    // below would trip over them.
    __asan_unpoison_memory_region(low, static_cast<std::size_t>(top - low));
#endif
    snap.stackBase = stack.get();
    snap.sp = fiberSp;
    snap.image.assign(low, top);
    return snap;
}

void
SimFiber::restore(const FiberSnapshot &snap)
{
    ICHECK_ASSERT(entry, "restore of an unstarted SimFiber");
    started = snap.started;
    done = snap.done;
    // Pre-start or post-finish state: no frames to resurrect. A restored
    // pre-start fiber builds a new initial frame on its next resume (on
    // the same, preserved stack buffer).
    if (!snap.started || snap.done)
        return;
    ICHECK_ASSERT(stack != nullptr && stack.get() == snap.stackBase,
                  "fiber snapshot restored into a different fiber");
    ICHECK_ASSERT(snap.image.size() <= stackBytes,
                  "malformed fiber stack image");
#if ICHECK_FIBER_ASAN
    // The abandoned frames' redzone poisoning no longer describes the
    // resurrected frames; clear it wholesale. This costs ASan precision
    // within restored fiber stacks (DESIGN.md §9).
    __asan_unpoison_memory_region(stack.get(), stackBytes);
#endif
    std::memcpy(stack.get() + stackBytes - snap.image.size(),
                snap.image.data(), snap.image.size());
    fiberSp = snap.sp;
}

#endif

} // namespace icheck::sim
