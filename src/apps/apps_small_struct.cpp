/**
 * @file
 * The "deterministic after ignoring small structures" workloads of
 * Table 1: cholesky (nondeterministic freeTask linked list), pbzip2
 * (dangling result pointers in task structs), sphinx3 (nondeterministic
 * scratch allocations, a few percent of the state). Each computes a
 * deterministic result while leaving a schedule-dependent auxiliary
 * structure behind — precisely the case ignore-deletion (Section 2.2)
 * exists for.
 */

#include "apps/apps.hpp"

#include <array>
#include <cmath>

#include "support/logging.hpp"

namespace icheck::apps
{

using mem::tArray;
using mem::tBytes;
using mem::tDouble;
using mem::tInt64;
using mem::tPointer;
using mem::tStruct;

// --------------------------------------------------------------------
// cholesky
// --------------------------------------------------------------------

namespace
{

/** Task node shape: { next, taskId, payload }. */
mem::TypeRef
taskNodeType()
{
    return tStruct({tPointer(), tInt64(), tDouble()});
}

} // namespace

Cholesky::Cholesky(ThreadId threads, std::uint32_t dim)
    : BaseApp(threads), dim(dim)
{}

void
Cholesky::setup(sim::SetupCtx &ctx)
{
    matrix = ctx.global("matrix", tArray(tDouble(), dim * dim));
    nextColumn = ctx.global("next_column", tInt64());
    freeTaskHead = ctx.global("free_task_head", tPointer());
    ctx.global("tally", tDouble());
    ctx.init<double>(ctx.addressOf("tally"), 0.0005);
    for (std::uint32_t r = 0; r < dim; ++r) {
        for (std::uint32_t c = 0; c < dim; ++c) {
            const double base = r == c ? dim + 2.0 : 0.0;
            ctx.init<double>(matrix + 8 * (r * dim + c),
                             base + ctx.rng().uniform());
        }
    }
    queueMutex = ctx.mutex();
    freeListMutex = ctx.mutex();
    columnMutex = ctx.mutex();
    doneBarrier = ctx.barrier(threads);
}

void
Cholesky::threadMain(sim::ThreadCtx &ctx)
{
    const Addr tally = ctx.global("tally");
    for (;;) {
        // Pop the next column task (the paper's tasks race over a queue).
        ctx.lock(queueMutex);
        const auto k = ctx.load<std::int64_t>(nextColumn);
        if (k >= static_cast<std::int64_t>(dim)) {
            ctx.unlock(queueMutex);
            break;
        }
        ctx.store<std::int64_t>(nextColumn, k + 1);
        ctx.unlock(queueMutex);

        // Take a task node from the freeTask list or allocate a new one.
        // Link order and list length end up schedule-dependent — the
        // structure the paper ignores to make cholesky deterministic.
        ctx.lock(freeListMutex);
        Addr node = ctx.loadPtr(freeTaskHead);
        if (node != 0) {
            ctx.storePtr(freeTaskHead, ctx.loadPtr(node));
        } else {
            ctx.unlock(freeListMutex);
            node = ctx.malloc(taskNodeSite(), taskNodeType());
            ctx.lock(freeListMutex);
        }
        ctx.unlock(freeListMutex);
        ctx.store<std::int64_t>(node + 8, k);

        // Process the column: deterministic single-writer scaling.
        double colsum = 0;
        for (std::uint32_t r = 0; r < dim; ++r) {
            const Addr cell =
                matrix + 8 * (r * dim + static_cast<std::uint32_t>(k));
            const double v = ctx.load<double>(cell);
            const double scaled = v / (1.0 + static_cast<double>(k));
            ctx.store<double>(cell, scaled);
            colsum += scaled;
            ctx.tick(20);
        }
        ctx.store<double>(node + 16, colsum);

        // Shared FP accumulation — needs rounding, like real cholesky.
        ctx.lock(columnMutex);
        ctx.store<double>(tally, ctx.load<double>(tally) + colsum);
        ctx.unlock(columnMutex);

        // Return the node to the free list (schedule-dependent order).
        ctx.lock(freeListMutex);
        ctx.storePtr(node, ctx.loadPtr(freeTaskHead));
        ctx.storePtr(freeTaskHead, node);
        ctx.unlock(freeListMutex);
    }
    ctx.barrier(doneBarrier);
}

// --------------------------------------------------------------------
// pbzip2
// --------------------------------------------------------------------

namespace
{

/** Task struct shape: { blockId, resultPtr, resultLen, done }. */
mem::TypeRef
pbzipTaskType()
{
    return tStruct({tInt64(), tPointer(), tInt64(), tInt64()});
}

} // namespace

Pbzip2::Pbzip2(ThreadId threads, std::uint32_t blocks,
               std::uint32_t block_bytes)
    : BaseApp(threads), blocks(blocks), blockBytes(block_bytes)
{
    ICHECK_ASSERT(block_bytes <= maxBlockBytes, "pbzip2 block of ",
                  block_bytes, " bytes exceeds the ", maxBlockBytes,
                  "-byte staging bound");
}

void
Pbzip2::setup(sim::SetupCtx &ctx)
{
    input = ctx.global("input", tBytes(blocks * blockBytes));
    tasks = ctx.global("tasks", tArray(tPointer(), blocks));
    queue = ctx.global("queue", tArray(tPointer(), blocks));
    queueHead = ctx.global("queue_head", tInt64());
    queueTail = ctx.global("queue_tail", tInt64());
    producedAll = ctx.global("produced_all", tInt64());
    doneCount = ctx.global("done_count", tInt64());
    // Compressible input: runs of repeated bytes.
    std::uint8_t current = 0;
    std::uint32_t run = 0;
    for (std::uint32_t i = 0; i < blocks * blockBytes; ++i) {
        if (run == 0) {
            current = static_cast<std::uint8_t>(ctx.rng().below(7) + 1);
            run = static_cast<std::uint32_t>(ctx.rng().below(12) + 1);
        }
        ctx.init<std::uint8_t>(input + i, current);
        --run;
    }
    queueMutex = ctx.mutex();
    queueCond = ctx.cond();
}

void
Pbzip2::threadMain(sim::ThreadCtx &ctx)
{
    if (ctx.tid() == 0) {
        // Producer: allocate and enqueue one task per block.
        for (std::uint32_t b = 0; b < blocks; ++b) {
            const Addr task = ctx.malloc(taskSite(), pbzipTaskType());
            ctx.store<std::int64_t>(task, b);
            ctx.storePtr(tasks + 8 * b, task);
            ctx.lock(queueMutex);
            const auto tail = ctx.load<std::int64_t>(queueTail);
            ctx.storePtr(queue + 8 * (tail % blocks), task);
            ctx.store<std::int64_t>(queueTail, tail + 1);
            ctx.condBroadcast(queueCond);
            ctx.unlock(queueMutex);
        }
        ctx.lock(queueMutex);
        ctx.store<std::int64_t>(producedAll, 1);
        ctx.condBroadcast(queueCond);
        // Writer: wait for the consumers, then emit blocks in order.
        while (ctx.load<std::int64_t>(doneCount) <
               static_cast<std::int64_t>(blocks)) {
            ctx.condWait(queueCond, queueMutex);
        }
        ctx.unlock(queueMutex);
        for (std::uint32_t b = 0; b < blocks; ++b) {
            const Addr task = ctx.loadPtr(tasks + 8 * b);
            const Addr buf = ctx.loadPtr(task + resultPtrOffset);
            const auto len = ctx.load<std::int64_t>(task + 16);
            for (std::int64_t i = 0; i < len; ++i)
                ctx.outputValue(ctx.load<std::uint8_t>(
                    buf + static_cast<Addr>(i)));
            // Free the compressed buffer: the memory leaves the state,
            // the dangling resultPtr in the task struct remains — the
            // paper's exact pbzip2 nondeterminism.
            ctx.free(buf);
        }
        return;
    }

    // Consumers: race for tasks, compress, publish.
    for (;;) {
        ctx.lock(queueMutex);
        while (ctx.load<std::int64_t>(queueHead) ==
                   ctx.load<std::int64_t>(queueTail) &&
               ctx.load<std::int64_t>(producedAll) == 0) {
            ctx.condWait(queueCond, queueMutex);
        }
        if (ctx.load<std::int64_t>(queueHead) ==
            ctx.load<std::int64_t>(queueTail)) {
            ctx.unlock(queueMutex);
            break; // drained and production finished
        }
        const auto head = ctx.load<std::int64_t>(queueHead);
        const Addr task = ctx.loadPtr(queue + 8 * (head % blocks));
        ctx.store<std::int64_t>(queueHead, head + 1);
        ctx.unlock(queueMutex);

        const auto block_id = static_cast<std::uint32_t>(
            ctx.load<std::int64_t>(task));
        const Addr block = input + block_id * blockBytes;
        // Run-length encode first (into thread-local staging), then
        // allocate the result buffer. Buffers are therefore claimed in
        // compression-*completion* order, which depends on the schedule —
        // so the pointer stored in the task struct is nondeterministic,
        // exactly the pbzip2 behaviour of Section 7.2.1. The staging
        // buffer is a fixed array, not a heap container: a snapshotted
        // fiber may keep only trivially destructible state on its stack
        // (SimFiber::restore), and run-length output is at most two bytes
        // per input byte.
        std::array<std::uint8_t, 2 * maxBlockBytes> staged;
        std::size_t staged_len = 0;
        std::uint32_t i = 0;
        while (i < blockBytes) {
            const std::uint8_t byte = ctx.load<std::uint8_t>(block + i);
            std::uint8_t count = 1;
            while (i + count < blockBytes && count < 255 &&
                   ctx.load<std::uint8_t>(block + i + count) == byte) {
                ++count;
            }
            staged[staged_len++] = count;
            staged[staged_len++] = byte;
            i += count;
            ctx.tick(15);
        }
        const Addr buf =
            ctx.malloc("pbzip2.cpp:result_buf",
                       tBytes(2 * blockBytes + 2));
        for (std::size_t b = 0; b < staged_len; ++b)
            ctx.store<std::uint8_t>(buf + b, staged[b]);
        const auto out = static_cast<std::int64_t>(staged_len);
        ctx.storePtr(task + resultPtrOffset, buf);
        ctx.store<std::int64_t>(task + 16, out);
        ctx.store<std::int64_t>(task + 24, 1);

        ctx.lock(queueMutex);
        ctx.store<std::int64_t>(doneCount,
                                ctx.load<std::int64_t>(doneCount) + 1);
        ctx.condBroadcast(queueCond);
        ctx.unlock(queueMutex);
    }
}

// --------------------------------------------------------------------
// sphinx3
// --------------------------------------------------------------------

Sphinx3::Sphinx3(ThreadId threads, std::uint32_t frames,
                 std::uint32_t states)
    : BaseApp(threads), frames(frames), states(states)
{}

void
Sphinx3::setup(sim::SetupCtx &ctx)
{
    features = ctx.global("features", tArray(tDouble(), states));
    scores = ctx.global("scores", tArray(tDouble(), states));
    best = ctx.global("best", tDouble());
    claimed = ctx.global("claimed", tInt64());
    scratchPtrs = ctx.global("scratch_ptrs",
                             tArray(tPointer(), frames));
    for (std::uint32_t s = 0; s < states; ++s)
        ctx.init<double>(features + 8 * s, ctx.rng().uniform() * 4 - 2);
    ctx.init<double>(best, 0.0005);
    ctx.init<std::int64_t>(claimed, -1);
    bestMutex = ctx.mutex();
    frameBarrier = ctx.barrier(threads);
}

void
Sphinx3::threadMain(sim::ThreadCtx &ctx)
{
    const std::uint32_t lo = states * ctx.tid() / threads;
    const std::uint32_t hi = states * (ctx.tid() + 1) / threads;
    for (std::uint32_t frame = 0; frame < frames; ++frame) {
        // Deterministic score update over this thread's state slice.
        double local = 0;
        for (std::uint32_t s = lo; s < hi; ++s) {
            const double f = ctx.load<double>(features + 8 * s);
            const double score =
                std::tanh(f * (1.0 + 0.01 * frame));
            ctx.store<double>(scores + 8 * s, score);
            local += score * score;
            ctx.tick(35);
        }
        // Shared FP best-score accumulation (needs rounding).
        ctx.lock(bestMutex);
        ctx.store<double>(best, ctx.load<double>(best) + local);
        ctx.unlock(bestMutex);

        // Racy token claim: whichever thread gets here first writes the
        // frame's scratch buffer. Both the claim and the buffer contents
        // are schedule-dependent — the ~4% of nondeterministic memory the
        // paper isolates for sphinx3.
        if (ctx.load<std::int64_t>(claimed) !=
            static_cast<std::int64_t>(frame)) {
            ctx.store<std::int64_t>(claimed,
                                    static_cast<std::int64_t>(frame));
            const Addr scratch =
                ctx.malloc(scratchSite(), tArray(tInt64(), 4));
            ctx.store<std::int64_t>(scratch, frame);
            ctx.store<std::int64_t>(scratch + 8, ctx.tid());
            ctx.store<std::int64_t>(scratch + 16,
                                    static_cast<std::int64_t>(local *
                                                              1000));
            ctx.storePtr(scratchPtrs + 8 * frame, scratch);
        }
        ctx.barrier(frameBarrier);
    }
}

} // namespace icheck::apps
