/**
 * @file
 * Host-side throughput of the simulator itself: simulated accesses per
 * second for a native run, with the HW checker attached (MHM hashing
 * every store), with the software checkers, and with the FastTrack race
 * detector attached — the cost of using this library, as opposed to the
 * modeled target overheads of Figure 6 — plus the two layers every
 * access crosses: the fiber switch the scheduler hands slices over, and
 * the SparseMemory every access ends in, word by word and in bulk —
 * and the explorer's layers: a machine checkpoint and a restore,
 * copying the slice analysis a checkpoint holds, closing slices, and one
 * run's branch-ledger claims.
 */

#include <benchmark/benchmark.h>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "check/checker.hpp"
#include "explore/dpor.hpp"
#include "mem/memory.hpp"
#include "race/race_detector.hpp"
#include "race/slice_hb.hpp"
#include "sim/fiber.hpp"
#include "sim/lambda_program.hpp"
#include "sim/machine.hpp"
#include "sim/sched.hpp"
#include "support/rng.hpp"

using namespace icheck;

namespace
{

/** A write-heavy 4-thread kernel with barrier checkpoints. */
std::unique_ptr<sim::LambdaProgram>
kernel(std::shared_ptr<sim::BarrierId> barrier_id)
{
    return std::make_unique<sim::LambdaProgram>(
        "kernel", 4,
        [barrier_id](sim::SetupCtx &ctx) {
            ctx.global("data", mem::tArray(mem::tInt64(), 256));
            *barrier_id = ctx.barrier(4);
        },
        [barrier_id](sim::ThreadCtx &ctx) {
            const Addr data = ctx.global("data");
            for (int phase = 0; phase < 4; ++phase) {
                for (int i = 0; i < 64; ++i) {
                    const Addr slot =
                        data + 8 * ((ctx.tid() * 64 + i) % 256);
                    ctx.store<std::int64_t>(
                        slot, ctx.load<std::int64_t>(slot) + i);
                }
                ctx.barrier(*barrier_id);
            }
        });
}

void
runOnce(std::optional<check::Scheme> scheme, benchmark::State &state)
{
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        sim::MachineConfig cfg;
        cfg.numCores = 4;
        cfg.schedSeed = 42;
        // The native baseline models a stock machine: MHM fused off. As
        // in a campaign, only HW-Inc arms it.
        cfg.hashingArmed = scheme == check::Scheme::HwInc;
        sim::Machine machine(cfg);
        std::unique_ptr<check::Checker> checker;
        if (scheme.has_value()) {
            checker = check::makeChecker(*scheme);
            checker->attach(machine);
            machine.setRunStartHandler([&] { checker->onRunStart(); });
            machine.setCheckpointHandler(
                [&](const sim::CheckpointInfo &) {
                    benchmark::DoNotOptimize(
                        checker->checkpointHash().raw());
                });
        }
        auto barrier_id = std::make_shared<sim::BarrierId>();
        auto program = kernel(barrier_id);
        const sim::RunResult result = machine.run(*program);
        accesses += result.nativeInstrs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}

void
BM_MachineNative(benchmark::State &state)
{
    runOnce(std::nullopt, state);
}

void
BM_MachineHwInc(benchmark::State &state)
{
    runOnce(check::Scheme::HwInc, state);
}

void
BM_MachineSwInc(benchmark::State &state)
{
    runOnce(check::Scheme::SwInc, state);
}

void
BM_MachineSwTr(benchmark::State &state)
{
    runOnce(check::Scheme::SwTr, state);
}

/**
 * A native (hashing-off) run with the FastTrack race detector as its
 * only listener: the per-access path of `icheck check --race-log`.
 */
void
BM_MachineRaceDetector(benchmark::State &state)
{
    std::uint64_t accesses = 0;
    for (auto _ : state) {
        sim::MachineConfig cfg;
        cfg.numCores = 4;
        cfg.schedSeed = 42;
        cfg.hashingArmed = false;
        race::RaceDetector detector;
        sim::Machine machine(cfg);
        machine.addListener(&detector);
        auto barrier_id = std::make_shared<sim::BarrierId>();
        auto program = kernel(barrier_id);
        const sim::RunResult result = machine.run(*program);
        benchmark::DoNotOptimize(detector.accessesChecked());
        accesses += result.nativeInstrs;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(accesses));
}

/** One fiber resume+yield round trip: the scheduler's handoff. */
void
BM_FiberSwitch(benchmark::State &state)
{
    sim::SimFiber fiber;
    bool stop = false;
    fiber.start([&] {
        while (!stop)
            fiber.yield();
    });
    for (auto _ : state)
        fiber.resume();
    stop = true;
    fiber.resume();
    fiber.join();
    state.SetItemsProcessed(state.iterations());
}

/** SparseMemory word access: one 8-byte write and one read per item. */
void
BM_SparseMemoryWord(benchmark::State &state)
{
    mem::SparseMemory memory;
    Xoshiro256 rng(3);
    std::uint64_t acc = 0;
    for (auto _ : state) {
        const Addr addr = 0x10000 + (rng.next() & 0x3fff8);
        memory.writeValue(addr, 8, acc + 1);
        acc ^= memory.readValue(addr, 8);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(2 * state.iterations());
}

/** SparseMemory bulk write then read of one 256 KiB block. */
void
BM_SparseMemoryBulk(benchmark::State &state)
{
    std::vector<std::uint8_t> block(256 * 1024);
    Xoshiro256 rng(4);
    for (std::uint8_t &byte : block)
        byte = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> back(block.size());
    mem::SparseMemory memory;
    // An unaligned base, so the block straddles page boundaries.
    const Addr base = 0x20000 + 37;
    for (auto _ : state) {
        memory.writeBytes(base, block.data(), block.size());
        memory.readBytes(base, back.data(), back.size());
        benchmark::DoNotOptimize(back.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(2 * block.size()) *
                            state.iterations());
}

/**
 * A machine paused mid-run on the barrier kernel: run once with a
 * checkpoint taken at decision 64 (of about 140, quantum 16), then
 * restored, so the machine sits at that decision between finishRun()
 * calls with four live fiber stacks, as the explorer's engine does.
 */
struct PausedMachine
{
    PausedMachine()
    {
        sim::MachineConfig cfg;
        cfg.numCores = 4;
        machine = std::make_unique<sim::Machine>(cfg);
        program = kernel(std::make_shared<sim::BarrierId>());
        machine->setScheduler(std::make_unique<sim::ScriptedScheduler>(
            std::vector<std::uint32_t>{}, 16, false));
        std::size_t decisions = 0;
        machine->setDecisionHandler([&](const std::vector<ThreadId> &) {
            if (++decisions == 64)
                snap = machine->checkpoint();
        });
        machine->run(*program);
        machine->setDecisionHandler(nullptr);
        machine->restore(*snap);
    }

    std::unique_ptr<sim::LambdaProgram> program;
    std::unique_ptr<sim::Machine> machine;
    std::shared_ptr<const sim::MachineSnapshot> snap;
};

/** Machine::checkpoint plus the release of the snapshot it returns. */
void
BM_MachineCheckpoint(benchmark::State &state)
{
    if (!sim::Machine::snapshotSupported()) {
        state.SkipWithError("no fiber snapshots in this build");
        return;
    }
    PausedMachine paused;
    for (auto _ : state) {
        std::shared_ptr<const sim::MachineSnapshot> taken =
            paused.machine->checkpoint();
        benchmark::DoNotOptimize(taken.get());
    }
    state.SetItemsProcessed(state.iterations());
}

/** Machine::restore of the mid-run snapshot. */
void
BM_MachineRestore(benchmark::State &state)
{
    if (!sim::Machine::snapshotSupported()) {
        state.SkipWithError("no fiber snapshots in this build");
        return;
    }
    PausedMachine paused;
    for (auto _ : state) {
        paused.machine->restore(*paused.snap);
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * Feed @p tracker a 4-thread run of @p decisions slices shaped like an
 * explore prefix: each slice loads and stores one or two of nine
 * granules, every fifth under the one lock. Returns the choice history.
 */
std::vector<std::uint32_t>
feedDporRun(explore::DporTracker &tracker, std::size_t decisions)
{
    constexpr ThreadId kThreads = 4;
    const std::vector<ThreadId> runnable = {0, 1, 2, 3};
    const auto granule = [](std::uint64_t g) { return 0x1000 + 8 * g; };
    tracker.reset(kThreads);
    for (std::uint64_t g = 0; g < 9; ++g) { // the prelude initializes
        sim::StoreEvent store;
        store.tid = kThreads;
        store.addr = granule(g);
        tracker.onStore(store);
    }
    Xoshiro256 rng(11);
    std::vector<std::uint32_t> chosen;
    for (std::size_t d = 0; d < decisions; ++d) {
        tracker.onDecision(runnable, chosen);
        const auto pick = static_cast<std::uint32_t>(rng.below(kThreads));
        chosen.push_back(pick);
        const ThreadId tid = runnable[pick];
        const bool locked = d % 5 == 0;
        if (locked)
            tracker.onSync({sim::SyncKind::LockAcquire, tid, 0, 0});
        sim::LoadEvent load;
        load.tid = tid;
        load.addr = granule(rng.below(9));
        tracker.onLoad(load);
        sim::StoreEvent store;
        store.tid = tid;
        store.addr = load.addr;
        tracker.onStore(store);
        if (rng.below(2) == 0) {
            load.addr = granule(rng.below(9));
            tracker.onLoad(load);
        }
        if (locked)
            tracker.onSync({sim::SyncKind::LockRelease, tid, 0, 0});
    }
    tracker.finishRun(chosen);
    return chosen;
}

/**
 * Copy plus destroy of the slice analysis a checkpoint holds: the
 * tracker after a 50-decision, 4-thread prefix.
 */
void
BM_DporTrackerCopy(benchmark::State &state)
{
    explore::DporTracker tracker;
    feedDporRun(tracker, 50);
    for (auto _ : state) {
        explore::DporTracker copy(tracker);
        benchmark::DoNotOptimize(copy.hb().sliceCount());
    }
    state.SetItemsProcessed(state.iterations());
}

/** SliceHb::closeSlice throughput over 1,000-slice 4-thread runs. */
void
BM_SliceHbCloseSlice(benchmark::State &state)
{
    struct Access
    {
        race::SliceHb::Op op;
        std::uint64_t object;
    };
    constexpr std::size_t kSlices = 1000;
    Xoshiro256 rng(12);
    std::vector<std::vector<Access>> script(kSlices);
    std::vector<ThreadId> tids(kSlices);
    for (std::size_t i = 0; i < kSlices; ++i) {
        tids[i] = static_cast<ThreadId>(rng.below(4));
        for (std::uint64_t k = 1 + rng.below(3); k > 0; --k) {
            const std::uint64_t g = 0x1000 + 8 * rng.below(64);
            script[i].push_back({race::SliceHb::Op::Read, g});
            if (rng.below(2) == 0)
                script[i].push_back({race::SliceHb::Op::Write, g});
        }
    }
    for (auto _ : state) {
        race::SliceHb hb(4);
        hb.closeSlice(4, race::SliceHb::noIndex);
        for (std::size_t i = 0; i < kSlices; ++i) {
            for (const Access &access : script[i])
                hb.record(access.op, access.object);
            hb.closeSlice(tids[i], i);
        }
        benchmark::DoNotOptimize(hb.races().size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(kSlices) *
                            state.iterations());
}

/**
 * One run's branch-ledger claims at depth 60: expandDpor of a run whose
 * prefix is its first 30 decisions, against a ledger that already holds
 * its claims (the steady state of a search revisiting branch points).
 */
void
BM_BranchLedgerRun(benchmark::State &state)
{
    constexpr std::size_t kDepth = 60;
    explore::DporTracker tracker;
    const std::vector<std::uint32_t> chosen = feedDporRun(tracker, kDepth);
    explore::detail::RunObservation obs;
    obs.fanout.assign(kDepth, 4);
    obs.path = chosen;
    obs.prevIdx.assign(kDepth, -1);
    obs.preemptionsBefore.assign(kDepth + 1, 0);
    obs.dpor = std::make_shared<const explore::detail::DporRunData>(
        tracker.takeRunData({}));
    explore::detail::PendingNode node;
    node.prefix.assign(chosen.begin(), chosen.begin() + kDepth / 2);
    const explore::ExploreConfig config;
    explore::BranchLedger ledger;
    explore::ExploreStats stats;
    std::uint64_t emitted = 0;
    const std::function<void(explore::detail::PendingNode)> emit =
        [&emitted](explore::detail::PendingNode) { ++emitted; };
    for (auto _ : state) {
        benchmark::DoNotOptimize(explore::detail::expandDpor(
            obs, node, config, ledger, stats, emit));
    }
    benchmark::DoNotOptimize(emitted);
    state.SetItemsProcessed(state.iterations());
}

} // namespace

BENCHMARK(BM_MachineNative)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineHwInc)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineSwInc)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineSwTr)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineRaceDetector)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_FiberSwitch);
BENCHMARK(BM_SparseMemoryWord);
BENCHMARK(BM_SparseMemoryBulk)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineCheckpoint);
BENCHMARK(BM_MachineRestore);
BENCHMARK(BM_DporTrackerCopy);
BENCHMARK(BM_SliceHbCloseSlice)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_BranchLedgerRun);
