/**
 * @file
 * Host-side throughput of the simulator itself: simulated accesses per
 * second for a native run, with the HW checker attached (MHM hashing
 * every store), with the software checkers, and with the FastTrack race
 * detector attached — the cost of using this library, as opposed to the
 * modeled target overheads of Figure 6 — plus the SparseMemory layer
 * every access ends in, word by word and in bulk.
 */

#include <benchmark/benchmark.h>
#include <cstdint>
#include <memory>
#include <vector>

#include "check/checker.hpp"
#include "mem/memory.hpp"
#include "race/race_detector.hpp"
#include "sim/lambda_program.hpp"
#include "sim/machine.hpp"
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

} // namespace

BENCHMARK(BM_MachineNative)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineHwInc)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineSwInc)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineSwTr)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MachineRaceDetector)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_SparseMemoryWord);
BENCHMARK(BM_SparseMemoryBulk)->Unit(benchmark::kMicrosecond);
