/**
 * @file
 * Hot-path throughput of the access/hash pipeline, as one machine-readable
 * number per layer (default output BENCH_hotpath.json):
 *
 *   - store-hash loop: Mhm::observeStore stores/sec (basic + clustered);
 *   - span hashing:    StateHasher::spanHash bytes/sec;
 *   - memory:          SparseMemory word access/sec and bulk bytes/sec;
 *   - end-to-end:      Machine accesses/sec, native and with the HW-Inc
 *                      checker attached;
 *   - race detector:   Machine accesses/sec with the FastTrack race
 *                      detector attached as a listener, hashing off;
 *   - check path:      Machine accesses/sec of a hashing-off run with no
 *                      listener, its output stream hashed after the run
 *                      as a campaign run does.
 *
 * Usage: micro_hotpath [out.json] [--quick] [--baseline <json>]
 *
 * --quick shrinks every loop ~10x for CI smoke runs. --baseline reads a
 * previous output (e.g. one recorded at the main commit on the same host)
 * and embeds it plus per-metric speedups, so the JSON itself documents the
 * win of a hot-path change instead of leaving it a claim. Numbers are
 * host-specific; compare only files produced on one machine.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "check/io_hash.hpp"
#include "hashing/location_hash.hpp"
#include "hashing/state_hash.hpp"
#include "mem/memory.hpp"
#include "mhm/mhm.hpp"
#include "race/race_detector.hpp"
#include "sim/lambda_program.hpp"
#include "sim/machine.hpp"
#include "support/rng.hpp"

using namespace icheck;

namespace
{

using Clock = std::chrono::steady_clock;

constexpr int kReps = 3; // best-of to damp host noise

/** The metric keys, in emission order. */
const std::vector<std::string> kKeys = {
    "storeHashStoresPerSec",
    "storeHashClusteredStoresPerSec",
    "spanHashBytesPerSec",
    "memAccessesPerSec",
    "memBulkBytesPerSec",
    "machineNativeAccessesPerSec",
    "machineHwIncAccessesPerSec",
    "machineRaceAccessesPerSec",
    "machineCheckAccessesPerSec",
};

struct Metrics
{
    double values[9] = {};

    double &operator[](std::size_t i) { return values[i]; }
    double operator[](std::size_t i) const { return values[i]; }
};

double
seconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Best-of-kReps items/sec of @p body, which returns items done. */
template <typename Fn>
double
bestRate(Fn &&body)
{
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        const auto start = Clock::now();
        const double items = static_cast<double>(body());
        const double secs = seconds(start);
        if (secs > 0.0 && items / secs > best)
            best = items / secs;
    }
    return best;
}

/** Mhm::observeStore throughput: 8-byte integer stores. */
double
storeHashRate(mhm::Mhm &module, std::uint64_t stores)
{
    return bestRate([&] {
        module.reset();
        module.startHashing();
        module.stopFpRounding();
        Xoshiro256 rng(1);
        std::uint64_t prev = 0;
        for (std::uint64_t i = 0; i < stores; ++i) {
            const Addr addr = 0x1000 + (rng.next() & 0x7ff8);
            const std::uint64_t value = rng.next() | 1;
            module.observeStore(addr, prev, value, 8,
                                hashing::ValueClass::Integer);
            prev = value;
        }
        // Fold the TH so the loop cannot be optimized out.
        volatile HashWord sink = module.th().raw();
        (void)sink;
        return stores;
    });
}

/** StateHasher::spanHash throughput over a 64 KiB buffer. */
double
spanHashRate(std::uint64_t passes)
{
    const hashing::Crc64LocationHasher hasher;
    const hashing::StateHasher pipeline(hasher,
                                        hashing::FpRoundMode::none());
    std::vector<std::uint8_t> data(64 * 1024);
    Xoshiro256 rng(2);
    for (auto &byte : data)
        byte = static_cast<std::uint8_t>(rng.next());
    return bestRate([&] {
        hashing::ModHash sum;
        for (std::uint64_t p = 0; p < passes; ++p)
            sum += pipeline.spanHash(0x4000 + p, data.data(), data.size());
        volatile HashWord sink = sum.raw();
        (void)sink;
        return passes * data.size();
    });
}

/** SparseMemory word-access throughput (one write + one read per step). */
double
memAccessRate(std::uint64_t steps)
{
    return bestRate([&] {
        mem::SparseMemory memory;
        Xoshiro256 rng(3);
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < steps; ++i) {
            const Addr addr = 0x10000 + (rng.next() & 0x3fff8);
            memory.writeValue(addr, 8, acc + i);
            acc ^= memory.readValue(addr, 8);
        }
        volatile std::uint64_t sink = acc;
        (void)sink;
        return 2 * steps;
    });
}

/** SparseMemory bulk read/write throughput over 256 KiB blocks. */
double
memBulkRate(std::uint64_t passes)
{
    std::vector<std::uint8_t> block(256 * 1024);
    Xoshiro256 rng(4);
    for (auto &byte : block)
        byte = static_cast<std::uint8_t>(rng.next());
    std::vector<std::uint8_t> back(block.size());
    return bestRate([&] {
        mem::SparseMemory memory;
        std::uint64_t bytes = 0;
        for (std::uint64_t p = 0; p < passes; ++p) {
            // Unaligned base so every pass straddles page boundaries.
            const Addr base = 0x20000 + 37 * (p % 5);
            memory.writeBytes(base, block.data(), block.size());
            memory.readBytes(base, back.data(), back.size());
            bytes += 2 * block.size();
        }
        volatile std::uint8_t sink = back[back.size() / 2];
        (void)sink;
        return bytes;
    });
}

/** A write-heavy 4-thread kernel with barrier checkpoints. */
std::unique_ptr<sim::LambdaProgram>
kernel(std::shared_ptr<sim::BarrierId> barrier_id, int phases)
{
    return std::make_unique<sim::LambdaProgram>(
        "hotpath-kernel", 4,
        [barrier_id](sim::SetupCtx &ctx) {
            ctx.global("data", mem::tArray(mem::tInt64(), 1024));
            *barrier_id = ctx.barrier(4);
        },
        [barrier_id, phases](sim::ThreadCtx &ctx) {
            const Addr data = ctx.global("data");
            for (int phase = 0; phase < phases; ++phase) {
                for (int i = 0; i < 256; ++i) {
                    const Addr slot =
                        data + 8 * ((ctx.tid() * 256 + i) % 1024);
                    // 3 stores per load: a store-heavy scatter/update
                    // shape, where per-store costs dominate.
                    const std::int64_t v =
                        ctx.load<std::int64_t>(slot) + i + 1;
                    ctx.store<std::int64_t>(slot, v);
                    ctx.store<std::int64_t>(slot, v ^ (i << 1));
                    ctx.store<std::int64_t>(slot, v + 3);
                }
                ctx.outputValue<std::int32_t>(phase);
                ctx.barrier(*barrier_id);
            }
        });
}

/** End-to-end machine accesses/sec, optionally with a checker attached. */
double
machineRate(std::optional<check::Scheme> scheme, int runs, int phases)
{
    return bestRate([&] {
        std::uint64_t accesses = 0;
        for (int run = 0; run < runs; ++run) {
            sim::MachineConfig cfg;
            cfg.numCores = 4;
            cfg.schedSeed = 42 + run;
            if (!scheme.has_value()) {
                // The paper's baseline: an uninstrumented native run does
                // not pay for hashing at all.
                cfg.hashingArmed = false;
            }
            sim::Machine machine(cfg);
            std::unique_ptr<check::Checker> checker;
            if (scheme.has_value()) {
                checker = check::makeChecker(*scheme);
                checker->attach(machine);
                machine.setRunStartHandler([&] { checker->onRunStart(); });
                machine.setCheckpointHandler(
                    [&](const sim::CheckpointInfo &) {
                        volatile HashWord sink =
                            checker->checkpointHash().raw();
                        (void)sink;
                    });
            }
            auto barrier_id = std::make_shared<sim::BarrierId>();
            auto program = kernel(barrier_id, phases);
            const sim::RunResult result = machine.run(*program);
            accesses += result.nativeInstrs;
        }
        return accesses;
    });
}

/** A native (hashing-off) run with the FastTrack race detector attached. */
double
machineRaceRate(int runs, int phases)
{
    return bestRate([&] {
        std::uint64_t accesses = 0;
        for (int run = 0; run < runs; ++run) {
            sim::MachineConfig cfg;
            cfg.numCores = 4;
            cfg.schedSeed = 42 + run;
            cfg.hashingArmed = false;
            race::RaceDetector detector;
            sim::Machine machine(cfg);
            machine.addListener(&detector);
            auto barrier_id = std::make_shared<sim::BarrierId>();
            auto program = kernel(barrier_id, phases);
            const sim::RunResult result = machine.run(*program);
            volatile std::uint64_t sink = detector.accessesChecked();
            (void)sink;
            accesses += result.nativeInstrs;
        }
        return accesses;
    });
}

/**
 * The campaign run's own cost outside the scheme: hashing off, no
 * listener, and the output stream hashed once after the run — exactly
 * what executeCampaignRun adds to a run.
 */
double
machineCheckRate(int runs, int phases)
{
    return bestRate([&] {
        std::uint64_t accesses = 0;
        for (int run = 0; run < runs; ++run) {
            sim::MachineConfig cfg;
            cfg.numCores = 4;
            cfg.schedSeed = 42 + run;
            cfg.hashingArmed = false;
            sim::Machine machine(cfg);
            auto barrier_id = std::make_shared<sim::BarrierId>();
            auto program = kernel(barrier_id, phases);
            const sim::RunResult result = machine.run(*program);
            volatile HashWord sink =
                check::hashOutputStream(machine.output());
            (void)sink;
            accesses += result.nativeInstrs;
        }
        return accesses;
    });
}

/**
 * Extract the first occurrence of each metric key from @p path (a previous
 * output of this bench; the "current" block is emitted first, so the first
 * occurrence is the one to compare against).
 */
std::optional<Metrics>
readBaseline(const std::string &path)
{
    std::FILE *in = std::fopen(path.c_str(), "r");
    if (in == nullptr) {
        std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
        return std::nullopt;
    }
    std::string text;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), in)) > 0)
        text.append(buf, got);
    std::fclose(in);

    Metrics base;
    for (std::size_t i = 0; i < kKeys.size(); ++i) {
        const std::string needle = "\"" + kKeys[i] + "\":";
        const std::size_t pos = text.find(needle);
        if (pos == std::string::npos) {
            // Baselines pinned before a metric existed simply lack its
            // key; report a zero rate (speedup renders as 0) instead of
            // refusing the whole comparison.
            std::fprintf(stderr, "baseline %s lacks %s (treated as 0)\n",
                         path.c_str(), kKeys[i].c_str());
            base[i] = 0.0;
            continue;
        }
        base[i] = std::strtod(text.c_str() + pos + needle.size(), nullptr);
    }
    return base;
}

void
emitBlock(std::FILE *out, const char *name, const Metrics &m,
          const char *fmt)
{
    std::fprintf(out, "  \"%s\": {", name);
    for (std::size_t i = 0; i < kKeys.size(); ++i) {
        std::fprintf(out, "%s\n    \"%s\": ", i == 0 ? "" : ",",
                     kKeys[i].c_str());
        std::fprintf(out, fmt, m[i]);
    }
    std::fprintf(out, "\n  }");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_hotpath.json";
    std::string baseline_path;
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--baseline" && i + 1 < argc) {
            baseline_path = argv[++i];
        } else {
            out_path = arg;
        }
    }

    const std::uint64_t scale = quick ? 1 : 10;
    const unsigned hw = std::thread::hardware_concurrency();

    std::printf("micro_hotpath (%s): hardware concurrency %u\n",
                quick ? "quick" : "full", hw);

    Metrics cur;
    {
        hashing::Crc64LocationHasher hasher;
        mhm::BasicMhm basic(hasher, hashing::FpRoundMode::paperDefault());
        cur[0] = storeHashRate(basic, 200'000 * scale);
        mhm::ClusteredMhm clustered(hasher,
                                    hashing::FpRoundMode::paperDefault(),
                                    4, mhm::DispatchPolicy::RoundRobin, 1);
        cur[1] = storeHashRate(clustered, 200'000 * scale);
    }
    cur[2] = spanHashRate(16 * scale);
    cur[3] = memAccessRate(400'000 * scale);
    cur[4] = memBulkRate(8 * scale);
    cur[5] = machineRate(std::nullopt, static_cast<int>(2 * scale), 8);
    cur[6] = machineRate(check::Scheme::HwInc,
                         static_cast<int>(2 * scale), 8);
    cur[7] = machineRaceRate(static_cast<int>(2 * scale), 8);
    cur[8] = machineCheckRate(static_cast<int>(2 * scale), 8);

    for (std::size_t i = 0; i < kKeys.size(); ++i)
        std::printf("%34s %14.0f\n", kKeys[i].c_str(), cur[i]);

    std::optional<Metrics> base;
    if (!baseline_path.empty()) {
        base = readBaseline(baseline_path);
        if (!base.has_value())
            return 1;
    }

    std::FILE *out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"bench\": \"micro_hotpath\",\n"
                 "  \"quick\": %s,\n"
                 "  \"hardwareConcurrency\": %u,\n",
                 quick ? "true" : "false", hw);
    emitBlock(out, "current", cur, "%.0f");
    if (base.has_value()) {
        std::fprintf(out, ",\n");
        emitBlock(out, "mainBaseline", *base, "%.0f");
        Metrics speedup;
        for (std::size_t i = 0; i < kKeys.size(); ++i)
            speedup[i] = (*base)[i] > 0.0 ? cur[i] / (*base)[i] : 0.0;
        std::fprintf(out, ",\n");
        emitBlock(out, "speedupVsMain", speedup, "%.2f");
        std::printf("speedup vs main:\n");
        for (std::size_t i = 0; i < kKeys.size(); ++i)
            std::printf("%34s %13.2fx\n", kKeys[i].c_str(), speedup[i]);
    }
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
