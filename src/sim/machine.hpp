#ifndef ICHECK_SIM_MACHINE_HPP
#define ICHECK_SIM_MACHINE_HPP

/**
 * @file
 * The simulated multicore machine.
 *
 * A Machine owns the shared memory, the cores (each with an L1 cache,
 * write buffer, and MHM), the simulated threads, and the synchronization
 * objects of one program run. It executes a Program under a serializing
 * scheduler: exactly one simulated thread runs at any time, and every
 * scheduling decision comes from the (seeded) Scheduler, making the whole
 * run a pure function of (program, input seed, scheduler seed).
 *
 * A Machine instance executes exactly one run; the determinism driver
 * constructs a fresh Machine per run.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/write_buffer.hpp"
#include "hashing/location_hash.hpp"
#include "mem/alloc.hpp"
#include "mem/memory.hpp"
#include "mem/static_segment.hpp"
#include "mhm/mhm.hpp"
#include "sim/core.hpp"
#include "sim/listener.hpp"
#include "sim/program.hpp"
#include "sim/sched.hpp"
#include "sim/sync.hpp"
#include "sim/thread.hpp"
#include "support/stats.hpp"
#include "support/types.hpp"

namespace icheck::sim
{

/** Full configuration of one simulated run. */
struct MachineConfig
{
    CoreId numCores = 8;

    /** Seed for the default RandomScheduler (ignored if one is injected). */
    std::uint64_t schedSeed = 1;

    /** Seed for program input data and intercepted library calls. */
    std::uint64_t inputSeed = 42;

    std::uint64_t minQuantum = 20;
    std::uint64_t maxQuantum = 200;
    double migrateProb = 0.05;

    cache::CacheConfig cacheCfg{};
    std::size_t wbCapacity = 16;
    cache::DrainPolicy wbPolicy = cache::DrainPolicy::Fifo;

    mhm::MhmConfig mhmCfg{};
    hashing::HasherKind hasherKind = hashing::HasherKind::Crc64;

    /** Whether the FP round-off unit is active during this run. */
    bool fpRoundingEnabled = true;

    /**
     * Whether the MHM hardware is armed at all this run. False models a
     * stock machine with the hashing hardware fused off: TH registers
     * stay zero and drained stores skip the MHM entirely — the native
     * baseline of the overhead benchmarks. A campaign arms it only when
     * its scheme reads TH (HW-Inc; see check::executeCampaignRun), so
     * software-scheme runs report storesHashed = 0. Listeners still see
     * each store's stop_hashing gate in StoreEvent::hashed.
     */
    bool hashingArmed = true;
};

// CheckpointKind / CheckpointInfo live in sim/listener.hpp (they are
// delivered through AccessListener::onCheckpoint as well as the handler).

/** Aggregate results of one run. */
struct RunResult
{
    std::uint64_t checkpoints = 0;
    InstCount nativeInstrs = 0;
    InstCount overheadInstrs = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** Stores the MHMs hashed; 0 when the MHM was not armed. */
    std::uint64_t storesHashed = 0;
};

/**
 * Pseudo lock id used for the allocator's internal serialization in sync
 * events (real mallocs take a lock; the happens-before detector needs
 * that edge to order frees before reuses).
 */
inline constexpr std::uint32_t allocatorLockId = 0xffffffffu;

/** Thrown when a run cannot proceed (e.g., deadlock). */
class SimError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

class SetupCtx;
class ThreadCtx;
class Machine;

/**
 * The complete captured architectural state of a Machine at one scheduling
 * decision: a copy-on-write fork of the memory image, the allocator and
 * malloc-replay state, every core's microarchitecture (instruction
 * counters, L1 tags, write buffer, MHM registers), every thread's
 * architectural state plus its fiber stack image, the synchronization
 * objects, and the run-level byproducts (output stream, statistics,
 * checkpoint index).
 *
 * Snapshots are machine-affine: the fiber images inside them are bound to
 * the stacks of the Machine that produced them, so a snapshot may only be
 * restored into that same Machine (restore() asserts the shapes match and
 * the fibers assert their stack identity). Produced by Machine::checkpoint()
 * and consumed by Machine::restore(); the explorer's checkpoint tree holds
 * them behind shared_ptr leases.
 */
class MachineSnapshot
{
  public:
    MachineSnapshot() = default;

    /** Approximate incremental heap footprint, for cache budgeting. */
    std::size_t bytes() const { return footprint; }

  private:
    friend class Machine;

    struct CoreState
    {
        InstCount nativeInstrs = 0;
        InstCount overheadInstrs = 0;
        cache::L1Cache l1;
        cache::WriteBuffer wb;
        mhm::MhmState mhm;
        ThreadId currentThread = invalidThreadId;
    };

    struct ThreadSnap
    {
        ThreadState state = ThreadState::Ready;
        YieldReason lastReason = YieldReason::Sync;
        bool hashingPaused = false;
        std::int64_t quantum = 0;
        HashWord savedTh = 0;
        CoreId lastCore = invalidCoreId;
        std::uint64_t randCalls = 0;
        std::uint64_t timeCalls = 0;
        std::uint64_t progress = 0;
        std::uint64_t loadHash = 0;
        FiberSnapshot fiber;
    };

    mem::SparseMemory mem;
    mem::ReplayLog logState;
    mem::DeterministicAllocator::State heapState;
    std::vector<CoreState> coreStates;
    std::vector<ThreadSnap> threadStates;
    std::vector<SimMutex> mutexes;
    std::vector<SimBarrier> barriers;
    std::vector<SimCond> conds;
    std::vector<std::uint8_t> outputBytes;
    StatGroup statistics;
    std::uint64_t checkpointIndex = 0;
    std::size_t footprint = 0;
};

/**
 * One simulated machine executing one run. See file comment.
 */
class Machine
{
  public:
    /**
     * @param config     Run configuration.
     * @param shared_log Malloc-replay log shared across runs (may be null,
     *                   in which case a private log is used).
     * @param alloc_mode Record (log addresses) or Replay (serve them).
     */
    explicit Machine(
        const MachineConfig &config,
        mem::ReplayLog *shared_log = nullptr,
        mem::DeterministicAllocator::Mode alloc_mode =
            mem::DeterministicAllocator::Mode::Record);

    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /** Inject a scheduler (default: RandomScheduler from schedSeed). */
    void setScheduler(std::unique_ptr<Scheduler> sched);

    /** Subscribe @p listener to run events (not owned). */
    void addListener(AccessListener *listener);

    /** Called after setup(), before the first thread runs. */
    void setRunStartHandler(std::function<void()> handler);

    /** Called at every determinism checkpoint. */
    void
    setCheckpointHandler(std::function<void(const CheckpointInfo &)> handler);

    /**
     * Called at every scheduling decision with the runnable set, while
     * every thread is parked (write buffers drained, TH registers saved).
     * Used by the systematic-testing explorer to compute state-pruning
     * signatures.
     */
    void setDecisionHandler(
        std::function<void(const std::vector<ThreadId> &)> handler);

    /**
     * Enable InstantCheck instrumentation: allocations are zero-filled and
     * freed blocks scrubbed through the hashed store path (the Section 5
     * "set allocated values to zero" behaviour whose cost is the HW
     * scheme's only overhead).
     */
    void setInstrumentation(bool on) { instrumentation = on; }

    /** Execute @p program to completion. May be called once. */
    RunResult run(Program &program);

    /// @name Checkpoint/restore session API (prefix-sharing exploration).
    ///
    /// run() is equivalent to beginRun() + finishRun(). Splitting it lets
    /// a caller that holds MachineSnapshots rewind the machine between
    /// finishRun() calls: beginRun() once, then any number of
    /// { [restore(snapshot);] finishRun() } rounds, each completing the
    /// run from the machine's current (possibly restored) state. Every
    /// such completion is bit-identical to a cold run that made the same
    /// scheduling decisions — memory, hashes, output, statistics, and
    /// reports all match byte for byte.
    /// @{

    /** Whether checkpoint()/restore() work in this build (false under the
     *  host-thread fiber implementation used by TSan). */
    static bool snapshotSupported();

    /** Phases 1-3 of run(): setup, arming, thread spawn. Once per
     *  Machine. */
    void beginRun(Program &program);

    /** Phase 4-5 of run(): drive the scheduler loop from the machine's
     *  current state until every thread finishes, then fire the
     *  program-end checkpoint and assemble the result. */
    RunResult finishRun();

    /**
     * Capture the machine's complete architectural state. Only valid at a
     * quiescent point — inside a decision handler or between finishRun()
     * calls — when no thread is running and every write buffer has
     * drained through switchOut(). Requires a private malloc-replay log
     * (a shared log cannot be rewound without affecting other runs).
     */
    std::shared_ptr<const MachineSnapshot> checkpoint();

    /**
     * Rewind the machine to @p snap, which must have been produced by
     * this Machine's checkpoint(). Only valid while no thread is running
     * (between finishRun() calls or before the next decision executes).
     */
    void restore(const MachineSnapshot &snap);
    /// @}

    /// @name Accessors for checkers and tools.
    /// @{
    mem::SparseMemory &memory() { return mem; }
    const mem::SparseMemory &memory() const { return mem; }
    const mem::DeterministicAllocator &allocator() const { return heap; }
    const mem::StaticSegment &staticSegment() const { return statics; }
    const hashing::LocationHasher &hasher() const { return *locHasher; }

    /** Rounding in effect for FP stores this run. */
    hashing::FpRoundMode effectiveFpMode() const;

    const MachineConfig &config() const { return cfg; }
    CoreId numCores() const { return static_cast<CoreId>(cores.size()); }
    Core &core(CoreId id) { return *cores[id]; }
    const Core &core(CoreId id) const { return *cores[id]; }

    ThreadId numThreads() const
    {
        return static_cast<ThreadId>(threads.size());
    }

    /** Architectural TH of thread @p tid (valid whenever it is parked). */
    HashWord threadHash(ThreadId tid) const;

    /** Progress counter of thread @p tid (accesses + sync ops executed). */
    std::uint64_t threadProgress(ThreadId tid) const;

    /**
     * Fingerprint of the complete simulated state (memory via TH sums,
     * per-thread local state via progress + load-history hashes, and
     * synchronization-object states). Only meaningful while all threads
     * are parked, i.e. inside a decision or checkpoint handler. Used for
     * state pruning in systematic testing (Section 6.2).
     */
    std::uint64_t stateSignature() const;

    /** Output stream written through ctx.output() (Section 4.3). */
    const std::vector<std::uint8_t> &output() const { return outputBytes; }

    /// @name Access-site attribution (race-log export).
    ///
    /// When armed, ThreadCtx::load/store record their C++ call site
    /// (std::source_location of the app code) here just before issuing
    /// the access, so listeners running inside the access callback can
    /// attribute the event to a file:line. Disarmed (the default) the
    /// only cost is one predictable branch per typed access.
    /// @{
    void setAccessSiteTracking(bool on) { trackAccessSites = on; }
    bool accessSiteTrackingArmed() const { return trackAccessSites; }
    void noteAccessSite(const char *file, int line)
    {
        siteFile = file;
        siteLine = line;
    }
    /** File of the in-flight access's call site (null when unarmed). */
    const char *accessSiteFile() const { return siteFile; }
    int accessSiteLine() const { return siteLine; }
    /// @}

    StatGroup &stats() { return statistics; }
    bool instrumentationActive() const { return instrumentation; }

    /**
     * Render a full post-run statistics report: machine-level counters,
     * per-core instruction/cache/MHM numbers, allocator and memory
     * footprint — in the spirit of a simulator stats dump.
     */
    std::string renderStats() const;
    /// @}

  private:
    friend class SetupCtx;
    friend class ThreadCtx;

    /// @name Internal API used by the contexts (simulated-thread side).
    /// @{
    std::uint64_t loadAccess(Addr addr, unsigned width);
    void storeAccess(Addr addr, unsigned width, std::uint64_t bits,
                     hashing::ValueClass cls, CostDomain domain);
    void tick(InstCount n);
    Addr allocBlock(const std::string &site, const mem::TypeRef &type);
    void freeBlock(Addr addr);
    void lockMutex(MutexId id);
    void unlockMutex(MutexId id);
    void barrierWait(BarrierId id);
    void condWait(CondId cond, MutexId mutex);
    void condSignal(CondId cond);
    void condBroadcast(CondId cond);
    void manualCheckpoint();
    void setThreadHashing(bool enabled);
    std::uint64_t interceptedRand();
    std::uint64_t interceptedTimeUs();
    void writeOutput(const std::uint8_t *data, std::size_t len);
    /// @}

    MutexId createMutex();
    BarrierId createBarrier(std::uint32_t parties);
    CondId createCond();

    void threadEntry(ThreadId tid);
    void yieldCurrent(YieldReason reason);
    void step();
    SimThread &cur();
    Core &curCoreRef();

    void switchIn(ThreadId tid, CoreId core_id);
    void switchOut(ThreadId tid);
    void drainWriteBuffer(Core &core);
    void drainEntry(Core &core, const cache::WriteBufferEntry &entry);
    void fireCheckpoint(CheckpointKind kind, ThreadId tid);
    void emitSync(SyncKind kind, ThreadId tid, std::uint32_t object = 0,
                  std::uint64_t epoch = 0);
    void emitSlice(ThreadId tid, CoreId core_id, bool begin,
                   SliceEnd reason);
    void zeroRange(Addr addr, std::size_t len);
    void scrubTyped(Addr addr, const mem::TypeRef &type);
    void abortAll();

    MachineConfig cfg;
    mem::SparseMemory mem;
    mem::StaticSegment statics;
    mem::ReplayLog privateLog;
    mem::DeterministicAllocator heap;
    std::unique_ptr<hashing::LocationHasher> locHasher;
    std::unique_ptr<Scheduler> scheduler;

    std::vector<std::unique_ptr<Core>> cores;
    std::vector<std::unique_ptr<SimThread>> threads;
    std::vector<SimMutex> mutexes;
    std::vector<SimBarrier> barriers;
    std::vector<SimCond> conds;

    std::vector<AccessListener *> listeners;
    std::function<void()> runStartHandler;
    std::function<void(const CheckpointInfo &)> checkpointHandler;
    std::function<void(const std::vector<ThreadId> &)> decisionHandler;

    Program *program = nullptr;
    ThreadId curTid = invalidThreadId;
    CoreId curCore = invalidCoreId;
    std::uint64_t checkpointIndex = 0;
    bool instrumentation = false;
    bool ran = false;
    bool threadsLive = false;
    /** True when the malloc-replay log is this machine's own (checkpoint
     *  precondition: a shared log cannot be rewound per machine). */
    bool usesPrivateLog = true;

    /// @name Access-site attribution state (see the public accessors).
    /// @{
    bool trackAccessSites = false;
    const char *siteFile = nullptr;
    int siteLine = 0;
    /// @}

    std::vector<std::uint8_t> outputBytes;
    StatGroup statistics;
};

} // namespace icheck::sim

#endif // ICHECK_SIM_MACHINE_HPP
