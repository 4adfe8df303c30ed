#ifndef ICHECK_SIM_LISTENER_HPP
#define ICHECK_SIM_LISTENER_HPP

/**
 * @file
 * Observation interface onto a simulated run.
 *
 * Software InstantCheck schemes, the race detector, and ad-hoc analysis
 * tools subscribe here. This is the repo's substitute for Pin
 * instrumentation callbacks: every simulated memory access, allocation,
 * synchronization operation, and output write is reported.
 */

#include <cstdint>

#include "hashing/state_hash.hpp"
#include "mem/alloc.hpp"
#include "support/types.hpp"

namespace icheck::sim
{

/** Whose cost account an access belongs to. */
enum class CostDomain : std::uint8_t
{
    Native,   ///< The program under test.
    Overhead, ///< Instrumentation added by InstantCheck (zeroing etc.).
};

/** One store, observed after the value is in simulated memory. */
struct StoreEvent
{
    ThreadId tid = 0;
    CoreId core = 0;
    Addr addr = 0;
    std::uint64_t oldBits = 0;
    std::uint64_t newBits = 0;
    unsigned width = 0;
    hashing::ValueClass cls = hashing::ValueClass::Integer;
    CostDomain domain = CostDomain::Native;

    /**
     * False when the store happened inside a stop_hashing window
     * (Section 3.3): software incremental checkers must skip it, exactly
     * as the MHM does. This is the thread's gate only; it does not
     * depend on MachineConfig::hashingArmed, so SW-Inc hashes the same
     * stores whether or not the MHM runs beside it.
     */
    bool hashed = false;
};

/** One load. */
struct LoadEvent
{
    ThreadId tid = 0;
    CoreId core = 0;
    Addr addr = 0;
    unsigned width = 0;
};

/** Synchronization event kinds. */
enum class SyncKind : std::uint8_t
{
    LockAcquire,
    LockRelease,
    BarrierArrive,
    BarrierLeave,
    CondWait,
    CondSignal,
    ThreadStart,
    ThreadFinish,
};

/** One synchronization operation. */
struct SyncEvent
{
    SyncKind kind;
    ThreadId tid = 0;
    std::uint32_t object = 0; ///< Mutex/barrier/cond id (0 for thread ops).
    std::uint64_t epoch = 0;  ///< Barrier epoch, when applicable.
};

/** Kind of a determinism checkpoint (Section 2.3). */
enum class CheckpointKind : std::uint8_t
{
    Barrier,    ///< A pthread-style barrier completed.
    Manual,     ///< Programmer-specified point (e.g., loop iteration end).
    ProgramEnd, ///< All threads finished.
};

/** Information passed to the checkpoint handler and onCheckpoint(). */
struct CheckpointInfo
{
    CheckpointKind kind;
    std::uint64_t index; ///< 0-based sequence number within the run.
    ThreadId tid;        ///< Thread at the checkpoint (invalid at end).
};

/** How a schedule slice ended (mapped from the thread's YieldReason). */
enum class SliceEnd : std::uint8_t
{
    Running,   ///< Slice-begin events: nothing ended yet.
    Preempted, ///< Quantum expiry while still runnable.
    Yielded,   ///< Voluntary yield at a sync point.
    Blocked,   ///< Blocked on a mutex/barrier/condvar.
    Finished,  ///< The thread body returned.
};

/** One schedule slice boundary: a thread switching onto or off a core. */
struct SliceEvent
{
    ThreadId tid = 0;
    CoreId core = 0;
    bool begin = true; ///< True at switch-in, false at switch-out.
    SliceEnd reason = SliceEnd::Running; ///< Why it ended (end events).
};

/**
 * Subscriber to run events. All callbacks fire synchronously on the
 * currently running simulated thread, inside the operation that raised
 * them (the way a Pin analysis routine runs inside the instrumented
 * instruction); because execution is serialized, no locking is needed.
 */
class AccessListener
{
  public:
    virtual ~AccessListener() = default;

    virtual void onStore(const StoreEvent &) {}
    virtual void onLoad(const LoadEvent &) {}
    virtual void onSync(const SyncEvent &) {}
    virtual void onAlloc(const mem::Block &) {}
    virtual void onFree(const mem::Block &) {}
    virtual void onOutput(ThreadId, const std::uint8_t *, std::size_t) {}
    virtual void onSlice(const SliceEvent &) {}
    virtual void onCheckpoint(const CheckpointInfo &) {}
};

} // namespace icheck::sim

#endif // ICHECK_SIM_LISTENER_HPP
