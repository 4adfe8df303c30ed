#ifndef ICHECK_MHM_MHM_HPP
#define ICHECK_MHM_MHM_HPP

/**
 * @file
 * The Memory-State Hashing Module (Section 3).
 *
 * One MHM lives in each core's L1 cache controller. It holds the 64-bit
 * Thread Hash (TH) register and, for every write drained from the write
 * buffer into the L1, accumulates
 *
 *     TH = TH ominus hash(V_addr, Data_old) oplus hash(V_addr, Data_new)
 *
 * with Data_old and Data_new routed through the FP round-off unit when the
 * store was generated by an FP instruction. All operations are core-local.
 *
 * The software interface (Fig 4) is exposed as methods:
 *   start_hashing / stop_hashing, save_hash / restore_hash,
 *   minus_hash / plus_hash, start_FP_rounding / stop_FP_rounding.
 *
 * Two microarchitectures are modeled:
 *   - BasicMhm (Fig 3a): area-optimized, one hash unit feeding TH directly;
 *   - ClusteredMhm (Fig 3b): K parallel clusters accumulate partial sums
 *     that merge into TH lazily — correct for any dispatch order because
 *     the hash group is commutative and associative.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "hashing/fp_round.hpp"
#include "hashing/location_hash.hpp"
#include "hashing/mod_hash.hpp"
#include "hashing/state_hash.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/types.hpp"

namespace icheck::mhm
{

/** How a ClusteredMhm routes half-operations to clusters. */
enum class DispatchPolicy
{
    RoundRobin,
    Random, ///< Seeded; exercises Section 3.2 order/placement freedom.
};

/** MHM microarchitecture selection. */
struct MhmConfig
{
    bool clustered = false;
    std::size_t clusters = 4;
    DispatchPolicy dispatch = DispatchPolicy::RoundRobin;
    std::uint64_t dispatchSeed = 1;
    hashing::FpRoundMode fpMode = hashing::FpRoundMode::paperDefault();
};

/**
 * Complete value state of one MHM, for machine checkpoints: the Fig 4
 * gates, the statistics counters, and the accumulator registers of either
 * microarchitecture (BasicMhm uses a single partial; ClusteredMhm adds
 * per-cluster op counts, the round-robin cursor, and the random-dispatch
 * generator). Restoring this into the same-shaped module reproduces its
 * behaviour bit-identically.
 */
struct MhmState
{
    bool hashingOn = false;
    bool fpRoundingOn = true;
    std::uint64_t nStores = 0;
    std::uint64_t nBytes = 0;
    std::vector<hashing::ModHash> partials;
    std::vector<std::uint64_t> opCounts;
    std::size_t nextCluster = 0;
    Xoshiro256 dispatchRng{1};
};

/**
 * Common MHM behaviour: the TH register semantics and the Fig 4 ISA.
 * Subclasses define only where partial sums accumulate.
 */
class Mhm
{
  public:
    /**
     * @param hasher Per-location hash unit (not owned; must outlive).
     * @param fp_mode Rounding applied while FP rounding is enabled.
     */
    Mhm(const hashing::LocationHasher &hasher,
        hashing::FpRoundMode fp_mode);

    virtual ~Mhm() = default;

    /** start_hashing: begin accumulating drained writes into TH. */
    void startHashing() { hashingOn = true; }

    /** stop_hashing: ignore drained writes (tool code runs unhashed). */
    void stopHashing() { hashingOn = false; }

    /** Whether writes are currently being hashed. */
    bool hashingEnabled() const { return hashingOn; }

    /** start_FP_rounding: round FP values before hashing. */
    void startFpRounding() { fpRoundingOn = true; }

    /** stop_FP_rounding: hash FP values bit-by-bit. */
    void stopFpRounding() { fpRoundingOn = false; }

    /** Whether the round-off unit is active. */
    bool fpRoundingEnabled() const { return fpRoundingOn; }

    /** save_hash: read the architectural TH register value. */
    HashWord saveHash() const { return th().raw(); }

    /** restore_hash: load TH from a saved value (context switch in). */
    void restoreHash(HashWord word);

    /** Reset TH to zero and clear statistics (run start). */
    void reset();

    /**
     * Observe one write drained from the write buffer into the L1:
     * accumulate ominus h(vaddr, old) oplus h(vaddr, new). No-op while
     * hashing is stopped.
     */
    void observeStore(Addr vaddr, std::uint64_t old_bits,
                      std::uint64_t new_bits, unsigned width,
                      hashing::ValueClass cls);

    /**
     * minus_hash addr: subtract the hash of the *current* value
     * @p current_bits at @p addr from TH (explicit instruction; applies
     * even while hashing is stopped).
     */
    void minusHash(Addr addr, std::uint64_t current_bits, unsigned width,
                   hashing::ValueClass cls);

    /**
     * plus_hash addr val: add to TH the hash of @p bits as if it were the
     * current value at @p addr.
     */
    void plusHash(Addr addr, std::uint64_t bits, unsigned width,
                  hashing::ValueClass cls);

    /** Architectural TH value (merges any cluster partial sums). */
    virtual hashing::ModHash th() const = 0;

    /** Stores observed while hashing was enabled. */
    std::uint64_t storesHashed() const { return nStores; }

    /** Bytes fed through the hash unit. */
    std::uint64_t bytesHashed() const { return nBytes; }

    /** Capture the module's complete value state (machine checkpoint). */
    MhmState saveState() const;

    /** Rewind the module to @p state (taken from a same-shaped module). */
    void restoreState(const MhmState &state);

  protected:
    /** Subclass half of saveState(): fill the accumulator fields. */
    virtual void savePartials(MhmState &out) const = 0;

    /** Subclass half of restoreState(): load the accumulator fields. */
    virtual void loadPartials(const MhmState &in) = 0;
    /** Accumulate one group element into the module's partial state. */
    virtual void accumulate(hashing::ModHash delta) = 0;

    /**
     * Accumulate one drained store: by default one fused delta
     * (StateHasher::storeDelta); a design that routes the two halves
     * separately overrides it.
     */
    virtual void accumulateStore(Addr vaddr, std::uint64_t old_bits,
                                 std::uint64_t new_bits, unsigned width,
                                 hashing::ValueClass cls);

    /** Clear the module's partial state to the identity. */
    virtual void clearState() = 0;

    /** Force the architectural TH to exactly @p value. */
    virtual void loadState(hashing::ModHash value) = 0;

    /** Hash of (addr, value) under the currently effective rounding. */
    hashing::ModHash hashValue(Addr addr, std::uint64_t bits,
                               unsigned width,
                               hashing::ValueClass cls) const;

  private:
    /** The pipeline for the current round-off state. */
    const hashing::StateHasher &
    pipeline() const
    {
        return fpRoundingOn ? roundedPipeline : rawPipeline;
    }

    /** Pre-built pipelines for both round-off states: pipeline() picks one
     *  instead of constructing a StateHasher per drained store. */
    hashing::StateHasher roundedPipeline;
    hashing::StateHasher rawPipeline;
    bool hashingOn = false;
    bool fpRoundingOn = true;
    std::uint64_t nStores = 0;
    std::uint64_t nBytes = 0;
};

/**
 * Fig 3a: area-optimized design — one hash unit, one modulo add/sub unit,
 * accumulating straight into the TH register.
 */
class BasicMhm : public Mhm
{
  public:
    using Mhm::Mhm;

    hashing::ModHash th() const override { return reg; }

  protected:
    void accumulate(hashing::ModHash delta) override { reg += delta; }
    void clearState() override { reg = hashing::ModHash{}; }
    void loadState(hashing::ModHash value) override { reg = value; }

    void
    savePartials(MhmState &out) const override
    {
        out.partials = {reg};
    }

    void
    loadPartials(const MhmState &in) override
    {
        ICHECK_ASSERT(in.partials.size() == 1,
                      "MhmState shape mismatch (basic)");
        reg = in.partials.front();
    }

  private:
    hashing::ModHash reg;
};

/**
 * Fig 3b: performance-optimized design — K clusters accumulate partial
 * sums in local registers, merged into TH only when it is read. Any
 * dispatch of operations to clusters yields the same TH.
 */
class ClusteredMhm : public Mhm
{
  public:
    ClusteredMhm(const hashing::LocationHasher &hasher,
                 hashing::FpRoundMode fp_mode, std::size_t clusters,
                 DispatchPolicy policy, std::uint64_t seed);

    hashing::ModHash th() const override;

    /** Operations routed to cluster @p i (load-balance visibility). */
    std::uint64_t clusterOps(std::size_t i) const { return opCounts[i]; }

    std::size_t clusterCount() const { return partials.size(); }

  protected:
    void accumulate(hashing::ModHash delta) override;

    /** The two halves go to clusters separately (their op counts are
     *  part of the model's observable load balance). */
    void accumulateStore(Addr vaddr, std::uint64_t old_bits,
                         std::uint64_t new_bits, unsigned width,
                         hashing::ValueClass cls) override;
    void clearState() override;
    void loadState(hashing::ModHash value) override;
    void savePartials(MhmState &out) const override;
    void loadPartials(const MhmState &in) override;

  private:
    std::vector<hashing::ModHash> partials;
    std::vector<std::uint64_t> opCounts;
    DispatchPolicy policy;
    std::size_t nextCluster = 0;
    mutable Xoshiro256 rng;
};

/** Build an MHM per @p config. */
std::unique_ptr<Mhm> makeMhm(const hashing::LocationHasher &hasher,
                             const MhmConfig &config);

} // namespace icheck::mhm

#endif // ICHECK_MHM_MHM_HPP
