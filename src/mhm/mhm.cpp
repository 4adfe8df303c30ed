#include "mhm/mhm.hpp"

#include "support/logging.hpp"

namespace icheck::mhm
{

Mhm::Mhm(const hashing::LocationHasher &hasher,
         hashing::FpRoundMode fp_mode)
    : roundedPipeline(hasher, fp_mode),
      rawPipeline(hasher, hashing::FpRoundMode::none())
{}

void
Mhm::restoreHash(HashWord word)
{
    loadState(hashing::ModHash(word));
}

void
Mhm::reset()
{
    clearState();
    hashingOn = false;
    fpRoundingOn = true;
    nStores = 0;
    nBytes = 0;
}

MhmState
Mhm::saveState() const
{
    MhmState state;
    state.hashingOn = hashingOn;
    state.fpRoundingOn = fpRoundingOn;
    state.nStores = nStores;
    state.nBytes = nBytes;
    savePartials(state);
    return state;
}

void
Mhm::restoreState(const MhmState &state)
{
    hashingOn = state.hashingOn;
    fpRoundingOn = state.fpRoundingOn;
    nStores = state.nStores;
    nBytes = state.nBytes;
    loadPartials(state);
}

hashing::ModHash
Mhm::hashValue(Addr addr, std::uint64_t bits, unsigned width,
               hashing::ValueClass cls) const
{
    return pipeline().valueHash(addr, bits, width, cls);
}

void
Mhm::accumulateStore(Addr vaddr, std::uint64_t old_bits,
                     std::uint64_t new_bits, unsigned width,
                     hashing::ValueClass cls)
{
    accumulate(pipeline().storeDelta(vaddr, old_bits, new_bits, width, cls));
}

void
Mhm::observeStore(Addr vaddr, std::uint64_t old_bits,
                  std::uint64_t new_bits, unsigned width,
                  hashing::ValueClass cls)
{
    if (!hashingOn)
        return;
    accumulateStore(vaddr, old_bits, new_bits, width, cls);
    ++nStores;
    nBytes += 2ULL * width;
}

void
Mhm::minusHash(Addr addr, std::uint64_t current_bits, unsigned width,
               hashing::ValueClass cls)
{
    accumulate(-hashValue(addr, current_bits, width, cls));
    nBytes += width;
}

void
Mhm::plusHash(Addr addr, std::uint64_t bits, unsigned width,
              hashing::ValueClass cls)
{
    accumulate(hashValue(addr, bits, width, cls));
    nBytes += width;
}

ClusteredMhm::ClusteredMhm(const hashing::LocationHasher &hasher,
                           hashing::FpRoundMode fp_mode,
                           std::size_t clusters,
                           DispatchPolicy dispatch_policy,
                           std::uint64_t seed)
    : Mhm(hasher, fp_mode), partials(clusters), opCounts(clusters, 0),
      policy(dispatch_policy), rng(seed)
{
    ICHECK_ASSERT(clusters > 0, "clustered MHM needs at least one cluster");
}

hashing::ModHash
ClusteredMhm::th() const
{
    hashing::ModHash sum;
    for (const auto &partial : partials)
        sum += partial;
    return sum;
}

void
ClusteredMhm::accumulate(hashing::ModHash delta)
{
    std::size_t idx;
    switch (policy) {
      case DispatchPolicy::RoundRobin:
        idx = nextCluster;
        // Compare-based wrap: the integer divide in `% clusters` is the
        // single most expensive instruction on this path.
        nextCluster = idx + 1 == partials.size() ? 0 : idx + 1;
        break;
      case DispatchPolicy::Random:
        idx = static_cast<std::size_t>(rng.below(partials.size()));
        break;
      default:
        ICHECK_PANIC("unknown DispatchPolicy");
    }
    partials[idx] += delta;
    ++opCounts[idx];
}

void
ClusteredMhm::accumulateStore(Addr vaddr, std::uint64_t old_bits,
                              std::uint64_t new_bits, unsigned width,
                              hashing::ValueClass cls)
{
    // The two halves are independent group elements; feed them separately
    // so they can land in different clusters (Fig 3b).
    accumulate(-hashValue(vaddr, old_bits, width, cls));
    accumulate(hashValue(vaddr, new_bits, width, cls));
}

void
ClusteredMhm::clearState()
{
    for (auto &partial : partials)
        partial = hashing::ModHash{};
    nextCluster = 0;
}

void
ClusteredMhm::loadState(hashing::ModHash value)
{
    clearState();
    partials[0] = value;
}

void
ClusteredMhm::savePartials(MhmState &out) const
{
    out.partials = partials;
    out.opCounts = opCounts;
    out.nextCluster = nextCluster;
    out.dispatchRng = rng;
}

void
ClusteredMhm::loadPartials(const MhmState &in)
{
    ICHECK_ASSERT(in.partials.size() == partials.size() &&
                      in.opCounts.size() == opCounts.size(),
                  "MhmState shape mismatch (clustered)");
    partials = in.partials;
    opCounts = in.opCounts;
    nextCluster = in.nextCluster;
    rng = in.dispatchRng;
}

std::unique_ptr<Mhm>
makeMhm(const hashing::LocationHasher &hasher, const MhmConfig &config)
{
    if (config.clustered) {
        return std::make_unique<ClusteredMhm>(hasher, config.fpMode,
                                              config.clusters,
                                              config.dispatch,
                                              config.dispatchSeed);
    }
    return std::make_unique<BasicMhm>(hasher, config.fpMode);
}

} // namespace icheck::mhm
