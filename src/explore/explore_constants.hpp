#ifndef ICHECK_EXPLORE_EXPLORE_CONSTANTS_HPP
#define ICHECK_EXPLORE_EXPLORE_CONSTANTS_HPP

/**
 * @file
 * Shared sentinels of the exploration engine.
 */

#include <cstddef>

namespace icheck::explore
{

/**
 * "No decision index": the unset value of per-run decision markers
 * (pruneAt, sleep-set wake points) and the unbounded setting of
 * decision-count knobs (maxPreemptions). Larger than any reachable
 * decision index, so range comparisons need no special casing.
 */
inline constexpr std::size_t noDecision = ~std::size_t{0};

/**
 * Checkpoint placement without DPOR, where a run emits a sibling at every
 * decision past its prefix: every checkpointStride-th decision. Taking a
 * checkpoint costs about as much as restoring one, so stride 1 spends
 * more on snapshots than they save; a lease replays at most
 * checkpointStride - 1 decisions.
 */
inline constexpr std::size_t checkpointStride = 4;

} // namespace icheck::explore

#endif // ICHECK_EXPLORE_EXPLORE_CONSTANTS_HPP
