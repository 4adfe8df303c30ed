#ifndef ICHECK_RUNTIME_PARALLEL_EXPLORE_HPP
#define ICHECK_RUNTIME_PARALLEL_EXPLORE_HPP

/**
 * @file
 * The runtime's entry to the systematic-testing explorer: resolves a
 * `--jobs` value the way campaigns do and runs explore::explore(), whose
 * header states the determinism contract across job counts.
 */

#include "explore/explorer.hpp"

namespace icheck::runtime
{

/**
 * explore::explore() over @p jobs workers (0 = hardware concurrency).
 */
explore::ExploreResult
exploreParallel(const check::ProgramFactory &factory,
                const sim::MachineConfig &machine_template,
                const explore::ExploreConfig &config, int jobs = 0);

} // namespace icheck::runtime

#endif // ICHECK_RUNTIME_PARALLEL_EXPLORE_HPP
