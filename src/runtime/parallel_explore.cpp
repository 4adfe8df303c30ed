#include "runtime/parallel_explore.hpp"

#include "runtime/parallel_driver.hpp"

namespace icheck::runtime
{

explore::ExploreResult
exploreParallel(const check::ProgramFactory &factory,
                const sim::MachineConfig &machine_template,
                const explore::ExploreConfig &config, int jobs)
{
    return explore::explore(factory, machine_template, config,
                            resolveJobs(jobs));
}

} // namespace icheck::runtime
