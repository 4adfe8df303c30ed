#include "explore/explorer.hpp"

#include <cinttypes>
#include <cstdio>

namespace icheck::explore
{

std::string
renderStatsJson(const ExploreStats &s)
{
    const double dedup =
        s.sigInserts == 0 ? 0.0
                          : 1.0 - static_cast<double>(s.sigUnique) /
                                      static_cast<double>(s.sigInserts);
    char line[768];
    std::snprintf(
        line, sizeof line,
        "{\"checkpointing\": %s, \"nodes_expanded\": %" PRIu64 ", "
        "\"checkpoint_hits\": %" PRIu64 ", \"checkpoint_misses\": %" PRIu64
        ", \"checkpoints_created\": %" PRIu64 ", "
        "\"checkpoints_evicted\": %" PRIu64 ", "
        "\"checkpoint_bytes\": %" PRIu64 ", \"pages_cow_cloned\": %" PRIu64
        ", \"decisions_restored\": %" PRIu64 ", "
        "\"decisions_executed\": %" PRIu64 ", \"sig_inserts\": %" PRIu64
        ", \"sig_unique\": %" PRIu64 ", \"dedup_rate\": %.4f, "
        "\"dpor\": %s, \"traces_explored\": %" PRIu64
        ", \"dpor_races\": %" PRIu64 ", \"backtracks_inserted\": %" PRIu64
        ", \"sleep_set_hits\": %" PRIu64 ", \"dpor_pruned\": %" PRIu64 "}",
        s.checkpointing ? "true" : "false", s.nodesExpanded,
        s.checkpointHits, s.checkpointMisses, s.checkpointsCreated,
        s.checkpointsEvicted, s.checkpointBytes, s.pagesCowCloned,
        s.decisionsRestored, s.decisionsExecuted, s.sigInserts,
        s.sigUnique, dedup, s.dporActive ? "true" : "false",
        s.tracesExplored, s.dporRaces, s.backtracksInserted,
        s.sleepSetHits, s.dporPruned);
    return line;
}

void
ExploreStats::merge(const ExploreStats &other)
{
    checkpointing = checkpointing || other.checkpointing;
    nodesExpanded += other.nodesExpanded;
    checkpointHits += other.checkpointHits;
    checkpointMisses += other.checkpointMisses;
    checkpointsCreated += other.checkpointsCreated;
    checkpointsEvicted += other.checkpointsEvicted;
    checkpointBytes += other.checkpointBytes;
    pagesCowCloned += other.pagesCowCloned;
    decisionsRestored += other.decisionsRestored;
    decisionsExecuted += other.decisionsExecuted;
    sigInserts += other.sigInserts;
    sigUnique += other.sigUnique;
    dporActive = dporActive || other.dporActive;
    tracesExplored += other.tracesExplored;
    dporRaces += other.dporRaces;
    backtracksInserted += other.backtracksInserted;
    sleepSetHits += other.sleepSetHits;
    dporPruned += other.dporPruned;
}

} // namespace icheck::explore
