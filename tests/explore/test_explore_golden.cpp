/**
 * @file
 * Absolute pins on jobs-1 exploration.
 *
 * The other explore tests compare two modes of one build (warm vs cold,
 * jobs 1 vs jobs N, DPOR vs unreduced). These pin what a one-worker
 * search of three registry workloads reports: the run count, exhaustion,
 * the prune and bound counts, the final-state set, and the `--stats`
 * JSON (what `icheck explore <app> --prune state[,dpor] --stats` prints,
 * CLI defaults: 2 cores, quantum 16, depth 24, 200 runs). A change to
 * the search order, the pruning signature, the checkpoint policy or a
 * counter fails here even if it moves every mode alike.
 *
 * `checkpoint_bytes` is zeroed before the compare: it is the peak of
 * live snapshot footprints, which include fiber-stack images whose size
 * depends on the compiler and its frame layout.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>

#include "apps/app_registry.hpp"
#include "explore/explorer.hpp"

namespace icheck::explore
{
namespace
{

struct Pinned
{
    int runs;
    bool exhausted;
    std::uint64_t pruned;
    std::uint64_t boundedOut;
    std::set<HashWord> finalStates;
    const char *stats; ///< renderStatsJson, checkpoint_bytes zeroed.
};

struct GoldenSearch
{
    const char *app;
    bool dpor; ///< `--prune state,dpor` rather than `--prune state`.
    Pinned warm;
    Pinned cold;
};

const GoldenSearch kGolden[] = {
    {"radix", false,
     {200, false, 90, 0, {0xf87b9f5c68fd4b44ULL},
      R"({"checkpointing": true, "nodes_expanded": 200, )"
      R"("checkpoint_hits": 199, "checkpoint_misses": 1, )"
      R"("checkpoints_created": 5, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 404, )"
      R"("decisions_restored": 3980, "decisions_executed": 234420, )"
      R"("sig_inserts": 3918, "sig_unique": 3719, "dedup_rate": 0.0508, )"
      R"("dpor": false, "traces_explored": 0, "dpor_races": 0, )"
      R"("backtracks_inserted": 0, "sleep_set_hits": 0, "dpor_pruned": 0})"},
     {200, false, 90, 0, {0xf87b9f5c68fd4b44ULL},
      R"({"checkpointing": false, "nodes_expanded": 200, )"
      R"("checkpoint_hits": 0, "checkpoint_misses": 0, )"
      R"("checkpoints_created": 0, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 0, )"
      R"("decisions_restored": 0, "decisions_executed": 238400, )"
      R"("sig_inserts": 3918, "sig_unique": 3719, "dedup_rate": 0.0508, )"
      R"("dpor": false, "traces_explored": 0, "dpor_races": 0, )"
      R"("backtracks_inserted": 0, "sleep_set_hits": 0, "dpor_pruned": 0})"}},
    {"radix", true,
     {1, true, 0, 0, {0xf87b9f5c68fd4b44ULL},
      R"({"checkpointing": true, "nodes_expanded": 1, "checkpoint_hits": 0, )"
      R"("checkpoint_misses": 1, "checkpoints_created": 0, )"
      R"("checkpoints_evicted": 0, "checkpoint_bytes": 0, )"
      R"("pages_cow_cloned": 1, "decisions_restored": 0, )"
      R"("decisions_executed": 1192, "sig_inserts": 1192, )"
      R"("sig_unique": 1192, "dedup_rate": 0.0000, "dpor": true, )"
      R"("traces_explored": 1, "dpor_races": 67, "backtracks_inserted": 0, )"
      R"("sleep_set_hits": 0, "dpor_pruned": 159})"},
     {1, true, 0, 0, {0xf87b9f5c68fd4b44ULL},
      R"({"checkpointing": false, "nodes_expanded": 1, )"
      R"("checkpoint_hits": 0, "checkpoint_misses": 0, )"
      R"("checkpoints_created": 0, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 0, )"
      R"("decisions_restored": 0, "decisions_executed": 1192, )"
      R"("sig_inserts": 1192, "sig_unique": 1192, "dedup_rate": 0.0000, )"
      R"("dpor": true, "traces_explored": 1, "dpor_races": 67, )"
      R"("backtracks_inserted": 0, "sleep_set_hits": 0, "dpor_pruned": 159})"}},
    {"waterNS", false,
     {200, false, 90, 0, {0xb46cd5604fbafa70ULL},
      R"({"checkpointing": true, "nodes_expanded": 200, )"
      R"("checkpoint_hits": 199, "checkpoint_misses": 1, )"
      R"("checkpoints_created": 5, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 202, )"
      R"("decisions_restored": 3980, "decisions_executed": 69620, )"
      R"("sig_inserts": 2928, "sig_unique": 2734, "dedup_rate": 0.0663, )"
      R"("dpor": false, "traces_explored": 0, "dpor_races": 0, )"
      R"("backtracks_inserted": 0, "sleep_set_hits": 0, "dpor_pruned": 0})"},
     {200, false, 90, 0, {0xb46cd5604fbafa70ULL},
      R"({"checkpointing": false, "nodes_expanded": 200, )"
      R"("checkpoint_hits": 0, "checkpoint_misses": 0, )"
      R"("checkpoints_created": 0, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 0, )"
      R"("decisions_restored": 0, "decisions_executed": 73600, )"
      R"("sig_inserts": 2928, "sig_unique": 2734, "dedup_rate": 0.0663, )"
      R"("dpor": false, "traces_explored": 0, "dpor_races": 0, )"
      R"("backtracks_inserted": 0, "sleep_set_hits": 0, "dpor_pruned": 0})"}},
    {"waterNS", true,
     {11, true, 30, 0, {0xb46cd5604fbafa70ULL},
      R"({"checkpointing": true, "nodes_expanded": 11, )"
      R"("checkpoint_hits": 8, "checkpoint_misses": 3, )"
      R"("checkpoints_created": 9, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 20, )"
      R"("decisions_restored": 162, "decisions_executed": 3886, )"
      R"("sig_inserts": 1084, "sig_unique": 1076, "dedup_rate": 0.0074, )"
      R"("dpor": true, "traces_explored": 11, "dpor_races": 385, )"
      R"("backtracks_inserted": 10, "sleep_set_hits": 8, "dpor_pruned": 194})"},
     {11, true, 30, 0, {0xb46cd5604fbafa70ULL},
      R"({"checkpointing": false, "nodes_expanded": 11, )"
      R"("checkpoint_hits": 0, "checkpoint_misses": 0, )"
      R"("checkpoints_created": 0, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 0, )"
      R"("decisions_restored": 0, "decisions_executed": 4048, )"
      R"("sig_inserts": 1084, "sig_unique": 1076, "dedup_rate": 0.0074, )"
      R"("dpor": true, "traces_explored": 11, "dpor_races": 385, )"
      R"("backtracks_inserted": 10, "sleep_set_hits": 8, )"
      R"("dpor_pruned": 194})"}},
    {"waterSP", false,
     {200, false, 120, 0, {0xd84c476aaec52e8aULL},
      R"({"checkpointing": true, "nodes_expanded": 200, )"
      R"("checkpoint_hits": 199, "checkpoint_misses": 1, )"
      R"("checkpoints_created": 5, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 202, )"
      R"("decisions_restored": 3980, "decisions_executed": 29620, )"
      R"("sig_inserts": 1549, "sig_unique": 1355, "dedup_rate": 0.1252, )"
      R"("dpor": false, "traces_explored": 0, "dpor_races": 0, )"
      R"("backtracks_inserted": 0, "sleep_set_hits": 0, "dpor_pruned": 0})"},
     {200, false, 120, 0, {0xd84c476aaec52e8aULL},
      R"({"checkpointing": false, "nodes_expanded": 200, )"
      R"("checkpoint_hits": 0, "checkpoint_misses": 0, )"
      R"("checkpoints_created": 0, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 0, )"
      R"("decisions_restored": 0, "decisions_executed": 33600, )"
      R"("sig_inserts": 1549, "sig_unique": 1355, "dedup_rate": 0.1252, )"
      R"("dpor": false, "traces_explored": 0, "dpor_races": 0, )"
      R"("backtracks_inserted": 0, "sleep_set_hits": 0, "dpor_pruned": 0})"}},
    {"waterSP", true,
     {75, true, 397, 0, {0xd84c476aaec52e8aULL},
      R"({"checkpointing": true, "nodes_expanded": 75, )"
      R"("checkpoint_hits": 70, "checkpoint_misses": 5, )"
      R"("checkpoints_created": 59, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 134, )"
      R"("decisions_restored": 1392, "decisions_executed": 11208, )"
      R"("sig_inserts": 3386, "sig_unique": 3333, "dedup_rate": 0.0157, )"
      R"("dpor": true, "traces_explored": 75, "dpor_races": 2100, )"
      R"("backtracks_inserted": 74, "sleep_set_hits": 75, )"
      R"("dpor_pruned": 700})"},
     {75, true, 397, 0, {0xd84c476aaec52e8aULL},
      R"({"checkpointing": false, "nodes_expanded": 75, )"
      R"("checkpoint_hits": 0, "checkpoint_misses": 0, )"
      R"("checkpoints_created": 0, "checkpoints_evicted": 0, )"
      R"("checkpoint_bytes": 0, "pages_cow_cloned": 0, )"
      R"("decisions_restored": 0, "decisions_executed": 12600, )"
      R"("sig_inserts": 3386, "sig_unique": 3333, "dedup_rate": 0.0157, )"
      R"("dpor": true, "traces_explored": 75, "dpor_races": 2100, )"
      R"("backtracks_inserted": 74, "sleep_set_hits": 75, )"
      R"("dpor_pruned": 700})"}},
};

TEST(ExploreGolden, JobsOneSearchesMatchPins)
{
    for (const GoldenSearch &golden : kGolden) {
        for (const bool checkpoints : {true, false}) {
            // Builds without fiber snapshots (TSan) would run the warm
            // search cold, which the cold pins already cover.
            if (checkpoints && !sim::Machine::snapshotSupported())
                continue;
            sim::MachineConfig mc;
            mc.numCores = 2;
            ExploreConfig cfg;
            cfg.prune = PruneMode::StateHash;
            cfg.dpor = golden.dpor;
            cfg.quantum = 16;
            cfg.maxDepth = 24;
            cfg.maxRuns = 200;
            cfg.checkpoints = checkpoints;
            ExploreResult result =
                explore(apps::findApp(golden.app).factory, mc, cfg);

            const Pinned &pin = checkpoints ? golden.warm : golden.cold;
            const std::string label =
                std::string(golden.app) +
                (golden.dpor ? " state,dpor" : " state") +
                (checkpoints ? " warm" : " cold");
            EXPECT_EQ(result.runsExecuted, pin.runs) << label;
            EXPECT_EQ(result.exhausted, pin.exhausted) << label;
            EXPECT_EQ(result.branchesPruned, pin.pruned) << label;
            EXPECT_EQ(result.branchesBoundedOut, pin.boundedOut) << label;
            EXPECT_EQ(result.finalStates, pin.finalStates) << label;
            result.stats.checkpointBytes = 0;
            EXPECT_EQ(renderStatsJson(result.stats), pin.stats) << label;
        }
    }
}

} // namespace
} // namespace icheck::explore
