/**
 * @file
 * The DPOR branch ledger against a set model: random claim scripts, the
 * per-run suffix walk the explorer uses against claiming every decision
 * of every run, and concurrent claims of one script from several
 * threads, each (prefix, choice) won exactly once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "explore/dpor.hpp"
#include "support/rng.hpp"

namespace icheck::explore
{
namespace
{

using Path = std::vector<std::uint32_t>;
using Model = std::set<std::pair<Path, std::uint32_t>>;

Path
randomPath(Xoshiro256 &rng, std::size_t max_len, std::uint32_t alphabet)
{
    Path path(rng.below(max_len + 1));
    for (std::uint32_t &c : path)
        c = static_cast<std::uint32_t>(rng.below(alphabet));
    return path;
}

bool
modelClaim(Model &model, const Path &path, std::size_t len,
           std::uint32_t choice)
{
    return model.insert({Path(path.begin(), path.begin() + len), choice})
        .second;
}

TEST(BranchLedger, MatchesASetModelOnRandomScripts)
{
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Xoshiro256 rng(seed);
        BranchLedger ledger;
        Model model;
        for (int step = 0; step < 300; ++step) {
            const Path path = randomPath(rng, 6, 3);
            if (rng.below(2) == 0) {
                const std::size_t len = rng.below(path.size() + 1);
                const auto choice = static_cast<std::uint32_t>(rng.below(3));
                ASSERT_EQ(ledger.claim(path.data(), len, choice),
                          modelClaim(model, path, len, choice))
                    << "seed " << seed << ", step " << step;
                continue;
            }
            // A run's walk claims its suffix; proposals then claim
            // children of any node along it.
            const std::size_t from = rng.below(path.size() + 1);
            std::vector<BranchLedger::NodeId> trail;
            ledger.walk(path.data(), path.size(), from, trail);
            ASSERT_EQ(trail.size(), path.size() + 1);
            for (std::size_t d = from; d < path.size(); ++d)
                modelClaim(model, path, d, path[d]);
            for (std::uint64_t k = rng.below(4); k > 0; --k) {
                const std::size_t e = rng.below(path.size() + 1);
                const auto choice = static_cast<std::uint32_t>(rng.below(3));
                ASSERT_EQ(ledger.claimChild(trail[e], choice),
                          modelClaim(model, path, e, choice))
                    << "seed " << seed << ", step " << step;
            }
        }
    }
}

/**
 * A synthetic schedule tree and search: fanout and the continuation are
 * functions of the prefix (as replay guarantees), each run is cut at a
 * limit no shorter than its prefix (as pruning is), and race proposals
 * are a function of the run's path.
 */
struct SyntheticRun
{
    Path path;
    std::vector<std::uint32_t> fanout;
    std::size_t limit = 0;
    std::vector<std::pair<std::size_t, std::uint32_t>> proposals;
};

std::uint64_t
pathKey(const Path &path, std::size_t len, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i)
        h = (h ^ (path[i] + 1)) * 0x100000001b3ULL;
    return h;
}

SyntheticRun
runFrom(const Path &prefix, std::uint64_t seed)
{
    SyntheticRun run;
    run.path = prefix;
    const auto fanout_at = [&](std::size_t d) {
        return static_cast<std::uint32_t>(
            1 + (pathKey(run.path, d, seed) >> 17) % 4);
    };
    const std::size_t depth = 8 + seed % 4;
    for (std::size_t d = 0; d < depth; ++d) {
        run.fanout.push_back(fanout_at(d));
        if (d >= run.path.size())
            run.path.push_back(0); // the default continuation
    }
    Xoshiro256 rng(pathKey(run.path, run.path.size(), seed));
    run.limit = prefix.size() + rng.below(depth - prefix.size() + 1);
    for (std::uint64_t k = 2 + rng.below(8); k > 0 && run.limit > 0; --k) {
        const std::size_t e = rng.below(run.limit);
        if (run.fanout[e] > 1)
            run.proposals.push_back(
                {e, static_cast<std::uint32_t>(rng.below(run.fanout[e]))});
    }
    return run;
}

TEST(BranchLedger, SuffixClaimsEmitLikeClaimingEveryDecision)
{
    std::size_t emitted = 0, refused = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
        BranchLedger every;  // claims every branchy decision of each run
        BranchLedger suffix; // walks once, claiming past the prefix
        std::vector<Path> frontier{Path{}};
        std::vector<Path> emitted_every, emitted_suffix;
        while (!frontier.empty()) {
            const Path prefix = frontier.back();
            frontier.pop_back();
            const SyntheticRun run = runFrom(prefix, seed);

            for (std::size_t d = 0; d < run.limit; ++d) {
                if (run.fanout[d] > 1)
                    every.claim(run.path.data(), d, run.path[d]);
            }
            std::vector<BranchLedger::NodeId> trail;
            suffix.walk(run.path.data(), run.limit, prefix.size(), trail);

            for (const auto &[e, c] : run.proposals) {
                if (c == run.path[e])
                    continue;
                Path child(run.path.begin(), run.path.begin() + e);
                child.push_back(c);
                if (every.claim(run.path.data(), e, c))
                    emitted_every.push_back(child);
                if (suffix.claimChild(trail[e], c)) {
                    emitted_suffix.push_back(child);
                    frontier.push_back(child);
                } else {
                    ++refused;
                }
                ASSERT_EQ(emitted_every, emitted_suffix) << "seed " << seed;
            }
        }
        emitted += emitted_suffix.size();
    }
    // Both outcomes must be common for the comparison to mean anything.
    EXPECT_GT(emitted, 500u) << refused << " refused";
    EXPECT_GT(refused, 500u) << emitted << " emitted";
}

TEST(BranchLedger, ConcurrentClaimsWinExactlyOnce)
{
    // One script of (prefix, choice) claims with repeats; every thread
    // claims all of it in its own order, half through claim() and half
    // through a walk plus claimChild().
    Xoshiro256 rng(42);
    std::vector<std::pair<Path, std::uint32_t>> script;
    std::map<std::pair<Path, std::uint32_t>, std::size_t> keyOf;
    for (int i = 0; i < 400; ++i) {
        std::pair<Path, std::uint32_t> item{
            randomPath(rng, 7, 3), static_cast<std::uint32_t>(rng.below(3))};
        keyOf.emplace(item, keyOf.size());
        script.push_back(item);
        if (rng.below(4) == 0)
            script.push_back(item);
    }

    for (const unsigned threads : {4u, 8u}) {
        BranchLedger ledger;
        std::vector<std::atomic<int>> wins(keyOf.size());
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] {
                std::vector<std::size_t> order(script.size());
                for (std::size_t i = 0; i < order.size(); ++i)
                    order[i] = i;
                Xoshiro256 mine(1000 + t);
                for (std::size_t i = order.size(); i > 1; --i)
                    std::swap(order[i - 1], order[mine.below(i)]);
                std::vector<BranchLedger::NodeId> trail;
                for (const std::size_t i : order) {
                    const auto &[path, choice] = script[i];
                    bool won = false;
                    if ((i + t) % 2 == 0) {
                        won = ledger.claim(path.data(), path.size(), choice);
                    } else {
                        ledger.walk(path.data(), path.size(), path.size(),
                                    trail);
                        won = ledger.claimChild(trail.back(), choice);
                    }
                    if (won)
                        wins[keyOf.at(script[i])].fetch_add(1);
                }
            });
        }
        for (std::thread &thread : pool)
            thread.join();
        for (std::size_t k = 0; k < wins.size(); ++k)
            EXPECT_EQ(wins[k].load(), 1) << "key " << k << ", " << threads
                                         << " threads";
    }
}

} // namespace
} // namespace icheck::explore
