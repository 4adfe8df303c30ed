/**
 * @file
 * CheckpointTree eviction against a brute-force LRU model: on a scripted
 * stream of inserts, refreshes and ancestor lookups that runs far over
 * budget, the tree must evict exactly the entries a linear scan for the
 * smallest use stamp in each shard would, and hand out the same
 * ancestors.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "explore/snapshot_tree.hpp"
#include "support/rng.hpp"

namespace icheck::explore
{
namespace
{

using Prefix = std::vector<std::uint32_t>;

/** Per-shard LRU by exhaustive scan, the eviction rule the tree's
 *  index must reproduce. */
class BruteForceLru
{
  public:
    explicit BruteForceLru(std::size_t budget)
        : shardBudget(budget / CheckpointTree::numShards)
    {}

    void
    insert(const Prefix &prefix, std::size_t bytes)
    {
        const std::uint64_t stamp = ++clock;
        auto it = resident.find(prefix);
        if (it != resident.end()) {
            it->second.lastUse = stamp;
            return;
        }
        const std::size_t shard = shardOf(prefix);
        for (;;) {
            std::size_t used = 0;
            const Prefix *victim = nullptr;
            std::uint64_t oldest = UINT64_MAX;
            for (const auto &[key, slot] : resident) {
                if (slot.shard != shard)
                    continue;
                used += slot.bytes;
                if (slot.lastUse < oldest) {
                    oldest = slot.lastUse;
                    victim = &key;
                }
            }
            if (victim == nullptr || used + bytes <= shardBudget)
                break;
            victims.push_back(*victim);
            resident.erase(*victim);
        }
        resident[prefix] = Slot{shard, bytes, stamp};
        ++created;
    }

    /** Deepest resident prefix of @p path (length >= 1), refreshed. */
    const Prefix *
    deepestAncestor(const Prefix &path)
    {
        for (std::size_t len = path.size(); len >= 1; --len) {
            auto it = resident.find(Prefix(path.begin(), path.begin() + len));
            if (it != resident.end()) {
                it->second.lastUse = ++clock;
                return &it->first;
            }
        }
        return nullptr;
    }

    bool contains(const Prefix &prefix) const
    {
        return resident.count(prefix) != 0;
    }

    std::uint64_t
    residentBytes() const
    {
        std::uint64_t total = 0;
        for (const auto &entry : resident)
            total += entry.second.bytes;
        return total;
    }

    std::vector<Prefix> victims;
    std::uint64_t created = 0;

  private:
    struct Slot
    {
        std::size_t shard = 0;
        std::size_t bytes = 0;
        std::uint64_t lastUse = 0;
    };

    static std::size_t
    shardOf(const Prefix &prefix)
    {
        return CheckpointTree::hashPrefix(0, prefix.data(), prefix.size()) %
               CheckpointTree::numShards;
    }

    std::size_t shardBudget;
    std::uint64_t clock = 0;
    std::map<Prefix, Slot> resident;
};

TEST(CheckpointTree, EvictsTheSameVictimsAsBruteForceLru)
{
    constexpr std::size_t budget = CheckpointTree::numShards * 2000;
    CheckpointTree tree(budget);
    BruteForceLru model(budget);

    // A pool of distinct prefixes, several per shard.
    Xoshiro256 rng(2024);
    std::set<Prefix> distinct;
    while (distinct.size() < 150) {
        Prefix prefix(1 + rng.below(6));
        for (std::uint32_t &choice : prefix)
            choice = static_cast<std::uint32_t>(rng.below(3));
        distinct.insert(prefix);
    }
    const std::vector<Prefix> pool(distinct.begin(), distinct.end());

    std::size_t evictions = 0;
    for (int op = 0; op < 3000; ++op) {
        std::vector<bool> before(pool.size());
        for (std::size_t i = 0; i < pool.size(); ++i)
            before[i] = tree.contains(0, pool[i]);
        const std::size_t model_evicted = model.victims.size();

        const Prefix &target = pool[rng.below(pool.size())];
        if (rng.below(5) < 3) {
            CheckpointEntry entry;
            entry.owner = 0;
            entry.chosen = target;
            entry.bytes = 100 + rng.below(800);
            model.insert(target, entry.bytes);
            tree.insert(std::move(entry));
        } else {
            // Look up a path one choice past the target, so the deepest
            // ancestor may be the target itself or any shorter prefix.
            Prefix path = target;
            path.push_back(static_cast<std::uint32_t>(rng.below(3)));
            const Prefix *want = model.deepestAncestor(path);
            const auto got = tree.deepestAncestor(0, path);
            ASSERT_EQ(got != nullptr, want != nullptr) << "op " << op;
            if (got != nullptr) {
                ASSERT_EQ(got->chosen, *want) << "op " << op;
            }
        }

        // This operation's victims, on both sides.
        std::set<Prefix> tree_victims;
        for (std::size_t i = 0; i < pool.size(); ++i) {
            if (before[i] && !tree.contains(0, pool[i]))
                tree_victims.insert(pool[i]);
        }
        const std::set<Prefix> model_victims(
            model.victims.begin() +
                static_cast<std::ptrdiff_t>(model_evicted),
            model.victims.end());
        ASSERT_EQ(tree_victims, model_victims) << "op " << op;
        evictions += tree_victims.size();
        ASSERT_EQ(tree.evictedCount(), evictions) << "op " << op;
        ASSERT_EQ(tree.residentBytes(), model.residentBytes()) << "op " << op;
    }
    EXPECT_EQ(tree.createdCount(), model.created);
    EXPECT_GT(evictions, 500u)
        << "the stream must run well over budget to test eviction";
}

} // namespace
} // namespace icheck::explore
