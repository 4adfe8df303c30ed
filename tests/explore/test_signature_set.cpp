/**
 * @file
 * The explorer's seen-signature set against a std::unordered_set model:
 * signature 0 (the empty-slot marker, kept as a flag), signatures that
 * share a shard and a probe start (one linear-probing cluster), growth
 * past 3/4 load, and 4 threads racing through one script, where every
 * signature must come back new exactly once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <thread>
#include <unordered_set>
#include <vector>

#include "explore/explorer.hpp"
#include "support/rng.hpp"

namespace icheck::explore
{
namespace
{

/**
 * Distinct signatures: 0, a cluster of @p cluster signatures equal in
 * their low 40 bits (so one shard and one probe start in any table under
 * 2^34 slots), and @p random random ones.
 */
std::vector<std::uint64_t>
distinctSignatures(std::size_t cluster, std::size_t random)
{
    std::unordered_set<std::uint64_t> seen;
    std::vector<std::uint64_t> sigs;
    const auto add = [&](std::uint64_t sig) {
        if (seen.insert(sig).second)
            sigs.push_back(sig);
    };
    add(0);
    for (std::uint64_t k = 1; k <= cluster; ++k)
        add(0x5a3c9e1f27ULL | (k << 40));
    Xoshiro256 rng(25);
    while (sigs.size() < 1 + cluster + random)
        add(rng.next());
    return sigs;
}

/** @p sigs, each @p copies times, shuffled. */
std::vector<std::uint64_t>
shuffledScript(const std::vector<std::uint64_t> &sigs, int copies,
               std::uint64_t seed)
{
    std::vector<std::uint64_t> script;
    for (int c = 0; c < copies; ++c)
        script.insert(script.end(), sigs.begin(), sigs.end());
    Xoshiro256 rng(seed);
    for (std::size_t i = script.size(); i > 1; --i)
        std::swap(script[i - 1], script[rng.below(i)]);
    return script;
}

TEST(SignatureSet, MatchesUnorderedSetModel)
{
    const std::vector<std::uint64_t> script =
        shuffledScript(distinctSignatures(300, 20000), 3, 1);
    detail::SignatureSet set;
    std::unordered_set<std::uint64_t> model;
    std::size_t fresh = 0;
    for (const std::uint64_t sig : script) {
        const bool expected = model.insert(sig).second;
        ASSERT_EQ(set.insert(sig), expected) << std::hex << sig;
        fresh += expected ? 1 : 0;
    }
    EXPECT_EQ(fresh, model.size());
    // Every signature is now a repeat, the cluster and 0 included.
    for (const std::uint64_t sig : script)
        EXPECT_FALSE(set.insert(sig)) << std::hex << sig;
}

TEST(SignatureSet, ConcurrentInsertsClaimEachSignatureOnce)
{
    const std::vector<std::uint64_t> sigs = distinctSignatures(300, 20000);
    const std::vector<std::uint64_t> script = shuffledScript(sigs, 2, 2);
    detail::SignatureSet set;
    constexpr int kThreads = 4;
    std::vector<std::vector<std::uint64_t>> claimed(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Each thread walks the whole script from its own offset.
            const std::size_t n = script.size();
            for (std::size_t i = 0; i < n; ++i) {
                const std::uint64_t sig = script[(i + t * n / kThreads) % n];
                if (set.insert(sig))
                    claimed[t].push_back(sig);
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    std::vector<std::uint64_t> all;
    for (const std::vector<std::uint64_t> &mine : claimed)
        all.insert(all.end(), mine.begin(), mine.end());
    std::sort(all.begin(), all.end());
    std::vector<std::uint64_t> expected = sigs;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(all, expected);
}

} // namespace
} // namespace icheck::explore
