/**
 * @file
 * The consistent-hash ring: ownership must be a pure function of the
 * membership set (any two routers with the same members agree), spread
 * keys roughly evenly, and remap only the dead member's share when the
 * membership changes — the property that keeps failover from
 * reshuffling work the survivors already own.
 */

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fleet/hash_ring.hpp"

namespace fleet = icheck::fleet;

namespace
{

std::vector<std::string>
sampleKeys(int count)
{
    std::vector<std::string> keys;
    keys.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        keys.push_back("check|radix|dev|hw|s" + std::to_string(1000 + i) +
                       "|r1|i1|c8");
    return keys;
}

} // namespace

TEST(HashRing, EmptyRingOwnsNothing)
{
    fleet::HashRing ring;
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.ownerOf("anything"), nullptr);
}

TEST(HashRing, SingleMemberOwnsEverything)
{
    fleet::HashRing ring;
    ring.add("b0");
    for (const std::string &key : sampleKeys(64)) {
        const std::string *owner = ring.ownerOf(key);
        ASSERT_NE(owner, nullptr);
        EXPECT_EQ(*owner, "b0");
    }
}

TEST(HashRing, OwnershipIsAPureFunctionOfMembership)
{
    // Two rings built in different insertion orders must agree on
    // every key: the ring is rebuilt from the membership set, so
    // history cannot leak into ownership.
    fleet::HashRing forward;
    fleet::HashRing reverse;
    const std::vector<std::string> members = {"b0", "b1", "b2", "b3"};
    for (const std::string &member : members)
        forward.add(member);
    for (auto it = members.rbegin(); it != members.rend(); ++it)
        reverse.add(*it);
    for (const std::string &key : sampleKeys(500))
        EXPECT_EQ(*forward.ownerOf(key), *reverse.ownerOf(key)) << key;
}

TEST(HashRing, SpreadIsRoughlyBalanced)
{
    fleet::HashRing ring;
    for (const char *member : {"b0", "b1", "b2", "b3"})
        ring.add(member);
    std::map<std::string, int> counts;
    const std::vector<std::string> keys = sampleKeys(2000);
    for (const std::string &key : keys)
        ++counts[*ring.ownerOf(key)];
    // With 64 vnodes each, every member should land within a loose
    // band around the fair share of 25%.
    for (const auto &[member, count] : counts) {
        EXPECT_GT(count, 2000 / 10) << member;
        EXPECT_LT(count, 2000 / 2) << member;
    }
    EXPECT_EQ(counts.size(), 4u);
}

TEST(HashRing, RemovalRemapsOnlyTheDeadMembersKeys)
{
    fleet::HashRing ring;
    for (const char *member : {"b0", "b1", "b2", "b3"})
        ring.add(member);
    const std::vector<std::string> keys = sampleKeys(2000);
    std::vector<std::string> before;
    before.reserve(keys.size());
    for (const std::string &key : keys)
        before.push_back(*ring.ownerOf(key));

    ring.remove("b2");
    int moved = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::string &after = *ring.ownerOf(keys[i]);
        EXPECT_NE(after, "b2");
        if (before[i] == "b2") {
            ++moved;
        } else {
            // Survivors keep every key they already owned.
            EXPECT_EQ(after, before[i]) << keys[i];
        }
    }
    // Exactly the dead member's share moved: ~1/4 of the keys, within
    // a generous band for hash variance.
    EXPECT_GT(moved, 2000 / 10);
    EXPECT_LT(moved, 2000 / 2);
}

TEST(HashRing, AdditionStealsOnlyForTheNewMember)
{
    fleet::HashRing ring;
    for (const char *member : {"b0", "b1", "b2"})
        ring.add(member);
    const std::vector<std::string> keys = sampleKeys(1500);
    std::vector<std::string> before;
    before.reserve(keys.size());
    for (const std::string &key : keys)
        before.push_back(*ring.ownerOf(key));

    ring.add("b3");
    int stolen = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const std::string &after = *ring.ownerOf(keys[i]);
        if (after != before[i]) {
            // Every moved key moved to the newcomer, never sideways.
            EXPECT_EQ(after, "b3") << keys[i];
            ++stolen;
        }
    }
    EXPECT_GT(stolen, 1500 / 10);
    EXPECT_LT(stolen, 1500 / 2);
}

TEST(HashRing, RemoveThenReaddRestoresOwnership)
{
    fleet::HashRing ring;
    for (const char *member : {"b0", "b1", "b2"})
        ring.add(member);
    const std::vector<std::string> keys = sampleKeys(300);
    std::vector<std::string> before;
    before.reserve(keys.size());
    for (const std::string &key : keys)
        before.push_back(*ring.ownerOf(key));
    ring.remove("b1");
    ring.add("b1");
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(*ring.ownerOf(keys[i]), before[i]) << keys[i];
}

TEST(HashRing, MembershipQueries)
{
    fleet::HashRing ring(8);
    EXPECT_EQ(ring.vnodesPerMember(), 8u);
    ring.add("b0");
    ring.add("b1");
    EXPECT_TRUE(ring.contains("b0"));
    EXPECT_FALSE(ring.contains("bX"));
    EXPECT_EQ(ring.memberCount(), 2u);
    ring.remove("b0");
    EXPECT_FALSE(ring.contains("b0"));
    EXPECT_EQ(ring.memberCount(), 1u);
    // Removing an absent member is a no-op, not an error.
    ring.remove("b0");
    EXPECT_EQ(ring.memberCount(), 1u);
}
