/**
 * @file
 * Deterministic allocator: record/replay of addresses (the Section 5
 * malloc-nondeterminism control), a log read while it is recorded,
 * free-list reuse, the live-block table.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>

#include "mem/alloc.hpp"

namespace icheck::mem
{
namespace
{

TEST(ReplayLog, RecordsAndLooksUp)
{
    ReplayLog log;
    EXPECT_TRUE(log.empty());
    log.record("site_a", 0, 0x1000);
    log.record("site_a", 1, 0x2000);
    log.record("site_b", 0, 0x3000);
    EXPECT_EQ(log.lookup("site_a", 0), 0x1000u);
    EXPECT_EQ(log.lookup("site_a", 1), 0x2000u);
    EXPECT_EQ(log.lookup("site_b", 0), 0x3000u);
    EXPECT_FALSE(log.lookup("site_a", 2).has_value());
    EXPECT_FALSE(log.lookup("site_c", 0).has_value());
    EXPECT_EQ(log.size(), 3u);
}

TEST(ReplayLog, UnstreamedMissReturnsAtOnce)
{
    // Nobody announced a record run: a miss never waits, sealed or not.
    ReplayLog log;
    log.record("site_a", 0, 0x1000);
    EXPECT_FALSE(log.lookup("site_a", 1).has_value());
    EXPECT_FALSE(log.sealed());
    log.seal();
    EXPECT_TRUE(log.sealed());
    EXPECT_FALSE(log.lookup("site_a", 1).has_value());
}

TEST(ReplayLog, StreamedLookupWakesOnRecord)
{
    ReplayLog log;
    log.stream();
    std::promise<std::optional<Addr>> found;
    std::thread replay([&log, &found] {
        found.set_value(log.lookup("site_a", 0));
    });
    auto result = found.get_future();
    // Still waiting: the entry is not there and the log is not sealed.
    EXPECT_EQ(result.wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout);
    log.record("site_a", 0, 0x1000);
    EXPECT_EQ(result.get(), 0x1000u);
    replay.join();
    EXPECT_FALSE(log.sealed());
}

TEST(ReplayLog, StreamedMissResolvesAtSeal)
{
    // A pair the record run never logs stays pending through unrelated
    // entries and resolves to a miss when the log is sealed.
    ReplayLog log;
    log.stream();
    std::promise<std::optional<Addr>> found;
    std::thread replay([&log, &found] {
        found.set_value(log.lookup("never_logged", 0));
    });
    auto result = found.get_future();
    log.record("site_a", 0, 0x1000);
    EXPECT_EQ(result.wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout);
    log.seal();
    EXPECT_FALSE(result.get().has_value());
    replay.join();
}

TEST(ReplayLog, ReplayFreshAddressIsSealedHighWater)
{
    // A replay that misses while the record run is still allocating
    // takes fresh space above the *sealed* high-water mark, not above
    // the mark it would have seen when it started.
    ReplayLog log;
    log.stream();
    DeterministicAllocator rec(log, DeterministicAllocator::Mode::Record);
    DeterministicAllocator rep(log, DeterministicAllocator::Mode::Replay);
    std::promise<Addr> fresh;
    std::thread replay([&rep, &fresh] {
        fresh.set_value(rep.allocate("replay_only", tInt64()));
    });
    auto result = fresh.get_future();
    rec.allocate("x", tArray(tInt64(), 4));
    rec.allocate("y", tArray(tInt64(), 4));
    EXPECT_EQ(result.wait_for(std::chrono::milliseconds(20)),
              std::future_status::timeout);
    log.seal();
    EXPECT_EQ(result.get(), log.highWater());
    replay.join();
    EXPECT_GT(log.highWater(), heapBase);
}

TEST(ReplayLog, CopiesCarryEntriesHighWaterAndSeal)
{
    ReplayLog log;
    log.record("site_a", 0, 0x1000);
    log.raiseHighWater(0x2000);
    log.seal();
    const ReplayLog copy(log);
    ReplayLog assigned;
    assigned = copy;
    const ReplayLog moved(std::move(assigned));
    for (const ReplayLog *each : {&copy, &moved}) {
        EXPECT_EQ(each->lookup("site_a", 0), 0x1000u);
        EXPECT_EQ(each->highWater(), 0x2000u);
        EXPECT_TRUE(each->sealed());
    }
}

TEST(Allocator, RecordModeIsOrderDeterministic)
{
    ReplayLog log_a, log_b;
    DeterministicAllocator alloc_a(log_a,
                                   DeterministicAllocator::Mode::Record);
    DeterministicAllocator alloc_b(log_b,
                                   DeterministicAllocator::Mode::Record);
    const TypeRef t = tArray(tInt64(), 4);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(alloc_a.allocate("s", t), alloc_b.allocate("s", t));
}

TEST(Allocator, RecordModeReusesFreedBlocksLifo)
{
    ReplayLog log;
    DeterministicAllocator alloc(log,
                                 DeterministicAllocator::Mode::Record);
    const TypeRef t = tArray(tInt64(), 2);
    const Addr a = alloc.allocate("s", t);
    const Addr b = alloc.allocate("s", t);
    alloc.free(a);
    alloc.free(b);
    // LIFO: most recently freed first.
    EXPECT_EQ(alloc.allocate("s", t), b);
    EXPECT_EQ(alloc.allocate("s", t), a);
}

TEST(Allocator, ReplayModeServesLoggedAddresses)
{
    ReplayLog log;
    std::vector<Addr> recorded;
    {
        DeterministicAllocator rec(log,
                                   DeterministicAllocator::Mode::Record);
        const TypeRef t = tArray(tInt32(), 8);
        recorded.push_back(rec.allocate("x", t));
        recorded.push_back(rec.allocate("y", t));
        recorded.push_back(rec.allocate("x", t));
    }
    // A replay run allocating in a *different* interleaved order still
    // gets the same address per (site, seq).
    DeterministicAllocator rep(log, DeterministicAllocator::Mode::Replay);
    const TypeRef t = tArray(tInt32(), 8);
    const Addr y0 = rep.allocate("y", t);
    const Addr x0 = rep.allocate("x", t);
    const Addr x1 = rep.allocate("x", t);
    EXPECT_EQ(x0, recorded[0]);
    EXPECT_EQ(y0, recorded[1]);
    EXPECT_EQ(x1, recorded[2]);
}

TEST(Allocator, ReplayMissFallsBackAboveHighWater)
{
    ReplayLog log;
    Addr recorded;
    {
        DeterministicAllocator rec(log,
                                   DeterministicAllocator::Mode::Record);
        recorded = rec.allocate("x", tInt64());
    }
    DeterministicAllocator rep(log, DeterministicAllocator::Mode::Replay);
    const Addr known = rep.allocate("x", tInt64());
    const Addr unknown = rep.allocate("never_seen", tInt64());
    EXPECT_EQ(known, recorded);
    EXPECT_GE(unknown, log.highWater())
        << "unlogged allocations must not clobber replayed blocks";
}

TEST(Allocator, LiveBlockLookup)
{
    ReplayLog log;
    DeterministicAllocator alloc(log,
                                 DeterministicAllocator::Mode::Record);
    const TypeRef t = tArray(tInt8(), 100);
    const Addr a = alloc.allocate("blk", t);
    const Block *block = alloc.findLive(a + 50);
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(block->addr, a);
    EXPECT_EQ(block->site, "blk");
    EXPECT_EQ(block->size, 100u);
    EXPECT_EQ(alloc.findLive(a + 100), nullptr) << "one past the end";
    EXPECT_EQ(alloc.liveBytes(), 100u);
}

TEST(Allocator, HistoricalLookupSurvivesFree)
{
    ReplayLog log;
    DeterministicAllocator alloc(log,
                                 DeterministicAllocator::Mode::Record);
    const Addr a = alloc.allocate("ghost", tArray(tInt8(), 64));
    alloc.free(a);
    EXPECT_EQ(alloc.findLive(a + 10), nullptr);
    const Block *block = alloc.findHistorical(a + 10);
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(block->site, "ghost");
    EXPECT_FALSE(block->live);
}

TEST(Allocator, LiveBlocksEnumeratesInAddressOrder)
{
    ReplayLog log;
    DeterministicAllocator alloc(log,
                                 DeterministicAllocator::Mode::Record);
    const Addr a = alloc.allocate("a", tInt64());
    const Addr b = alloc.allocate("b", tInt64());
    const Addr c = alloc.allocate("c", tInt64());
    alloc.free(b);
    const auto live = alloc.liveBlocks();
    ASSERT_EQ(live.size(), 2u);
    EXPECT_EQ(live[0]->addr, a);
    EXPECT_EQ(live[1]->addr, c);
}

TEST(Allocator, PerSiteSequencesAreIndependent)
{
    ReplayLog log;
    DeterministicAllocator alloc(log,
                                 DeterministicAllocator::Mode::Record);
    alloc.allocate("p", tInt64());
    alloc.allocate("q", tInt64());
    const Addr p1 = alloc.allocate("p", tInt64());
    const Block *block = alloc.findLive(p1);
    ASSERT_NE(block, nullptr);
    EXPECT_EQ(block->seq, 1u);
}

} // namespace
} // namespace icheck::mem
