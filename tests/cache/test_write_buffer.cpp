/**
 * @file
 * Write buffer: VPN capture / V_addr reconstruction (Fig 3a), drain-
 * order freedom (Section 3.2), and drain order equal to a std::deque
 * reference model under every policy.
 */

#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "cache/write_buffer.hpp"
#include "hashing/location_hash.hpp"
#include "support/rng.hpp"

namespace icheck::cache
{
namespace
{

WriteBufferEntry
entryFor(Addr vaddr, std::uint64_t old_bits, std::uint64_t new_bits)
{
    WriteBufferEntry entry;
    entry.paddr = translate(vaddr);
    entry.vpn = vaddr / vpnPageSize;
    entry.width = 8;
    entry.oldBits = old_bits;
    entry.newBits = new_bits;
    return entry;
}

TEST(WriteBuffer, VaddrReconstructionFromVpn)
{
    for (Addr vaddr : {Addr{0x1234}, Addr{0x10000 + 4095},
                       Addr{0xdeadb000}, Addr{7}}) {
        const WriteBufferEntry entry = entryFor(vaddr, 0, 1);
        EXPECT_EQ(entry.vaddr(), vaddr);
        EXPECT_NE(entry.paddr, vaddr)
            << "translation must be nontrivial for the test to matter";
    }
}

TEST(WriteBuffer, PushDrainsWhenFull)
{
    WriteBuffer wb(4, DrainPolicy::Fifo, 1);
    std::vector<Addr> drained;
    auto sink = [&](const WriteBufferEntry &e) {
        drained.push_back(e.vaddr());
    };
    for (Addr a = 0; a < 6; ++a)
        wb.push(entryFor(0x1000 + a * 8, 0, a), sink);
    EXPECT_EQ(drained.size(), 2u);
    EXPECT_EQ(drained[0], 0x1000u) << "FIFO drains oldest first";
    EXPECT_EQ(wb.size(), 4u);
}

TEST(WriteBuffer, DrainAllEmpties)
{
    WriteBuffer wb(8, DrainPolicy::Lifo, 1);
    std::vector<Addr> drained;
    auto sink = [&](const WriteBufferEntry &e) {
        drained.push_back(e.vaddr());
    };
    for (Addr a = 0; a < 5; ++a)
        wb.push(entryFor(0x2000 + a * 8, 0, a), sink);
    wb.drainAll(sink);
    EXPECT_EQ(wb.size(), 0u);
    ASSERT_EQ(drained.size(), 5u);
    EXPECT_EQ(drained.front(), 0x2000u + 4 * 8) << "LIFO drains newest";
}

TEST(WriteBuffer, DrainOrderDoesNotAffectHash)
{
    // Section 3.2: entries may drain in any order without changing TH,
    // because the hash group is commutative. Run identical store streams
    // through FIFO / LIFO / Random drains and compare the summed hash.
    const hashing::Mix64LocationHasher hasher;
    auto run = [&](DrainPolicy policy, std::uint64_t seed) {
        WriteBuffer wb(4, policy, seed);
        hashing::ModHash th;
        auto sink = [&](const WriteBufferEntry &e) {
            for (unsigned i = 0; i < e.width; ++i) {
                th -= hasher.hashByte(
                    e.vaddr() + i,
                    static_cast<std::uint8_t>(e.oldBits >> (8 * i)));
                th += hasher.hashByte(
                    e.vaddr() + i,
                    static_cast<std::uint8_t>(e.newBits >> (8 * i)));
            }
        };
        std::uint64_t value = 0;
        for (Addr a = 0; a < 40; ++a) {
            const Addr addr = 0x3000 + (a % 10) * 8;
            wb.push(entryFor(addr, value, value + a + 1), sink);
            value = value + a + 1;
        }
        wb.drainAll(sink);
        return th;
    };
    const hashing::ModHash fifo = run(DrainPolicy::Fifo, 1);
    EXPECT_EQ(run(DrainPolicy::Lifo, 1), fifo);
    EXPECT_EQ(run(DrainPolicy::Random, 99), fifo);
    EXPECT_EQ(run(DrainPolicy::Random, 12345), fifo);
}

/**
 * The reference drain order: a std::deque with the policy's pick, erased
 * in place. The ring must drain exactly this sequence, Random included,
 * because a drain sequence moves cache and MHM state.
 */
class DequeModel
{
  public:
    DequeModel(std::size_t capacity, DrainPolicy policy, std::uint64_t seed)
        : cap(capacity), drainPolicy(policy), rng(seed)
    {}

    void
    push(const WriteBufferEntry &entry, std::vector<std::uint64_t> &out)
    {
        if (entries.size() >= cap)
            drainOne(out);
        entries.push_back(entry);
    }

    void
    drainAll(std::vector<std::uint64_t> &out)
    {
        while (!entries.empty())
            drainOne(out);
    }

  private:
    void
    drainOne(std::vector<std::uint64_t> &out)
    {
        std::size_t idx = 0;
        if (drainPolicy == DrainPolicy::Lifo)
            idx = entries.size() - 1;
        else if (drainPolicy == DrainPolicy::Random)
            idx = static_cast<std::size_t>(rng.below(entries.size()));
        out.push_back(entries[idx].newBits);
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(idx));
    }

    std::size_t cap;
    DrainPolicy drainPolicy;
    Xoshiro256 rng;
    std::deque<WriteBufferEntry> entries;
};

/** Push ids [first, last) into both, draining everything every
 *  @p flush_every pushes, and return the two drain sequences. */
void
pushBoth(WriteBuffer &wb, DequeModel &model, std::uint64_t first,
         std::uint64_t last, std::uint64_t flush_every,
         std::vector<std::uint64_t> &got, std::vector<std::uint64_t> &want)
{
    auto sink = [&](const WriteBufferEntry &e) { got.push_back(e.newBits); };
    for (std::uint64_t id = first; id < last; ++id) {
        const WriteBufferEntry entry = entryFor(0x4000 + id * 8, 0, id);
        wb.push(entry, sink);
        model.push(entry, want);
        if (id % flush_every == flush_every - 1) {
            wb.drainAll(sink);
            model.drainAll(want);
        }
    }
}

TEST(WriteBuffer, DrainOrderMatchesDequeModel)
{
    for (DrainPolicy policy :
         {DrainPolicy::Fifo, DrainPolicy::Lifo, DrainPolicy::Random}) {
        for (std::size_t cap : {1u, 3u, 16u}) {
            WriteBuffer wb(cap, policy, 7 + cap);
            DequeModel model(cap, policy, 7 + cap);
            std::vector<std::uint64_t> got;
            std::vector<std::uint64_t> want;
            pushBoth(wb, model, 0, 200, 37, got, want);
            EXPECT_EQ(wb.size(), std::min<std::size_t>(cap, 200 % 37));
            wb.drainAll([&](const WriteBufferEntry &e) {
                got.push_back(e.newBits);
            });
            model.drainAll(want);
            EXPECT_EQ(wb.size(), 0u);
            EXPECT_EQ(got.size(), 200u);
            EXPECT_EQ(got, want) << "policy " << static_cast<int>(policy)
                                 << ", capacity " << cap;
        }
    }
}

TEST(WriteBuffer, CopyOfPartlyFilledBufferDrainsLikeTheModel)
{
    // A copy is what a machine snapshot holds; it must carry the ring's
    // position, contents and RNG state.
    for (DrainPolicy policy :
         {DrainPolicy::Fifo, DrainPolicy::Lifo, DrainPolicy::Random}) {
        for (std::size_t cap : {1u, 3u, 16u}) {
            WriteBuffer wb(cap, policy, 99);
            DequeModel model(cap, policy, 99);
            std::vector<std::uint64_t> got;
            std::vector<std::uint64_t> want;
            // Leave the ring wrapped and partly filled.
            pushBoth(wb, model, 0, 2 * cap + cap / 2 + 1, 1000, got, want);

            WriteBuffer copy = wb;
            DequeModel model_copy = model;
            std::vector<std::uint64_t> copy_got = got;
            std::vector<std::uint64_t> copy_want = want;

            pushBoth(wb, model, 100, 150, 11, got, want);
            pushBoth(copy, model_copy, 100, 150, 11, copy_got, copy_want);
            EXPECT_EQ(got, want) << "capacity " << cap;
            EXPECT_EQ(copy_got, copy_want) << "capacity " << cap;
            EXPECT_EQ(copy_got, got) << "capacity " << cap;
        }
    }
}

} // namespace
} // namespace icheck::cache
