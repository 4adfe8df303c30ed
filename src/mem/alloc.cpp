#include "mem/alloc.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace icheck::mem
{

ReplayLog::ReplayLog(const ReplayLog &other)
{
    std::lock_guard<std::mutex> lock(other.mu);
    entries = other.entries;
    high = other.high;
    streamed = other.streamed;
    complete = other.complete;
}

ReplayLog &
ReplayLog::operator=(const ReplayLog &other)
{
    if (this != &other) {
        std::scoped_lock lock(mu, other.mu);
        entries = other.entries;
        high = other.high;
        streamed = other.streamed;
        complete = other.complete;
    }
    return *this;
}

void
ReplayLog::record(const std::string &site, std::uint32_t seq, Addr addr)
{
    {
        std::lock_guard<std::mutex> lock(mu);
        ICHECK_ASSERT(!complete, "record into a sealed replay log at ",
                      site);
        entries[{site, seq}] = addr;
    }
    grown.notify_all();
}

std::optional<Addr>
ReplayLog::lookup(const std::string &site, std::uint32_t seq) const
{
    const std::pair<std::string, std::uint32_t> key{site, seq};
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
        auto it = entries.find(key);
        if (it != entries.end())
            return it->second;
        if (!streamed || complete)
            return std::nullopt;
        grown.wait(lock);
    }
}

Addr
ReplayLog::highWater() const
{
    std::lock_guard<std::mutex> lock(mu);
    return high;
}

void
ReplayLog::raiseHighWater(Addr limit)
{
    std::lock_guard<std::mutex> lock(mu);
    if (limit > high)
        high = limit;
}

void
ReplayLog::stream()
{
    std::lock_guard<std::mutex> lock(mu);
    streamed = true;
}

void
ReplayLog::seal()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        complete = true;
    }
    grown.notify_all();
}

bool
ReplayLog::sealed() const
{
    std::lock_guard<std::mutex> lock(mu);
    return complete;
}

bool
ReplayLog::empty() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.empty();
}

std::size_t
ReplayLog::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
}

DeterministicAllocator::DeterministicAllocator(ReplayLog &replay_log,
                                               Mode mode)
    : log(replay_log), allocMode(mode)
{}

namespace
{

/** Round @p n up to 8-byte alignment. */
std::size_t
alignUp(std::size_t n)
{
    return (n + 7) & ~std::size_t{7};
}

} // namespace

Addr
DeterministicAllocator::takeAddress(const std::string &site,
                                    std::uint32_t seq, std::size_t size)
{
    if (allocMode == Mode::Replay) {
        if (auto logged = log.lookup(site, seq))
            return *logged;
        // Allocation not present in the recording run (the program itself
        // is nondeterministic in its allocation behaviour). Fall through to
        // fresh address space above the recorded high-water mark so replayed
        // blocks are never clobbered. A miss on a streamed log returns only
        // after the seal, so the mark read here is final.
        bump = std::max(bump, log.highWater());
        const Addr addr = bump;
        bump += alignUp(size);
        return addr;
    }
    // Record mode: exact-size LIFO free-list reuse, then bump.
    auto it = freeLists.find(alignUp(size));
    if (it != freeLists.end() && !it->second.empty()) {
        const Addr addr = it->second.back();
        it->second.pop_back();
        return addr;
    }
    const Addr addr = bump;
    bump += alignUp(size);
    log.raiseHighWater(bump);
    return addr;
}

Addr
DeterministicAllocator::allocate(const std::string &site,
                                 const TypeRef &type)
{
    ICHECK_ASSERT(type != nullptr, "allocation needs a type descriptor");
    ICHECK_ASSERT(type->size() > 0, "zero-size allocation at ", site);
    const std::uint32_t seq = siteSeq[site]++;
    const Addr addr = takeAddress(site, seq, type->size());
    if (allocMode == Mode::Record)
        log.record(site, seq, addr);

    Block block;
    block.addr = addr;
    block.size = type->size();
    block.site = site;
    block.seq = seq;
    block.type = type;
    block.live = true;
    blocks[addr] = std::move(block);
    bytesLive += type->size();
    ++allocSeqTotal;
    return addr;
}

void
DeterministicAllocator::free(Addr addr)
{
    auto it = blocks.find(addr);
    ICHECK_ASSERT(it != blocks.end() && it->second.live,
                  "free of non-live block at ", addr);
    it->second.live = false;
    bytesLive -= it->second.size;
    if (allocMode == Mode::Record)
        freeLists[(it->second.size + 7) & ~std::size_t{7}].push_back(addr);
}

const Block *
DeterministicAllocator::findLive(Addr addr) const
{
    const Block *block = findHistorical(addr);
    return block && block->live ? block : nullptr;
}

const Block *
DeterministicAllocator::findHistorical(Addr addr) const
{
    auto it = blocks.upper_bound(addr);
    if (it == blocks.begin())
        return nullptr;
    --it;
    const Block &block = it->second;
    if (addr >= block.addr && addr < block.addr + block.size)
        return &block;
    return nullptr;
}

DeterministicAllocator::State
DeterministicAllocator::saveState() const
{
    State state;
    state.bump = bump;
    state.allocSeqTotal = allocSeqTotal;
    state.siteSeq = siteSeq;
    state.freeLists = freeLists;
    state.blocks = blocks;
    state.bytesLive = bytesLive;
    return state;
}

void
DeterministicAllocator::restoreState(const State &state)
{
    bump = state.bump;
    allocSeqTotal = state.allocSeqTotal;
    siteSeq = state.siteSeq;
    freeLists = state.freeLists;
    blocks = state.blocks;
    bytesLive = state.bytesLive;
}

std::vector<const Block *>
DeterministicAllocator::liveBlocks() const
{
    std::vector<const Block *> live;
    for (const auto &[addr, block] : blocks) {
        if (block.live)
            live.push_back(&block);
    }
    return live;
}

} // namespace icheck::mem
