#include "check/sw_tr.hpp"

#include "check/region.hpp"
#include "support/logging.hpp"

namespace icheck::check
{

namespace
{

constexpr InstCount hashInstrPerByte = 5;
constexpr InstCount tableUpdateInstrs = 30; ///< Non-ideal malloc/free cost.
constexpr InstCount blockLookupInstrs = 20; ///< Non-ideal per-block cost.

} // namespace

void
SwInstantCheckTr::attach(sim::Machine &m)
{
    Checker::attach(m);
    // The listener exists only to charge allocation-table upkeep, which
    // the ideal model does not count. Unsubscribed, the machine skips the
    // old-value read and the no-op callbacks on every access.
    if (!ideal)
        m.addListener(this);
}

void
SwInstantCheckTr::onRunStart()
{
    Checker::onRunStart();
    // The initial-state traversal anchors all later hashes as deltas; the
    // paper's prototype compares absolute hashes, which is equivalent when
    // initial states match — deltas additionally make this scheme's output
    // bit-identical to the incremental schemes, which tests exploit.
    initialHash = traverse();
}

void
SwInstantCheckTr::onAlloc(const mem::Block &)
{
    addOverhead(tableUpdateInstrs);
}

void
SwInstantCheckTr::onFree(const mem::Block &)
{
    addOverhead(tableUpdateInstrs);
}

hashing::ModHash
SwInstantCheckTr::traverse()
{
    sim::Machine &m = machine();
    const mem::SparseMemory &image = m.memory();
    hashing::ModHash sum;
    std::size_t bytes = 0;

    for (const mem::GlobalVar &var : m.staticSegment().globals()) {
        sum += hashTypedRegion(pipeline(), image, var.addr, var.type,
                               var.type->size());
        bytes += var.type->size();
    }
    for (const mem::Block *block : m.allocator().liveBlocks()) {
        sum += hashTypedRegion(pipeline(), image, block->addr, block->type,
                               block->size);
        bytes += block->size;
        if (!ideal)
            addOverhead(blockLookupInstrs);
    }
    addOverhead(bytes * hashInstrPerByte);
    lastBytes = bytes;
    return sum;
}

hashing::ModHash
SwInstantCheckTr::rawStateHash()
{
    return traverse() - initialHash;
}

} // namespace icheck::check
