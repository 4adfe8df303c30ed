#include "race/slice_hb.hpp"

#include <algorithm>
#include <iterator>

namespace icheck::race
{

bool
footprintsConflict(FootprintView a, FootprintView b)
{
    // Both footprints are sorted by object: merge-walk them.
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i].object < b[j].object) {
            ++i;
        } else if (b[j].object < a[i].object) {
            ++j;
        } else {
            if (a[i].write || b[j].write)
                return true;
            ++i;
            ++j;
        }
    }
    return false;
}

// ---------------------------------------------------------------------------
// RowTable

namespace
{

std::size_t
slotOf(std::uint64_t object, std::uint64_t epoch)
{
    // Granule keys are 8-aligned addresses: mix every bit into the low
    // ones the power-of-two index uses.
    std::uint64_t h = (object ^ (epoch * 0x9e3779b97f4a7c15ULL)) *
                      0xbf58476d1ce4e5b9ULL;
    return static_cast<std::size_t>(h ^ (h >> 31));
}

} // namespace

std::uint64_t *
SliceHb::RowTable::row(std::uint64_t object, std::uint64_t epoch)
{
    const std::size_t count = rows.size() / stride;
    if (2 * (count + 1) > index.size())
        rebuildIndex(std::max<std::size_t>(16, 2 * index.size()));
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = slotOf(object, epoch) & mask;; i = (i + 1) & mask) {
        if (index[i] == 0) {
            index[i] = static_cast<std::uint32_t>(count + 1);
            rows.resize(rows.size() + stride, 0);
            std::uint64_t *fresh = rows.data() + count * stride;
            fresh[0] = object;
            fresh[1] = epoch;
            return fresh;
        }
        std::uint64_t *r = rows.data() + (index[i] - 1) * stride;
        if (r[0] == object && r[1] == epoch)
            return r;
    }
}

void
SliceHb::RowTable::rebuildIndex(std::size_t slots)
{
    index.assign(slots, 0);
    const std::size_t mask = slots - 1;
    for (std::size_t r = 0; r * stride < rows.size(); ++r) {
        const std::uint64_t *key = rows.data() + r * stride;
        std::size_t i = slotOf(key[0], key[1]) & mask;
        while (index[i] != 0)
            i = (i + 1) & mask;
        index[i] = static_cast<std::uint32_t>(r + 1);
    }
}

void
SliceHb::RowTable::clear(std::size_t width)
{
    stride = kHeader + sectionCount * width;
    rows.clear();
    std::fill(index.begin(), index.end(), 0);
}

void
SliceHb::RowTable::widen(std::size_t from, std::size_t to)
{
    const std::size_t wider = kHeader + sectionCount * to;
    std::vector<std::uint64_t> out(rows.size() / stride * wider, 0);
    for (std::size_t r = 0; r * stride < rows.size(); ++r) {
        const std::uint64_t *src = rows.data() + r * stride;
        std::uint64_t *dst = out.data() + r * wider;
        std::copy_n(src, kHeader, dst);
        for (std::size_t s = 0; s < sectionCount; ++s)
            std::copy_n(src + kHeader + s * from, from,
                        dst + kHeader + s * to);
    }
    rows.swap(out);
    stride = wider;
}

// ---------------------------------------------------------------------------
// SliceHb

void
SliceHb::reset(ThreadId setup_tid)
{
    width = std::size_t{setup_tid} + 1;
    pending.clear();
    slices.clear();
    footprints.clear();
    raceList.clear();
    clocks.assign((width + 1) * width, 0);
    clockInited.assign(width, 0);
    granules.clear(width);
    mutexes.clear(width);
    conds.clear(width);
    barriers.clear(width);
}

void
SliceHb::widen(std::size_t to)
{
    std::vector<std::uint64_t> wider((to + 1) * to, 0);
    for (std::size_t t = 0; t < width; ++t)
        std::copy_n(clocks.data() + t * width, width, wider.data() + t * to);
    std::copy_n(clocks.data() + width * width, width,
                wider.data() + to * to); // the base clock stays last
    clocks.swap(wider);
    clockInited.resize(to, 0);
    granules.widen(width, to);
    mutexes.widen(width, to);
    conds.widen(width, to);
    barriers.widen(width, to);
    width = to;
}

std::uint64_t *
SliceHb::clockOf(ThreadId tid)
{
    std::uint64_t *clock = clocks.data() + std::size_t{tid} * width;
    if (clockInited[tid] == 0) {
        // Threads start after setup: every thread's first slice is
        // ordered after the prelude, so it can never race with it.
        const std::uint64_t *base = clocks.data() + width * width;
        for (std::size_t t = 0; t < width; ++t)
            clock[t] = std::max(clock[t], base[t]);
        clockInited[tid] = 1;
    }
    return clock;
}

void
SliceHb::noteRace(std::size_t earlier, std::size_t later)
{
    SliceRow &row = slices[earlier];
    if (row.racedWith == later)
        return;
    row.racedWith = later;
    raceList.push_back({earlier, later});
}

void
SliceHb::closeSlice(ThreadId tid, std::size_t decision)
{
    if (tid >= width)
        widen(std::size_t{tid} + 1);
    const std::size_t n = width;
    const std::size_t idx = slices.size();
    std::uint64_t *now = clockOf(tid);
    const std::uint64_t local = now[tid]; ///< Completed slices of tid.
    const std::uint64_t self = local + 1; ///< This slice's epoch clock.

    using T = RowTable;
    // A row header's epoch raced with `now`: set, another thread's, and
    // not ordered before this slice.
    const auto unordered = [&](const std::uint64_t *r) {
        return r[T::kClock] != 0 && r[T::kTid] != tid &&
               r[T::kClock] > now[r[T::kTid]];
    };
    const auto join = [&](const std::uint64_t *clock) {
        for (std::size_t t = 0; t < n; ++t)
            now[t] = std::max(now[t], clock[t]);
    };
    const auto raise = [&](const std::uint64_t *r) {
        if (r[T::kClock] != 0)
            now[r[T::kTid]] = std::max(now[r[T::kTid]], r[T::kClock]);
    };
    const auto publish = [&](std::uint64_t *into) {
        for (std::size_t t = 0; t < n; ++t)
            into[t] = std::max(into[t], now[t]);
        into[tid] = std::max(into[tid], self);
    };
    const auto stamp = [&](std::uint64_t *r) {
        r[T::kTid] = tid;
        r[T::kClock] = self;
        r[T::kSlice] = idx;
    };

    for (const PendingOp &p : pending) {
        switch (p.op) {
          case Op::Read: {
            std::uint64_t *g = granules.row(p.object, 0);
            if (unordered(g))
                noteRace(g[T::kSlice], idx);
            // Conflict closure: order this read after the last write so
            // a later conflicting access races with the *adjacent*
            // partner only (transitive pairs surface recursively in the
            // subtrees the backtracks open).
            join(g + T::kHeader);
            raise(g);
            g[T::kHeader + n + tid] = self;
            g[T::kHeader + 2 * n + tid] = idx;
            break;
          }
          case Op::Write: {
            std::uint64_t *g = granules.row(p.object, 0);
            std::uint64_t *write_clock = g + T::kHeader;
            std::uint64_t *read_epoch = write_clock + n;
            const std::uint64_t *read_slice = read_epoch + n;
            if (unordered(g))
                noteRace(g[T::kSlice], idx);
            // Readers in tid order: race detection order is output.
            for (std::size_t rt = 0; rt < n; ++rt) {
                if (rt != tid && read_epoch[rt] > now[rt])
                    noteRace(read_slice[rt], idx);
            }
            join(write_clock);
            raise(g);
            join(read_epoch);
            std::copy_n(now, n, write_clock);
            stamp(g);
            std::fill_n(read_epoch, 2 * n, 0);
            break;
          }
          case Op::Acquire: {
            std::uint64_t *m = mutexes.row(p.object, 0);
            // Acquire-acquire is a race on purpose: the release-acquire
            // join below orders the observed acquisition order, but the
            // *other* order is a different Mazurkiewicz trace DPOR must
            // visit.
            if (unordered(m))
                noteRace(m[T::kSlice], idx);
            join(m + T::kHeader);
            stamp(m);
            break;
          }
          case Op::Release:
            publish(mutexes.row(p.object, 0) + T::kHeader);
            break;
          case Op::CondSignal: {
            std::uint64_t *c = conds.row(p.object, 0);
            if (unordered(c))
                noteRace(c[T::kSlice], idx);
            publish(c + T::kHeader);
            stamp(c);
            break;
          }
          case Op::CondWait: {
            std::uint64_t *c = conds.row(p.object, 0);
            if (unordered(c))
                noteRace(c[T::kSlice], idx);
            join(c + T::kHeader);
            stamp(c);
            break;
          }
          case Op::BarrierArrive:
            // Arrival order commutes (the gather join is symmetric), so
            // barriers order but never race.
            publish(barriers.row(p.object, p.epoch) + T::kHeader);
            break;
          case Op::BarrierLeave:
            join(barriers.row(p.object, p.epoch) + T::kHeader);
            break;
        }
    }

    ++now[tid];
    if (decision == noIndex) // prelude: the base every thread starts from
        std::copy_n(now, n, clocks.data() + n * n);

    SliceRow row;
    row.decision = decision;
    row.tid = tid;
    row.footBegin = footprints.size();
    appendFootprint();
    row.footEnd = footprints.size();
    slices.push_back(row);
    pending.clear();
}

void
SliceHb::appendFootprint()
{
    const std::size_t begin = footprints.size();
    for (const PendingOp &p : pending) {
        const bool write = p.op != Op::Read;
        // Runs of one object (a load then its store) merge on the spot.
        if (footprints.size() > begin && footprints.back().object == p.object)
            footprints.back().write = footprints.back().write || write;
        else
            footprints.push_back({p.object, write});
    }
    const auto first = footprints.begin() + static_cast<std::ptrdiff_t>(begin);
    std::sort(first, footprints.end(),
              [](const SliceRef &a, const SliceRef &b) {
                  return a.object < b.object;
              });
    auto out = first;
    for (auto in = first; in != footprints.end(); ++in) {
        if (out != first && std::prev(out)->object == in->object)
            std::prev(out)->write = std::prev(out)->write || in->write;
        else
            *out++ = *in;
    }
    footprints.erase(out, footprints.end());
}

} // namespace icheck::race
