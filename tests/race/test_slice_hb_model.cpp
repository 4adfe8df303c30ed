/**
 * @file
 * The flat slice analysis against a reference model: the straightforward
 * map-based analyzer (node containers, one VectorClock per object, a
 * std::set of reported pairs) kept here as the specification. Random op
 * streams — 2-5 threads, reads and writes over a few granules, lock,
 * condition-variable and multi-epoch barrier operations, a prelude — go
 * to both; after every closed slice they must agree on the race list
 * (order included) and on every slice's thread, decision and footprint.
 * Copies taken mid-run, and copies assigned into an analyzer that
 * already holds state, must continue exactly like the uncopied run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "race/slice_hb.hpp"
#include "race/vector_clock.hpp"
#include "support/rng.hpp"

namespace icheck::race
{
namespace
{

/** The reference analyzer: same algorithm, node-based containers. */
class ModelSliceHb
{
  public:
    using Op = SliceHb::Op;
    static constexpr std::size_t noIndex = SliceHb::noIndex;

    void
    record(Op op, std::uint64_t object, std::uint64_t epoch)
    {
        pending.push_back({op, object, epoch});
    }

    void
    closeSlice(ThreadId tid, std::size_t decision)
    {
        const std::size_t idx = slices.size();
        VectorClock &now = clockOf(tid);
        const std::uint64_t local = now.get(tid);
        const Epoch self{tid, local + 1};

        const auto raise = [&now](const Epoch &e) {
            if (e.valid())
                now.set(e.tid, std::max(now.get(e.tid), e.clock));
        };
        const auto publish = [&](VectorClock &into) {
            into.join(now);
            into.set(tid, std::max(into.get(tid), self.clock));
        };
        const auto contends = [&](const ObjectState &o) {
            return o.last.valid() && o.last.tid != tid &&
                   !o.last.happensBefore(now);
        };

        std::map<std::uint64_t, bool> touched;
        for (const PendingOp &p : pending) {
            switch (p.op) {
              case Op::Read: {
                GranuleState &g = granules[p.object];
                if (g.write.valid() && g.write.tid != tid &&
                    !g.write.happensBefore(now))
                    noteRace(g.writeSlice, idx);
                now.join(g.writeClock);
                raise(g.write);
                g.readers[tid] = {local + 1, idx};
                touched.emplace(p.object, false);
                break;
              }
              case Op::Write: {
                GranuleState &g = granules[p.object];
                if (g.write.valid() && g.write.tid != tid &&
                    !g.write.happensBefore(now))
                    noteRace(g.writeSlice, idx);
                for (const auto &[rt, ri] : g.readers) {
                    if (rt != tid && ri.first > now.get(rt))
                        noteRace(ri.second, idx);
                }
                now.join(g.writeClock);
                raise(g.write);
                for (const auto &[rt, ri] : g.readers)
                    now.set(rt, std::max(now.get(rt), ri.first));
                g.writeClock = now;
                g.write = self;
                g.writeSlice = idx;
                g.readers.clear();
                touched[p.object] = true;
                break;
              }
              case Op::Acquire: {
                ObjectState &m = mutexes[p.object];
                if (contends(m))
                    noteRace(m.lastSlice, idx);
                now.join(m.clock);
                m.last = self;
                m.lastSlice = idx;
                touched[p.object] = true;
                break;
              }
              case Op::Release:
                publish(mutexes[p.object].clock);
                touched[p.object] = true;
                break;
              case Op::CondSignal: {
                ObjectState &c = conds[p.object];
                if (contends(c))
                    noteRace(c.lastSlice, idx);
                publish(c.clock);
                c.last = self;
                c.lastSlice = idx;
                touched[p.object] = true;
                break;
              }
              case Op::CondWait: {
                ObjectState &c = conds[p.object];
                if (contends(c))
                    noteRace(c.lastSlice, idx);
                now.join(c.clock);
                c.last = self;
                c.lastSlice = idx;
                touched[p.object] = true;
                break;
              }
              case Op::BarrierArrive:
                publish(barrierGather[{p.object, p.epoch}]);
                touched[p.object] = true;
                break;
              case Op::BarrierLeave:
                now.join(barrierGather[{p.object, p.epoch}]);
                touched[p.object] = true;
                break;
            }
        }

        now.tick(tid);
        if (decision == noIndex)
            baseClock = now;

        SliceInfo info;
        info.tid = tid;
        info.decision = decision;
        for (const auto &[object, write] : touched)
            info.footprint.push_back({object, write});
        slices.push_back(std::move(info));
        pending.clear();
    }

    struct SliceInfo
    {
        ThreadId tid = 0;
        std::size_t decision = noIndex;
        SliceFootprint footprint;
    };

    std::vector<SliceHb::Race> raceList;
    std::vector<SliceInfo> slices;

  private:
    struct PendingOp
    {
        Op op;
        std::uint64_t object;
        std::uint64_t epoch;
    };
    struct GranuleState
    {
        VectorClock writeClock;
        Epoch write;
        std::size_t writeSlice = noIndex;
        std::map<ThreadId, std::pair<std::uint64_t, std::size_t>> readers;
    };
    struct ObjectState
    {
        VectorClock clock;
        Epoch last;
        std::size_t lastSlice = noIndex;
    };

    VectorClock &
    clockOf(ThreadId tid)
    {
        if (tid >= clocks.size()) {
            clocks.resize(tid + 1);
            clockInited.resize(tid + 1, false);
        }
        if (!clockInited[tid]) {
            clocks[tid].join(baseClock);
            clockInited[tid] = true;
        }
        return clocks[tid];
    }

    void
    noteRace(std::size_t earlier, std::size_t later)
    {
        if (raceSeen.emplace(earlier, later).second)
            raceList.push_back({earlier, later});
    }

    std::vector<PendingOp> pending;
    std::set<std::pair<std::size_t, std::size_t>> raceSeen;
    std::vector<VectorClock> clocks;
    std::vector<bool> clockInited;
    VectorClock baseClock;
    std::map<std::uint64_t, GranuleState> granules;
    std::map<std::uint64_t, ObjectState> mutexes;
    std::map<std::uint64_t, ObjectState> conds;
    std::map<std::pair<std::uint64_t, std::uint64_t>, VectorClock>
        barrierGather;
};

struct RecordedOp
{
    SliceHb::Op op;
    std::uint64_t object;
    std::uint64_t epoch;
};

/** One slice of a generated stream: its operations, then its closer. */
struct StreamSlice
{
    std::vector<RecordedOp> ops;
    ThreadId tid = 0;
    std::size_t decision = SliceHb::noIndex;
};

/** A generated run: the analyzer's constructor argument plus slices. */
struct Stream
{
    ThreadId setupTid = 0;
    std::vector<StreamSlice> slices;
};

/**
 * A random run of 2-5 threads. Half the streams build the analyzer the
 * way the explorer does (prelude on pseudo-thread n); the rest build a
 * bare SliceHb() with the prelude on thread 0, so clocks widen mid-run
 * while granule and object rows already hold state.
 */
Stream
generate(std::uint64_t seed)
{
    Xoshiro256 rng(seed);
    const auto threads = static_cast<ThreadId>(2 + rng.below(4));
    const bool explorer_like = rng.below(2) == 0;
    Stream stream;
    stream.setupTid = explorer_like ? threads : 0;

    const std::uint64_t granules[] = {0x1000, 0x1008, 0x1010, 0x2000};
    const auto op_of = [&]() -> RecordedOp {
        const std::uint64_t pick = rng.below(16);
        const std::uint64_t g = granules[rng.below(4)];
        if (pick < 5)
            return {SliceHb::Op::Read, g, 0};
        if (pick < 9)
            return {SliceHb::Op::Write, g, 0};
        const std::uint64_t m = mutexKey(static_cast<std::uint32_t>(rng.below(2)));
        const std::uint64_t c = condKey(static_cast<std::uint32_t>(rng.below(2)));
        const std::uint64_t b = barrierKey(0);
        const std::uint64_t epoch = rng.below(3);
        switch (pick) {
          case 9: return {SliceHb::Op::Acquire, m, 0};
          case 10: return {SliceHb::Op::Release, m, 0};
          case 11: return {SliceHb::Op::CondSignal, c, 0};
          case 12: return {SliceHb::Op::CondWait, c, 0};
          case 13: return {SliceHb::Op::BarrierArrive, b, epoch};
          default: return {SliceHb::Op::BarrierLeave, b, epoch};
        }
    };

    StreamSlice prelude;
    prelude.tid = explorer_like ? threads : 0;
    for (std::uint64_t i = rng.below(4); i > 0; --i)
        prelude.ops.push_back(op_of());
    stream.slices.push_back(prelude);

    const std::uint64_t count = 10 + rng.below(50);
    for (std::size_t d = 0; d < count; ++d) {
        StreamSlice slice;
        slice.tid = static_cast<ThreadId>(rng.below(threads));
        slice.decision = d;
        for (std::uint64_t i = rng.below(7); i > 0; --i)
            slice.ops.push_back(op_of());
        stream.slices.push_back(slice);
    }
    return stream;
}

template <typename Analyzer>
void
feed(Analyzer &hb, const StreamSlice &slice)
{
    for (const RecordedOp &op : slice.ops)
        hb.record(op.op, op.object, op.epoch);
    hb.closeSlice(slice.tid, slice.decision);
}

/** Everything observable of @p hb equals @p model's. */
::testing::AssertionResult
sameAsModel(const SliceHb &hb, const ModelSliceHb &model)
{
    if (hb.races().size() != model.raceList.size())
        return ::testing::AssertionFailure()
               << hb.races().size() << " races, model has "
               << model.raceList.size();
    for (std::size_t i = 0; i < hb.races().size(); ++i) {
        if (hb.races()[i].earlier != model.raceList[i].earlier ||
            hb.races()[i].later != model.raceList[i].later)
            return ::testing::AssertionFailure()
                   << "race " << i << " is (" << hb.races()[i].earlier
                   << ", " << hb.races()[i].later << "), model has ("
                   << model.raceList[i].earlier << ", "
                   << model.raceList[i].later << ")";
    }
    if (hb.sliceCount() != model.slices.size())
        return ::testing::AssertionFailure()
               << hb.sliceCount() << " slices, model has "
               << model.slices.size();
    for (std::size_t i = 0; i < hb.sliceCount(); ++i) {
        const ModelSliceHb::SliceInfo &want = model.slices[i];
        const FootprintView view = hb.sliceFootprintView(i);
        if (hb.sliceTid(i) != want.tid ||
            hb.sliceDecision(i) != want.decision ||
            hb.sliceFootprint(i) != want.footprint ||
            !std::equal(view.begin(), view.end(), want.footprint.begin(),
                        want.footprint.end()))
            return ::testing::AssertionFailure()
                   << "slice " << i << " differs from the model";
    }
    return ::testing::AssertionSuccess();
}

constexpr std::uint64_t kStreams = 600;

TEST(SliceHbModel, EveryCloseMatchesTheReferenceModel)
{
    for (std::uint64_t seed = 1; seed <= kStreams; ++seed) {
        const Stream stream = generate(seed);
        SliceHb hb(stream.setupTid);
        ModelSliceHb model;
        for (std::size_t i = 0; i < stream.slices.size(); ++i) {
            feed(hb, stream.slices[i]);
            feed(model, stream.slices[i]);
            ASSERT_TRUE(sameAsModel(hb, model))
                << "seed " << seed << ", after slice " << i;
        }
    }
}

TEST(SliceHbModel, StreamsRaceOnEveryConflictKind)
{
    // The generator must reach what the comparison is meant to cover:
    // races, and a race whose later slice has several earlier partners.
    std::uint64_t races = 0, multi = 0;
    for (std::uint64_t seed = 1; seed <= kStreams; ++seed) {
        const Stream stream = generate(seed);
        ModelSliceHb model;
        for (const StreamSlice &slice : stream.slices)
            feed(model, slice);
        races += model.raceList.size();
        for (std::size_t i = 1; i < model.raceList.size(); ++i)
            multi += model.raceList[i].later == model.raceList[i - 1].later;
    }
    EXPECT_GT(races, 10 * kStreams);
    EXPECT_GT(multi, kStreams);
}

TEST(SliceHbModel, CopiesContinueLikeTheStraightRun)
{
    for (std::uint64_t seed = 1; seed <= kStreams; ++seed) {
        const Stream stream = generate(seed);
        Xoshiro256 rng(seed ^ 0xc0b1e5ULL);
        const std::size_t cut = rng.below(stream.slices.size());

        SliceHb straight(stream.setupTid);
        ModelSliceHb model;
        // An analyzer holding another run's state, so assignment
        // overwrites live rows rather than filling empty containers.
        SliceHb used(static_cast<ThreadId>(rng.below(6)));
        for (const StreamSlice &slice : generate(seed + kStreams).slices)
            feed(used, slice);

        for (std::size_t i = 0; i < cut; ++i) {
            feed(straight, stream.slices[i]);
            feed(model, stream.slices[i]);
        }
        SliceHb copy(straight);
        used = straight;
        for (std::size_t i = cut; i < stream.slices.size(); ++i) {
            feed(straight, stream.slices[i]);
            feed(copy, stream.slices[i]);
            feed(used, stream.slices[i]);
            feed(model, stream.slices[i]);
            ASSERT_TRUE(sameAsModel(straight, model))
                << "seed " << seed << ", after slice " << i;
            ASSERT_TRUE(sameAsModel(copy, model))
                << "copy at slice " << cut << ", seed " << seed
                << ", after slice " << i;
            ASSERT_TRUE(sameAsModel(used, model))
                << "assigned at slice " << cut << ", seed " << seed
                << ", after slice " << i;
        }
    }
}

TEST(SliceHbModel, ResetForgetsEverything)
{
    const Stream stream = generate(7);
    SliceHb hb(stream.setupTid);
    for (const StreamSlice &slice : generate(8).slices)
        feed(hb, slice);
    hb.reset(stream.setupTid);
    ModelSliceHb model;
    for (const StreamSlice &slice : stream.slices) {
        feed(hb, slice);
        feed(model, slice);
    }
    EXPECT_TRUE(sameAsModel(hb, model));
}

} // namespace
} // namespace icheck::race
