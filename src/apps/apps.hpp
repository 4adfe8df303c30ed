#ifndef ICHECK_APPS_APPS_HPP
#define ICHECK_APPS_APPS_HPP

/**
 * @file
 * The 17 workloads of the paper's evaluation (Table 1), as mini-programs
 * on the simulated machine. Each mini-app is engineered to reproduce the
 * determinism class, synchronization structure, and FP behaviour the paper
 * reports for the corresponding real application:
 *
 *   bit-by-bit deterministic:
 *     blackscholes, fft, lu, radix, streamcluster (bug-fixed), swaptions,
 *     volrend
 *   deterministic after FP rounding:
 *     fluidanimate, ocean, waterNS, waterSP
 *   deterministic after ignoring small structures:
 *     cholesky (freeTask list), pbzip2 (dangling result pointers),
 *     sphinx3 (scratch allocations)
 *   nondeterministic:
 *     barnes, canneal, radiosity
 *
 * streamcluster additionally models the real order-violation bug the
 * authors found in PARSEC 2.1: nondeterminism at internal barriers that is
 * masked at program end for medium inputs but propagates to the output for
 * small inputs.
 */

#include <cstdint>

#include "apps/bug_seeds.hpp"
#include "sim/context.hpp"
#include "sim/program.hpp"

namespace icheck::apps
{

/** Common base: thread count plumbing. */
class BaseApp : public sim::Program
{
  public:
    explicit BaseApp(ThreadId threads) : threads(threads) {}

    ThreadId numThreads() const override { return threads; }

  protected:
    ThreadId threads;
};

/** PARSEC blackscholes: data-parallel option pricing; bit-by-bit det. */
class Blackscholes : public BaseApp
{
  public:
    explicit Blackscholes(ThreadId threads = 8,
                          std::uint32_t options = 96,
                          std::uint32_t iterations = 5);
    std::string name() const override { return "blackscholes"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t options;
    std::uint32_t iterations;
    Addr spot = 0, strike = 0, vol = 0, prices = 0;
    sim::BarrierId iterBarrier = 0;
};

/** SPLASH-2 fft: staged butterflies, local then global stages. */
class Fft : public BaseApp
{
  public:
    explicit Fft(ThreadId threads = 8, std::uint32_t log2n = 8);
    std::string name() const override { return "fft"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t log2n;
    std::uint32_t n;
    Addr re = 0, im = 0;
    sim::BarrierId stageBarrier = 0;
};

/** SPLASH-2 lu: blocked factorization, owner-computes. */
class Lu : public BaseApp
{
  public:
    explicit Lu(ThreadId threads = 8, std::uint32_t dim = 32,
                std::uint32_t block = 8);
    std::string name() const override { return "lu"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t dim;
    std::uint32_t block;
    Addr matrix = 0;
    sim::BarrierId stepBarrier = 0;
};

/** SPLASH-2 radix: integer sort; optional order-violation seed. */
class Radix : public BaseApp
{
  public:
    explicit Radix(ThreadId threads = 8, std::uint32_t keys = 512,
                   BugSeed bug = BugSeed::None);
    std::string name() const override { return "radix"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    /** Scatter this thread's slice using the shared offset table. */
    void scatterPass(sim::ThreadCtx &ctx, Addr from, Addr to,
                     std::uint32_t shift, std::uint32_t lo,
                     std::uint32_t hi);

    std::uint32_t keys;
    BugSeed bug;
    std::uint32_t radixBits = 4;
    std::uint32_t passes = 4;
    Addr src = 0, dst = 0, histograms = 0, offsets = 0;
    sim::BarrierId passBarrier = 0;
};

/** PARSEC streamcluster: phase structure + the real PARSEC 2.1 bug. */
class Streamcluster : public BaseApp
{
  public:
    /**
     * @param medium_input  True models simmedium (bug masked at end);
     *                      false models simdev (bug reaches the output).
     * @param with_bug      Include the order-violation race (version 2.1)
     *                      or the fixed version.
     */
    explicit Streamcluster(ThreadId threads = 8, bool medium_input = true,
                           bool with_bug = false,
                           std::uint32_t points = 64);
    std::string name() const override { return "streamcluster"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    bool mediumInput;
    bool withBug;
    std::uint32_t points;
    std::uint32_t iterations;
    std::uint32_t buggyFirst, buggyLast, resetIteration;
    Addr coords = 0, partials = 0, cost = 0, scratch = 0, param = 0,
         ready = 0;
    sim::BarrierId phaseBarrier = 0;
};

/** PARSEC swaptions: Monte Carlo with thread-local RNGs; bit det. */
class Swaptions : public BaseApp
{
  public:
    explicit Swaptions(ThreadId threads = 8, std::uint32_t swaptions = 32,
                       std::uint32_t trials = 40);
    std::string name() const override { return "swaptions"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t nSwaptions;
    std::uint32_t trials;
    Addr params = 0, results = 0;
    sim::BarrierId blockBarrier = 0;
};

/** SPLASH-2 volrend: integer rendering + benign hand-coded-barrier race. */
class Volrend : public BaseApp
{
  public:
    explicit Volrend(ThreadId threads = 8, std::uint32_t frames = 5,
                     std::uint32_t pixels = 256);
    std::string name() const override { return "volrend"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t frames;
    std::uint32_t pixels;
    Addr image = 0, volume = 0, hbCount = 0, hbGen = 0;
    sim::MutexId hbMutex = 0;
    sim::BarrierId frameBarrier = 0;
};

/** PARSEC fluidanimate: neighbor accumulation; det after FP rounding. */
class Fluidanimate : public BaseApp
{
  public:
    explicit Fluidanimate(ThreadId threads = 8, std::uint32_t cells = 64,
                          std::uint32_t steps = 5);
    std::string name() const override { return "fluidanimate"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t cells;
    std::uint32_t steps;
    Addr density = 0, position = 0;
    sim::MutexId cellMutex = 0;
    sim::BarrierId stepBarrier = 0;
};

/** SPLASH-2 ocean: grid relaxation + global residual reduction. */
class Ocean : public BaseApp
{
  public:
    explicit Ocean(ThreadId threads = 8, std::uint32_t dim = 24,
                   std::uint32_t iterations = 8);
    std::string name() const override { return "ocean"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t dim;
    std::uint32_t iterations;
    Addr grid = 0, residual = 0;
    sim::MutexId residualMutex = 0;
    sim::BarrierId sweepBarrier = 0;
};

/** SPLASH-2 water-nsquared: MD forces; optional semantic bug seed. */
class WaterNS : public BaseApp
{
  public:
    explicit WaterNS(ThreadId threads = 8, std::uint32_t molecules = 48,
                     std::uint32_t steps = 5, BugSeed bug = BugSeed::None);
    std::string name() const override { return "waterNS"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t molecules;
    std::uint32_t steps;
    BugSeed bug;
    Addr pos = 0, vel = 0, potential = 0;
    sim::MutexId energyMutex = 0;
    sim::BarrierId stepBarrier = 0;
};

/** SPLASH-2 water-spatial: optional atomicity-violation seed. */
class WaterSP : public BaseApp
{
  public:
    explicit WaterSP(ThreadId threads = 8, std::uint32_t molecules = 48,
                     std::uint32_t steps = 4, BugSeed bug = BugSeed::None);
    std::string name() const override { return "waterSP"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t molecules;
    std::uint32_t steps;
    BugSeed bug;
    Addr pos = 0, kinetic = 0;
    sim::MutexId energyMutex = 0;
    sim::BarrierId stepBarrier = 0;
};

/** SPLASH-2 cholesky: task queue + nondeterministic freeTask list. */
class Cholesky : public BaseApp
{
  public:
    explicit Cholesky(ThreadId threads = 8, std::uint32_t dim = 20);
    std::string name() const override { return "cholesky"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

    /** Allocation site of the task nodes (the structure to ignore). */
    static const char *taskNodeSite() { return "cholesky.cpp:task_node"; }

  private:
    std::uint32_t dim;
    Addr matrix = 0, nextColumn = 0, freeTaskHead = 0;
    sim::MutexId queueMutex = 0, freeListMutex = 0, columnMutex = 0;
    sim::BarrierId doneBarrier = 0;
};

/** pbzip2: producer/consumer RLE pipeline with dangling result ptrs. */
class Pbzip2 : public BaseApp
{
  public:
    explicit Pbzip2(ThreadId threads = 8, std::uint32_t blocks = 12,
                    std::uint32_t block_bytes = 96);
    std::string name() const override { return "pbzip2"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

    /** Allocation site of the task structs. */
    static const char *taskSite() { return "pbzip2.cpp:task"; }

    /** Offset/width of the nondeterministic result pointer field. */
    static constexpr std::size_t resultPtrOffset = 8;
    static constexpr std::size_t resultPtrWidth = 8;

    /** Largest block (the large input scale's) the consumers' fixed
     *  run-length staging buffer holds. */
    static constexpr std::uint32_t maxBlockBytes = 192;

  private:
    std::uint32_t blocks;
    std::uint32_t blockBytes;
    Addr input = 0, tasks = 0, queue = 0, queueHead = 0, queueTail = 0,
         producedAll = 0, doneCount = 0;
    sim::MutexId queueMutex = 0;
    sim::CondId queueCond = 0;
};

/** sphinx3: many-barrier pipeline + nondeterministic scratch (~4%). */
class Sphinx3 : public BaseApp
{
  public:
    explicit Sphinx3(ThreadId threads = 8, std::uint32_t frames = 40,
                     std::uint32_t states = 96);
    std::string name() const override { return "sphinx3"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

    /** Allocation site of the nondeterministic scratch buffers. */
    static const char *scratchSite() { return "sphinx3.cpp:scratch"; }

  private:
    std::uint32_t frames;
    std::uint32_t states;
    Addr features = 0, scores = 0, best = 0, claimed = 0,
         scratchPtrs = 0;
    sim::MutexId bestMutex = 0;
    sim::BarrierId frameBarrier = 0;
};

/** SPLASH-2 barnes: racy tree build; nondeterministic. */
class Barnes : public BaseApp
{
  public:
    explicit Barnes(ThreadId threads = 8, std::uint32_t bodies = 48,
                    std::uint32_t steps = 2);
    std::string name() const override { return "barnes"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t bodies;
    std::uint32_t steps;
    Addr keys = 0, root = 0, forces = 0;
    sim::MutexId treeMutex = 0;
    sim::BarrierId stepBarrier = 0;
};

/** PARSEC canneal: racy simulated annealing; nondeterministic. */
class Canneal : public BaseApp
{
  public:
    explicit Canneal(ThreadId threads = 8, std::uint32_t elements = 64,
                     std::uint32_t moves = 60);
    std::string name() const override { return "canneal"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t elements;
    std::uint32_t moves;
    Addr placement = 0;
    sim::BarrierId roundBarrier = 0;
};

/** SPLASH-2 radiosity: task stealing leaks into results; ndet. */
class Radiosity : public BaseApp
{
  public:
    explicit Radiosity(ThreadId threads = 8, std::uint32_t patches = 48,
                       std::uint32_t rounds = 3);
    std::string name() const override { return "radiosity"; }
    void setup(sim::SetupCtx &ctx) override;
    void threadMain(sim::ThreadCtx &ctx) override;

  private:
    std::uint32_t patches;
    std::uint32_t rounds;
    Addr energy = 0, owner = 0, nextTask = 0;
    sim::MutexId taskMutex = 0;
    sim::BarrierId roundBarrier = 0;
};

} // namespace icheck::apps

#endif // ICHECK_APPS_APPS_HPP
