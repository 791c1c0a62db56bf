/**
 * @file
 * Work-counter gates for the Table 3 and Figure 2 PIso points: the
 * number of operator new calls made inside Simulation::run(), the
 * events it executes and its policy-loop iterations. Figure 2 under
 * SMP has an allocation gate too, for its one global ready queue. The events and
 * policy iterations of ext_scale's 256-CPU x 512-SPU point, under Quo
 * and PIso, are pinned too: there a policy loop that walks every SPU
 * or every process instead of the active ones moves the count by
 * thousands. One more gate
 * counts the operator new calls of a whole warm-started sweep plan,
 * the fault_sweep benchmark's, run serially: there the sweep engine's
 * own work (grouping, template, restores) is counted too, so a
 * Simulation built only to group tasks shows up as hundreds of calls.
 * That ceiling is only about 4% above its count (see the test).
 *
 * These counts are deterministic, so they can gate where wall time
 * cannot. The I/O path allocates nothing per request (operations are
 * records in a slab, block waiters sit in a node pool, scratch
 * buffers are reused), so a closure or a per-call vector put back on
 * that path shows up here as thousands of extra calls. Each
 * run() ceiling is about 25% above the count it was set from, to
 * absorb standard library differences; docs/performance.md records
 * the counts. Sanitizer builds replace the allocator, so the
 * allocation tests skip there.
 *
 * Events and policy iterations do not depend on the allocator or the
 * standard library, so they are pinned exactly in every build: a
 * change that moves them changes what the simulator does, not how
 * fast it does it. So are the files each run placed
 * (FileSystem::placedFiles): scattered files are placed when first
 * touched, so a run that placed every file it laid out shows up at
 * the 256 x 512 point as a quarter of a million instead of a few
 * thousand.
 *
 * Two per-operation counters pin the work of the two hottest
 * structures, where wall time is never gated on: the ordering
 * comparisons the event heap makes (EventQueue::comparisons) and the
 * index positions the cache's lookups visit (BufferCache::probeVisits),
 * both over the simulation's whole life. Neither depends on the
 * build, so a heap that scans for its minimum, a hash that clusters,
 * an index that stops growing or a lookaside that stops hitting moves
 * them in every build, PISO_HARDENED included.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench/pmake8.hh"
#include "bench/scale_point.hh"
#include "src/config/workload_spec.hh"
#include "src/exp/runner.hh"
#include "src/piso.hh"

namespace {

bool gCounting = false;
std::uint64_t gAllocs = 0;

} // namespace

void *
operator new(std::size_t n)
{
    if (gCounting)
        ++gAllocs;
    if (void *p = std::malloc(n != 0 ? n : 1))
        return p;
    throw std::bad_alloc();
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }

using namespace piso;

namespace {

/** What one sim.run() did: operator new calls, the run's perf
 *  counters, the files it placed, and the simulation's event-heap
 *  comparisons and buffer-cache index probes (set-up included). */
struct RunCounts
{
    std::uint64_t allocs = 0;
    RunPerf perf;
    std::size_t placedFiles = 0;
    std::uint64_t heapCompares = 0;
    std::uint64_t cacheProbes = 0;
};

RunCounts
counts(Simulation &sim, std::uint64_t allocs, const SimResults &r)
{
    return {allocs, r.perf, sim.fs().placedFiles(),
            sim.events().comparisons(),
            sim.kernel().cache().probeVisits()};
}

RunCounts
countRun(Simulation &sim)
{
    gAllocs = 0;
    gCounting = true;
    const SimResults r = sim.run();
    gCounting = false;
    EXPECT_TRUE(r.completed);
    return counts(sim, gAllocs, r);
}

/** ext_scale's 256 x 512 machine under @p scheme, run to 10 s; with
 *  @p groups, its SPUs are leaves under that many groups. */
RunCounts
scale512Run(Scheme scheme, int groups = 0)
{
    const auto sim =
        bench::makeScalePoint(256, 512, scheme, 10 * kSec, groups);
    return counts(*sim, 0, sim->run());
}

/** The Table 3 machine (as in test_golden) under the PIso disk
 *  policy: pmake against a 20 MB copy on one shared disk. */
RunCounts
table3PisoRun()
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 44 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = Scheme::PIso;
    cfg.diskPolicy = DiskPolicy::FairPosition;
    cfg.diskParams.seekScale = 0.5;
    cfg.bwThresholdSectors = 1024.0;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId pmk = sim.addSpu({.name = "pmk", .homeDisk = 0});
    const SpuId cpy = sim.addSpu({.name = "cpy", .homeDisk = 0});
    PmakeConfig pm;
    pm.parallelism = 2;
    pm.filesPerWorker = 40;
    pm.compileCpu = 25 * kMs;
    pm.workerWsPages = 200;
    sim.addJob(pmk, makePmake("pmake", pm));
    FileCopyConfig cc;
    cc.bytes = 20 * kMiB;
    sim.addJob(cpy, makeFileCopy("copy", cc));
    return countRun(sim);
}

/** The Figure 2 machine under @p scheme: Pmake8, unbalanced. */
RunCounts
fig2Run(Scheme scheme)
{
    Simulation sim(bench::pmake8Config(scheme, 1));
    bench::populatePmake8(sim, /*unbalanced=*/true);
    return countRun(sim);
}

RunCounts
fig2PisoRun()
{
    return fig2Run(Scheme::PIso);
}

/** The fault_sweep benchmark's plan at seed 1 (bench/ext_warm_start's
 *  shape): Ocean plus two hogs, eight disk-slowdown scenarios that
 *  diverge at 4 s, so all eight fork from one template. */
exp::ExperimentPlan
faultSweepPlan()
{
    exp::ExperimentPlan plan;
    plan.base = parseWorkloadSpec(
        "machine cpus=4 memory_mb=32 disks=2 scheme=piso seed=1\n"
        "spu ocean share=1 disk=0\n"
        "spu eng share=1 disk=1\n"
        "job ocean ocean name=sim procs=2 iters=60 grain_ms=20 "
        "ws_pages=400\n"
        "job eng compute name=hog1 cpu_ms=5000 ws_pages=300\n"
        "job eng compute name=hog2 cpu_ms=5000 ws_pages=300\n");
    plan.axes.push_back(exp::parseGridAxis(
        "fault_disk_slow=none,4:0.5:0:2,4:0.5:0:4,4:0.5:0:8,"
        "4:0.5:1:4,4:1:0:4,4:1:1:8,4.2:0.5:0:4"));
    return plan;
}

} // namespace

TEST(AllocCeiling, Table3PisoRun)
{
#ifdef PISO_SANITIZED
    GTEST_SKIP() << "sanitizer builds replace the allocator";
#endif
    // 1,057 when set; 2,842 while the CPU ready queues were node
    // containers and the memory policy copied the SPU ids per pass
    // (28,125 before the I/O path lost its closures).
    const std::uint64_t n = table3PisoRun().allocs;
    RecordProperty("allocs", static_cast<int>(n));
    EXPECT_LE(n, 1320u) << "operator new calls in run()";
}

TEST(AllocCeiling, Fig2PisoRun)
{
#ifdef PISO_SANITIZED
    GTEST_SKIP() << "sanitizer builds replace the allocator";
#endif
    // 1,173 when set; 3,396 with node-based ready queues (10,598
    // before the I/O path lost its closures).
    const std::uint64_t n = fig2PisoRun().allocs;
    RecordProperty("allocs", static_cast<int>(n));
    EXPECT_LE(n, 1470u) << "operator new calls in run()";
}

TEST(AllocCeiling, Fig2SmpRun)
{
#ifdef PISO_SANITIZED
    GTEST_SKIP() << "sanitizer builds replace the allocator";
#endif
    // SMP's one global ready queue: 905 when set, 2,685 while it was
    // a std::list.
    const std::uint64_t n = fig2Run(Scheme::Smp).allocs;
    RecordProperty("allocs", static_cast<int>(n));
    EXPECT_LE(n, 1130u) << "operator new calls in run()";
}

TEST(WorkCounters, Table3PisoRun)
{
    const RunCounts run = table3PisoRun();
    const RunPerf &perf = run.perf;
    EXPECT_EQ(perf.events, 6685u);
    EXPECT_EQ(perf.policyItersCpu, 845u);
    EXPECT_EQ(perf.policyItersMem, 314u);
    EXPECT_EQ(perf.policyItersDisk, 14680u);
    EXPECT_EQ(run.placedFiles, 163u);  // every file: both jobs finish
    EXPECT_EQ(run.heapCompares, 51175u);
    // 71,799 before the lookaside: most lookups name the 16-block run
    // the previous one reached, and a hit probes nothing.
    EXPECT_EQ(run.cacheProbes, 8191u);
}

TEST(WorkCounters, Fig2PisoRun)
{
    const RunCounts run = fig2PisoRun();
    const RunPerf &perf = run.perf;
    EXPECT_EQ(perf.events, 10352u);
    EXPECT_EQ(perf.policyItersCpu, 5109u);
    EXPECT_EQ(perf.policyItersMem, 440u);
    EXPECT_EQ(perf.policyItersDisk, 1287u);
    EXPECT_EQ(run.placedFiles, 400u);
    EXPECT_EQ(run.heapCompares, 93718u);
    EXPECT_EQ(run.cacheProbes, 3236u); // 6,193 before the lookaside
}

TEST(WorkCounters, Scale512QuotaRun)
{
    // The active pmakes outlast the horizon on purpose, so only the
    // files they reached (up to the end of each batch) are placed:
    // 1,048 of 262,168.
    const RunCounts run = scale512Run(Scheme::Quota);
    const RunPerf &perf = run.perf;
    EXPECT_EQ(perf.events, 21597u);
    // 9,352 before the tick's idle pass counted the SPUs it visits.
    EXPECT_EQ(perf.policyItersCpu, 13290u);
    EXPECT_EQ(perf.policyItersMem, 0u);
    EXPECT_EQ(perf.policyItersDisk, 3797u);
    EXPECT_EQ(perf.policyItersNet, 0u);
    EXPECT_EQ(run.placedFiles, 1048u);
    EXPECT_EQ(run.heapCompares, 440178u);
    EXPECT_EQ(run.cacheProbes, 4450u); // 6,353 before the lookaside
}

TEST(WorkCounters, Scale512PisoRun)
{
    // 3,088 of 262,160 files placed. The memory policy visits all 512
    // leaves in its one full pass (the divisible pages never move) and
    // the 8 that hold pages in each of the other 84 (43,520 when every
    // pass visited every leaf).
    const RunCounts run = scale512Run(Scheme::PIso);
    const RunPerf &perf = run.perf;
    EXPECT_EQ(perf.events, 35113u);
    EXPECT_EQ(perf.policyItersCpu, 8832u);
    EXPECT_EQ(perf.policyItersMem, 1184u);
    EXPECT_EQ(perf.policyItersDisk, 39256u);
    EXPECT_EQ(perf.policyItersNet, 0u);
    EXPECT_EQ(run.placedFiles, 3088u);
    EXPECT_EQ(run.heapCompares, 743943u);
    EXPECT_EQ(run.cacheProbes, 23829u); // 45,826 before the lookaside
}

TEST(WorkCounters, Scale512TreePisoRun)
{
    // The same machine as a tree, 512 leaves under 32 groups: PIso's
    // CPU loans pick by kinship over the SPUs with waiting work, and
    // the memory policy entitles leaves level by level.
    // Each of the eight busy leaves has a group to itself, so the run
    // does what the flat one does, count for count.
    const RunCounts run = scale512Run(Scheme::PIso, 32);
    const RunPerf &perf = run.perf;
    EXPECT_EQ(perf.events, 35113u);
    EXPECT_EQ(perf.policyItersCpu, 8832u);
    EXPECT_EQ(perf.policyItersMem, 1184u);
    EXPECT_EQ(perf.policyItersDisk, 39256u);
    EXPECT_EQ(perf.policyItersNet, 0u);
    EXPECT_EQ(run.placedFiles, 3088u);
    EXPECT_EQ(run.heapCompares, 743943u);
    EXPECT_EQ(run.cacheProbes, 23829u); // 45,826 before the lookaside
}

TEST(AllocCeiling, FaultSweepWarmPlan)
{
#ifdef PISO_SANITIZED
    GTEST_SKIP() << "sanitizer builds replace the allocator";
#endif
    const exp::ExperimentPlan plan = faultSweepPlan();
    gAllocs = 0;
    gCounting = true;
    const exp::SweepOutcome outcome =
        exp::runPlan(plan, {.jobs = 1, .warmStart = true});
    gCounting = false;
    const std::uint64_t n = gAllocs;
    EXPECT_EQ(outcome.failures(), 0u);
    RecordProperty("allocs", static_cast<int>(n));
    // 1,846 when set (4,645 with node-based ready queues). Set 4%
    // above the count rather than 25%: building and populating a
    // Simulation per task only to read its config digest cost 431
    // calls more when it was measured, and a 25% margin would let
    // that regression through.
    EXPECT_LE(n, 1920u) << "operator new calls in runPlan()";
}
