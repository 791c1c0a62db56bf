/**
 * @file
 * Work-counter gates for the Table 3 and Figure 2 PIso points: the
 * number of operator new calls made inside Simulation::run(), the
 * events it executes and its policy-loop iterations. One more gate
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
 * fast it does it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "bench/pmake8.hh"
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

/** What one sim.run() did: operator new calls and the run's perf
 *  counters. */
struct RunCounts
{
    std::uint64_t allocs = 0;
    RunPerf perf;
};

RunCounts
countRun(Simulation &sim)
{
    gAllocs = 0;
    gCounting = true;
    const SimResults r = sim.run();
    gCounting = false;
    EXPECT_TRUE(r.completed);
    return {gAllocs, r.perf};
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

/** The Figure 2 machine under PIso: Pmake8, unbalanced. */
RunCounts
fig2PisoRun()
{
    Simulation sim(bench::pmake8Config(Scheme::PIso, 1));
    bench::populatePmake8(sim, /*unbalanced=*/true);
    return countRun(sim);
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
    // 3,361 when set (28,125 before the I/O path lost its closures).
    const std::uint64_t n = table3PisoRun().allocs;
    RecordProperty("allocs", static_cast<int>(n));
    EXPECT_LE(n, 4200u) << "operator new calls in run()";
}

TEST(AllocCeiling, Fig2PisoRun)
{
#ifdef PISO_SANITIZED
    GTEST_SKIP() << "sanitizer builds replace the allocator";
#endif
    // 3,754 when set (10,598 before).
    const std::uint64_t n = fig2PisoRun().allocs;
    RecordProperty("allocs", static_cast<int>(n));
    EXPECT_LE(n, 4700u) << "operator new calls in run()";
}

TEST(WorkCounters, Table3PisoRun)
{
    const RunPerf perf = table3PisoRun().perf;
    EXPECT_EQ(perf.events, 6685u);
    EXPECT_EQ(perf.policyItersCpu, 845u);
    EXPECT_EQ(perf.policyItersMem, 314u);
    EXPECT_EQ(perf.policyItersDisk, 14680u);
}

TEST(WorkCounters, Fig2PisoRun)
{
    const RunPerf perf = fig2PisoRun().perf;
    EXPECT_EQ(perf.events, 10352u);
    EXPECT_EQ(perf.policyItersCpu, 5109u);
    EXPECT_EQ(perf.policyItersMem, 440u);
    EXPECT_EQ(perf.policyItersDisk, 1287u);
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
    // 4,809 when set; 5,361 while every task built and populated a
    // Simulation only to read its config digest, and 5,240 with that
    // key put back today. The ceiling sits between the two rather than
    // 25% above: a margin that wide would let the whole regression
    // through.
    EXPECT_LE(n, 5000u) << "operator new calls in runPlan()";
}
