/**
 * @file
 * Golden-file regression fixtures for the paper's figure/table
 * workloads (Section 4). Each fixture runs one seed of a figure
 * workload under one uniform scheme and byte-compares the JSON
 * results against tests/golden/<fixture>.json.
 *
 * The goldens pin the *numbers*, not just the shapes the bench
 * programs assert, so an accidental behaviour change anywhere in the
 * sim core (scheduler tie-break, RNG draw order, disk model rounding)
 * is caught at ctest time instead of surfacing as a silently shifted
 * figure.
 *
 * Every fixture is also replayed through the checkpoint layer by the
 * boundary battery: the run is checkpointed at nine event boundaries
 * spread over it (the first one at t ~= 0), and each image is
 * restored onto a fresh, identically populated Simulation and run to
 * completion — which must reproduce the golden bytes exactly
 * (docs/checkpoint.md). Any event boundary admits an image, I/O in
 * flight included, and the battery checks that its boundaries really
 * caught disk requests in service and queued, flushing blocks,
 * blocks with waiters, throttled writers and (on a faulty disk) an
 * operation waiting out its retry backoff. That pins serialisation
 * coverage to the same fixtures that pin the numbers: a subsystem
 * whose state is dropped by the image shows up as a golden mismatch.
 *
 * To regenerate after an intentional change:
 *     PISO_UPDATE_GOLDEN=1 ctest -R test_golden
 * then review the diff like any other source change.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/pmake8.hh"
#include "src/metrics/report.hh"
#include "src/piso.hh"

using namespace piso;

namespace {

#ifndef PISO_GOLDEN_DIR
#error "PISO_GOLDEN_DIR must point at tests/golden"
#endif

constexpr std::uint64_t kGoldenSeed = 1;

/** One figure/table machine: the config plus the setup calls, kept
 *  separate so the restore path can replay the setup on a second
 *  Simulation before rebinding the checkpointed state onto it. */
struct Fixture
{
    SystemConfig cfg;
    std::function<void(Simulation &)> populate;
};

/** Figure 2 machine: Pmake8, unbalanced (SPUs 5-8 run two jobs). */
Fixture
fig2(Scheme scheme)
{
    return {bench::pmake8Config(scheme, kGoldenSeed),
            [](Simulation &sim) {
                bench::populatePmake8(sim, /*unbalanced=*/true);
            }};
}

/** Figure 5 machine: Ocean vs six engineering hogs (CPU dimension). */
Fixture
fig5(Scheme scheme)
{
    SystemConfig cfg;
    cfg.cpus = 8;
    cfg.memoryBytes = 64 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = scheme;
    cfg.seed = kGoldenSeed;

    return {cfg, [](Simulation &sim) {
                const SpuId spu1 =
                    sim.addSpu({.name = "ocean", .homeDisk = 0});
                const SpuId spu2 =
                    sim.addSpu({.name = "eng", .homeDisk = 1});

                OceanConfig ocean;
                ocean.processes = 4;
                ocean.iterations = 80;
                ocean.grain = 100 * kMs;
                ocean.wsPagesPerProc = 700;
                sim.addJob(spu1, makeOcean("Ocean", ocean));

                for (int i = 0; i < 3; ++i) {
                    sim.addJob(spu2,
                               makeFlashlite("Flashlite" +
                                                 std::to_string(i),
                                             12 * kSec, 500));
                    sim.addJob(spu2,
                               makeVcs("VCS" + std::to_string(i),
                                       14 * kSec, 700));
                }
            }};
}

/** Figure 7 machine: two pmakes on a small machine, unbalanced. */
Fixture
fig7(Scheme scheme)
{
    SystemConfig cfg;
    cfg.cpus = 4;
    cfg.memoryBytes = 16 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = scheme;
    cfg.seed = kGoldenSeed;

    return {cfg, [](Simulation &sim) {
                const SpuId spu1 =
                    sim.addSpu({.name = "user1", .homeDisk = 0});
                const SpuId spu2 =
                    sim.addSpu({.name = "user2", .homeDisk = 1});

                PmakeConfig pmake;
                pmake.parallelism = 4;
                pmake.filesPerWorker = 5;
                pmake.compileCpu = 240 * kMs;
                pmake.workerWsPages = 340;
                pmake.touchInterval = 10 * kMs;
                pmake.inodeLock = sim.kernel().createLock(true);

                sim.addJob(spu1, makePmake("pm-u1-j0", pmake));
                sim.addJob(spu2, makePmake("pm-u2-j0", pmake));
                sim.addJob(spu2, makePmake("pm-u2-j1", pmake));
            }};
}

/** Table 3 machine: pmake vs 20 MB copy on one shared disk. The
 *  scheme is fixed (PIso) and the disk policy varies per fixture, so
 *  "smp"/"quota"/"piso" map onto Pos/Iso/PIso here. */
Fixture
table3(DiskPolicy policy)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 44 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = Scheme::PIso;
    cfg.diskPolicy = policy;
    cfg.diskParams.seekScale = 0.5;
    cfg.bwThresholdSectors = 1024.0;
    cfg.seed = kGoldenSeed;

    return {cfg, [](Simulation &sim) {
                const SpuId pmk =
                    sim.addSpu({.name = "pmk", .homeDisk = 0});
                const SpuId cpy =
                    sim.addSpu({.name = "cpy", .homeDisk = 0});

                PmakeConfig pm;
                pm.parallelism = 2;
                pm.filesPerWorker = 40;
                pm.compileCpu = 25 * kMs;
                pm.workerWsPages = 200;
                sim.addJob(pmk, makePmake("pmake", pm));

                FileCopyConfig cc;
                cc.bytes = 20 * kMiB;
                sim.addJob(cpy, makeFileCopy("copy", cc));
            }};
}

SimResults
runCold(const Fixture &fx)
{
    Simulation sim(fx.cfg);
    fx.populate(sim);
    return sim.run();
}

std::string
goldenPath(const std::string &fixture)
{
    return std::string(PISO_GOLDEN_DIR) + "/" + fixture + ".json";
}

void
checkGolden(const std::string &fixture, const Fixture &fx)
{
    const std::string current = formatResultsJson(runCold(fx));
    const std::string path = goldenPath(fixture);

    if (std::getenv("PISO_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << current;
        GTEST_SKIP() << "regenerated " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden " << path
        << " — regenerate with PISO_UPDATE_GOLDEN=1";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), current)
        << "results drifted from " << path
        << "; if the change is intentional, regenerate with "
           "PISO_UPDATE_GOLDEN=1 and review the diff";
}

/** Boundaries at which the battery saw each in-flight state. */
struct InFlight
{
    int inService = 0;    //!< a disk request in service
    int queued = 0;       //!< a disk request queued behind it
    int retryBackoff = 0; //!< an op waiting out its retry backoff
    int flushing = 0;     //!< a cache block being written
    int waiters = 0;      //!< a cache block with processes waiting
    int throttled = 0;    //!< a writer parked on the flush backlog
};

/** Note which in-flight states @p sim holds at its boundary. */
void
noteInFlight(Simulation &sim, InFlight &seen)
{
    Kernel &k = sim.kernel();
    bool inService = false;
    bool queued = false;
    for (std::size_t d = 0; d < k.diskCount(); ++d) {
        inService |= k.disk(static_cast<DiskId>(d)).busy();
        queued |= k.disk(static_cast<DiskId>(d)).queueDepth() > 0;
    }
    bool retry = false;
    sim.events().forEachPending([&retry](EventId, Time, std::uint64_t,
                                         EvKind kind, const EventArg &) {
        retry |= kind == EvKind::IoRetry;
    });
    bool flushing = false;
    bool waiters = false;
    k.cache().forEachBlock([&](const CacheBlock &b) {
        flushing |= b.flushing;
        waiters |= k.cache().hasWaiters(b);
    });
    // The write throttle is the one place a process blocks with an
    // action still to run.
    bool throttled = false;
    for (Pid pid = 1; Process *p = k.process(pid); ++pid)
        throttled |= p->state() == ProcState::Blocked &&
                     p->pendingAction.has_value();
    seen.inService += inService;
    seen.queued += queued;
    seen.retryBackoff += retry;
    seen.flushing += flushing;
    seen.waiters += waiters;
    seen.throttled += throttled;
}

/** Checkpoint @p fx at the first boundary at or after @p at, noting
 *  what is in flight there; replay the setup on a fresh Simulation,
 *  restore the image onto it, and run that instance to completion.
 *  @p events gets the events both runs executed. */
SimResults
runRestored(const Fixture &fx, Time at, InFlight &seen,
            std::uint64_t &events)
{
    std::string image;
    Simulation *live = nullptr;
    SystemConfig ckpt = fx.cfg;
    ckpt.checkpointAt = at;
    ckpt.checkpointStop = true;
    ckpt.checkpointSink = [&](std::string img) {
        image = std::move(img);
        noteInFlight(*live, seen);
    };
    {
        Simulation sim(ckpt);
        live = &sim;
        fx.populate(sim);
        events = sim.run().perf.events;
    }

    Simulation sim(fx.cfg);
    fx.populate(sim);
    sim.restore(image);
    SimResults res = sim.run();
    events += res.perf.events;
    return res;
}

/** Restore @p fx from nine boundaries spread over its run; each
 *  continuation must reproduce the @p cold run's JSON, and with the
 *  prefix execute exactly its events (a watchdog the restore failed
 *  to re-link would fire as an extra, stale event). */
void
checkBoundaries(const std::string &name, const Fixture &fx,
                const SimResults &cold, InFlight &seen)
{
    const std::string want = formatResultsJson(cold);
    for (Time k = 0; k < 9; ++k) {
        const Time at = std::max<Time>(1, cold.simulatedTime / 9 * k);
        std::uint64_t events = 0;
        EXPECT_EQ(formatResultsJson(runRestored(fx, at, seen, events)),
                  want)
            << "checkpoint/restore replay of " << name << " at t=" << at
            << " diverged from the cold run — some subsystem's state "
               "is not round-tripping through the image "
               "(docs/checkpoint.md)";
        EXPECT_EQ(events, cold.perf.events) << name << " at t=" << at;
    }
}

} // namespace

// One fixture per (workload, scheme): 12 golden files, each checked
// cold here and through the boundary battery below.

TEST(Golden, Fig2Smp) { checkGolden("fig2_smp", fig2(Scheme::Smp)); }
TEST(Golden, Fig2Quota)
{
    checkGolden("fig2_quota", fig2(Scheme::Quota));
}
TEST(Golden, Fig2PIso)
{
    checkGolden("fig2_piso", fig2(Scheme::PIso));
}

TEST(Golden, Fig5Smp) { checkGolden("fig5_smp", fig5(Scheme::Smp)); }
TEST(Golden, Fig5Quota)
{
    checkGolden("fig5_quota", fig5(Scheme::Quota));
}
TEST(Golden, Fig5PIso)
{
    checkGolden("fig5_piso", fig5(Scheme::PIso));
}

TEST(Golden, Fig7Smp) { checkGolden("fig7_smp", fig7(Scheme::Smp)); }
TEST(Golden, Fig7Quota)
{
    checkGolden("fig7_quota", fig7(Scheme::Quota));
}
TEST(Golden, Fig7PIso)
{
    checkGolden("fig7_piso", fig7(Scheme::PIso));
}

TEST(Golden, Table3Pos)
{
    checkGolden("table3_pos", table3(DiskPolicy::HeadPosition));
}
TEST(Golden, Table3Iso)
{
    checkGolden("table3_iso", table3(DiskPolicy::BlindFair));
}
TEST(Golden, Table3PIso)
{
    checkGolden("table3_piso", table3(DiskPolicy::FairPosition));
}

TEST(Golden, EveryBoundaryRestoresToTheGolden)
{
    const std::pair<const char *, Fixture> fixtures[] = {
        {"fig2_smp", fig2(Scheme::Smp)},
        {"fig2_quota", fig2(Scheme::Quota)},
        {"fig2_piso", fig2(Scheme::PIso)},
        {"fig5_smp", fig5(Scheme::Smp)},
        {"fig5_quota", fig5(Scheme::Quota)},
        {"fig5_piso", fig5(Scheme::PIso)},
        {"fig7_smp", fig7(Scheme::Smp)},
        {"fig7_quota", fig7(Scheme::Quota)},
        {"fig7_piso", fig7(Scheme::PIso)},
        {"table3_pos", table3(DiskPolicy::HeadPosition)},
        {"table3_iso", table3(DiskPolicy::BlindFair)},
        {"table3_piso", table3(DiskPolicy::FairPosition)},
    };
    InFlight seen;
    for (const auto &[name, fx] : fixtures) {
        const SimResults cold = runCold(fx);
        std::ifstream in(goldenPath(name));
        std::ostringstream golden;
        golden << in.rdbuf();
        ASSERT_EQ(golden.str(), formatResultsJson(cold)) << name;
        checkBoundaries(name, fx, cold, seen);
    }

    // No golden fixture has a faulty disk; Table 3's Iso machine with
    // transient media errors all run long has operations backing off
    // to retry.
    Fixture faulty = table3(DiskPolicy::BlindFair);
    faulty.cfg.faults.diskError(kMs, 0, 0, 0.2);
    checkBoundaries("table3_iso with disk errors", faulty, runCold(faulty),
                    seen);

    EXPECT_GT(seen.inService, 0) << "no disk request in service imaged";
    EXPECT_GT(seen.queued, 0) << "no queued disk request imaged";
    EXPECT_GT(seen.retryBackoff, 0) << "no retry backoff imaged";
    EXPECT_GT(seen.flushing, 0) << "no flushing cache block imaged";
    EXPECT_GT(seen.waiters, 0) << "no cache block with waiters imaged";
    EXPECT_GT(seen.throttled, 0) << "no throttled writer imaged";
    std::printf("boundary battery in flight: in service %d, queued %d, "
                "retry backoff %d, flushing %d, waiters %d, "
                "throttled %d\n",
                seen.inService, seen.queued, seen.retryBackoff,
                seen.flushing, seen.waiters, seen.throttled);
}
