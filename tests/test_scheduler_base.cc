/**
 * @file
 * Unit tests for CpuScheduler base mechanics shared by all policies:
 * priority decay, slices, accounting, and time-partition ownership.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/os/sched_smp.hh"
#include "tests/sched_test_util.hh"

using namespace piso;
using piso::test::FakeClient;

TEST(SchedulerBase, RecentCpuGrowsWhileRunning)
{
    EventQueue events;
    SmpScheduler sched(events, 1);
    FakeClient client(events, sched);
    sched.start();
    Process *p = client.createProcess(2, 10 * kSec);
    client.startProcess(p);
    events.runAll(500 * kMs);
    // ~50 ticks x 10 ms = 0.5 s of charged usage (minus decay at 1 s
    // boundaries, not yet reached).
    EXPECT_NEAR(p->recentCpu(), 0.5, 0.05);
}

TEST(SchedulerBase, RecentCpuDecaysByHalfEverySecond)
{
    EventQueue events;
    SmpScheduler sched(events, 2); // second CPU: nothing else runs
    FakeClient client(events, sched);
    sched.start();
    Process *busy = client.createProcess(2, 800 * kMs);
    client.startProcess(busy);
    events.runAll(2 * kSec);
    // busy exited at 0.8 s with recentCpu ~0.8; it no longer decays
    // after exit (removed from the registry), so instead watch a
    // process that stays alive:
    Process *idleish = client.createProcess(2, 5 * kSec);
    client.startProcess(idleish);
    events.runAll(3 * kSec);
    const double before = idleish->recentCpu();
    events.runAll(4 * kSec);
    // Ran one more second (+1.0) but decayed by half once: the value
    // stays bounded rather than growing linearly.
    EXPECT_LT(idleish->recentCpu(), before + 1.0);
}

TEST(SchedulerBase, EpochDecayFoldEqualsEagerSweepExactly)
{
    // The scheduler halves recent usage once per decay period by
    // bumping an epoch each process folds in on its next read. The
    // eager sweep it replaced multiplied every live process by 0.5 at
    // the period boundary. Over random interleavings of tick charges,
    // idle periods, reads at any point and exits, every value must be
    // bit-identical to the sweep's: 0 ulp.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Rng rng(seed);
        std::uint32_t epoch = 0;
        constexpr int kProcs = 6;
        std::vector<std::unique_ptr<Process>> lazy;
        std::vector<double> eager(kProcs, 0.0);
        std::vector<bool> live(kProcs, true);
        for (int i = 0; i < kProcs; ++i) {
            lazy.push_back(std::make_unique<Process>(
                i + 1, 2, kNoJob, "p",
                std::make_unique<ScriptBehavior>(std::vector<Action>{}),
                Rng(seed)));
            lazy.back()->bindDecayEpoch(&epoch);
        }
        for (int step = 0; step < 3000; ++step) {
            const auto i = static_cast<std::size_t>(rng.uniformInt(kProcs));
            const std::size_t roll = rng.uniformInt(100);
            if (roll < 55) {
                // One tick's charge (several ticks in a row run the
                // same process; idle stretches charge no one).
                if (!live[i])
                    continue;
                const double tick = 0.01 * (1 + rng.uniformInt(3));
                lazy[i]->chargeCpu(tick);
                eager[i] += tick;
            } else if (roll < 75) {
                ++epoch;
                for (int k = 0; k < kProcs; ++k) {
                    if (live[static_cast<std::size_t>(k)])
                        eager[static_cast<std::size_t>(k)] *= 0.5;
                }
            } else if (roll < 98) {
                ASSERT_EQ(lazy[i]->recentCpu(), eager[i])
                    << "seed " << seed << " step " << step << " pid "
                    << i + 1;
            } else if (live[i] && rng.chance(0.03)) {
                // processExited: settle, then leave the registry.
                lazy[i]->foldDecay();
                lazy[i]->bindDecayEpoch(nullptr);
                live[i] = false;
            }
        }
        for (std::size_t i = 0; i < kProcs; ++i)
            EXPECT_EQ(lazy[i]->recentCpu(), eager[i]) << "seed " << seed;
    }
}

TEST(SchedulerBase, BlockedProcessGainsPriority)
{
    // A process that blocked for a while has lower recentCpu than the
    // hog that kept running, so it wins the next dispatch.
    EventQueue events;
    SmpScheduler sched(events, 1);
    FakeClient client(events, sched);
    sched.start();
    Process *hogA = client.createProcess(2, 10 * kSec, "hogA");
    Process *hogB = client.createProcess(2, 10 * kSec, "hogB");
    client.startProcess(hogA);
    client.startProcess(hogB);
    events.runAll(2 * kSec);
    // Both alternate; their usage stays within one slice of each
    // other thanks to the shared queue and decay.
    const double diff = std::abs(hogA->recentCpu() - hogB->recentCpu());
    EXPECT_LT(diff, 0.1);
}

TEST(SchedulerBase, SliceExpiryRotatesEqualProcesses)
{
    EventQueue events;
    SmpScheduler sched(events, 1);
    FakeClient client(events, sched);
    sched.start();
    Process *a = client.createProcess(2, kSec, "a");
    Process *b = client.createProcess(2, kSec, "b");
    client.startProcess(a);
    client.startProcess(b);
    // After 100 ms, both have run: neither waits longer than ~2
    // slices at a stretch.
    events.runAll(100 * kMs);
    EXPECT_GT(a->cpuTime + (a->state() == ProcState::Running
                                ? events.now() - a->segmentStart
                                : 0),
              20 * kMs);
    EXPECT_GT(b->cpuTime + (b->state() == ProcState::Running
                                ? events.now() - b->segmentStart
                                : 0),
              20 * kMs);
}

TEST(SchedulerBase, SpuCpuTimeIncludesInFlightSegment)
{
    EventQueue events;
    SmpScheduler sched(events, 1);
    FakeClient client(events, sched);
    sched.start();
    Process *p = client.createProcess(7, 10 * kSec);
    client.startProcess(p);
    events.runAll(55 * kMs);
    // Mid-segment: accounting must still see the elapsed portion.
    EXPECT_GE(sched.spuCpuTime(7), 50 * kMs);
}

TEST(SchedulerBase, IdleTimeTracksUnusedCpus)
{
    EventQueue events;
    SmpScheduler sched(events, 2);
    FakeClient client(events, sched);
    sched.start();
    Process *p = client.createProcess(2, 100 * kMs);
    client.startProcess(p);
    client.runToCompletion();
    // One CPU busy 100 ms, the other idle the whole run: idle ~= one
    // full run plus the tail of the busy CPU.
    EXPECT_GE(sched.totalIdleTime(), 100 * kMs);
}

TEST(SchedulerBase, InvalidTransitionsPanic)
{
    EventQueue events;
    SmpScheduler sched(events, 1);
    FakeClient client(events, sched);
    sched.start();
    Process *p = client.createProcess(2, kSec);
    client.startProcess(p);
    EXPECT_DEATH(sched.processReady(p), "processReady on");
    Process *q = client.createProcess(2, kSec);
    EXPECT_DEATH(sched.processBlocked(q), "processBlocked on");
}

TEST(SchedulerBase, TimeShareOwnershipRotates)
{
    EventQueue events;
    SmpScheduler sched(events, 1);
    FakeClient client(events, sched);
    sched.partitionCpus({{2, 0.5}, {3, 0.5}});
    // currentOwner is protected; observe rotation through behaviour:
    // the share period is 100 ms, so over any 200 ms window each SPU
    // owns the CPU about half the time. (Covered functionally in
    // test_sched_quota's FractionalShareTimeMultiplexes; here we only
    // confirm the partition populated the share table.)
    EXPECT_FALSE(sched.cpu(0).timeShares.empty());
    double total = 0.0;
    for (const auto &[spu, frac] : sched.cpu(0).timeShares)
        total += frac;
    EXPECT_NEAR(total, 1.0, 1e-9);
}
