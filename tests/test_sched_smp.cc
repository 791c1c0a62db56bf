/**
 * @file
 * Unit tests for the baseline SMP (global-queue) scheduler.
 */

#include <gtest/gtest.h>

#include "src/os/sched_smp.hh"
#include "tests/sched_test_util.hh"
#include "tests/fn_sink.hh"

using namespace piso;
using piso::test::FakeClient;

namespace {

struct SmpFixture : public ::testing::Test
{
    EventQueue events;
    SmpScheduler sched{events, 2};
    FakeClient client{events, sched};
    test::FnSink sink{events};
};

} // namespace

TEST_F(SmpFixture, ReadyProcessDispatchesImmediately)
{
    sched.start();
    Process *p = client.createProcess(2, 100 * kMs);
    client.startProcess(p);
    EXPECT_EQ(p->state(), ProcState::Running);
    EXPECT_NE(p->runningOn, kNoCpu);
}

TEST_F(SmpFixture, TwoProcessesUseTwoCpus)
{
    sched.start();
    Process *a = client.createProcess(2, 100 * kMs);
    Process *b = client.createProcess(3, 100 * kMs);
    client.startProcess(a);
    client.startProcess(b);
    EXPECT_EQ(a->state(), ProcState::Running);
    EXPECT_EQ(b->state(), ProcState::Running);
    EXPECT_NE(a->runningOn, b->runningOn);
}

TEST_F(SmpFixture, ThirdProcessQueues)
{
    sched.start();
    for (int i = 0; i < 3; ++i)
        client.startProcess(client.createProcess(2, 100 * kMs));
    EXPECT_EQ(sched.readyCount(), 1u);
}

TEST_F(SmpFixture, CompletionRunsQueuedProcess)
{
    sched.start();
    Process *a = client.createProcess(2, 50 * kMs);
    Process *b = client.createProcess(2, 50 * kMs);
    Process *c = client.createProcess(2, 50 * kMs);
    for (Process *p : {a, b, c})
        client.startProcess(p);
    client.runToCompletion();
    EXPECT_EQ(c->state(), ProcState::Exited);
    // Two CPUs, 150 ms of work: perfect packing finishes at 75 ms,
    // strict FIFO at 100 ms; slice round-robin lands in between.
    EXPECT_GE(toMillis(events.now()), 74.0);
    EXPECT_LE(toMillis(events.now()), 101.0);
}

TEST_F(SmpFixture, EqualProcessesShareFairly)
{
    // Four identical CPU hogs on two CPUs: round-robin through slices
    // should give each about the same CPU time at any checkpoint.
    sched.start();
    std::vector<Process *> procs;
    for (int i = 0; i < 4; ++i) {
        procs.push_back(client.createProcess(2, 2 * kSec));
        client.startProcess(procs.back());
    }
    events.runAll(kSec); // run 1 simulated second
    Time minT = kTimeNever, maxT = 0;
    for (Process *p : procs) {
        Time t = p->cpuTime;
        if (p->state() == ProcState::Running)
            t += events.now() - p->segmentStart;
        minT = std::min(minT, t);
        maxT = std::max(maxT, t);
    }
    // Within 100 ms of each other after a second of competition.
    EXPECT_LT(toMillis(maxT - minT), 100.0);
}

TEST_F(SmpFixture, NoIsolationBetweenSpus)
{
    // The defining SMP property: SPU 3's extra load slows SPU 2.
    sched.start();
    Process *light = client.createProcess(2, 500 * kMs);
    client.startProcess(light);
    for (int i = 0; i < 5; ++i)
        client.startProcess(client.createProcess(3, 2 * kSec));
    client.runToCompletion();
    // With 6 equal processes on 2 CPUs, the light job takes ~3x its
    // solo time (500 ms work at 1/3 CPU rate).
    EXPECT_GT(light->endTime - light->startTime, 1200 * kMs);
}

TEST_F(SmpFixture, CpuTimeConservation)
{
    sched.start();
    std::vector<Process *> procs;
    for (int i = 0; i < 3; ++i) {
        procs.push_back(
            client.createProcess(2 + i, 300 * kMs));
        client.startProcess(procs.back());
    }
    client.runToCompletion();
    Time total = 0;
    for (Process *p : procs)
        total += p->cpuTime;
    EXPECT_NEAR(toMillis(total), 900.0, 1.0);
    // Busy+idle must cover the whole run on both CPUs.
    const Time busyPlusIdle =
        sched.totalIdleTime() + total;
    EXPECT_NEAR(toMillis(busyPlusIdle), toMillis(2 * events.now()), 1.0);
}

TEST_F(SmpFixture, SpuCpuTimeAccounting)
{
    sched.start();
    Process *a = client.createProcess(2, 200 * kMs);
    Process *b = client.createProcess(3, 400 * kMs);
    client.startProcess(a);
    client.startProcess(b);
    client.runToCompletion();
    EXPECT_NEAR(toMillis(sched.spuCpuTime(2)), 200.0, 1.0);
    EXPECT_NEAR(toMillis(sched.spuCpuTime(3)), 400.0, 1.0);
}

TEST_F(SmpFixture, DelayedStartDispatches)
{
    sched.start();
    Process *p = client.createProcess(2, 100 * kMs);
    sink.schedule(250 * kMs, [&] { client.startProcess(p); });
    client.runToCompletion();
    EXPECT_EQ(p->state(), ProcState::Exited);
    EXPECT_NEAR(toMillis(p->endTime), 350.0, 1.0);
}

TEST(SmpScheduler, SingleCpuSerializes)
{
    EventQueue events;
    SmpScheduler sched(events, 1);
    FakeClient client(events, sched);
    sched.start();
    Process *a = client.createProcess(2, 100 * kMs);
    Process *b = client.createProcess(2, 100 * kMs);
    client.startProcess(a);
    client.startProcess(b);
    EXPECT_EQ(b->state(), ProcState::Ready);
    client.runToCompletion();
    EXPECT_NEAR(toMillis(events.now()), 200.0, 5.0);
}

TEST(SmpScheduler, RejectsZeroCpus)
{
    EventQueue events;
    EXPECT_THROW(SmpScheduler(events, 0), std::runtime_error);
}
