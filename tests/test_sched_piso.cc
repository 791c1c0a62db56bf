/**
 * @file
 * Unit tests for the PIso scheduler: home preference, idle-CPU loans,
 * and bounded revocation (Section 3.1).
 */

#include <gtest/gtest.h>

#include "src/core/sched_piso.hh"
#include "tests/sched_test_util.hh"
#include "tests/fn_sink.hh"

using namespace piso;
using piso::test::FakeClient;

namespace {

struct PisoFixture : public ::testing::Test
{
    EventQueue events;
    PisoScheduler sched{events, 4};
    FakeClient client{events, sched};
    test::FnSink sink{events};

    void
    partitionHalf()
    {
        sched.partitionCpus({{2, 0.5}, {3, 0.5}});
    }
};

} // namespace

TEST_F(PisoFixture, HomeCpuPreferred)
{
    partitionHalf();
    sched.start();
    Process *p = client.createProcess(2, 100 * kMs);
    client.startProcess(p);
    EXPECT_EQ(sched.cpu(p->runningOn).homeSpu, 2);
    EXPECT_FALSE(sched.cpu(p->runningOn).loaned);
}

TEST_F(PisoFixture, IdleCpuLoanedToForeignSpu)
{
    partitionHalf();
    sched.start();
    // Four SPU-2 processes: two on SPU-2 CPUs, two borrow SPU-3 CPUs.
    for (int i = 0; i < 4; ++i)
        client.startProcess(client.createProcess(2, 400 * kMs));
    EXPECT_EQ(sched.loanedCount(), 2);
    client.runToCompletion();
    // All four ran concurrently: ~400 ms total.
    EXPECT_NEAR(toMillis(events.now()), 400.0, 40.0);
}

TEST_F(PisoFixture, SharingBeatsQuota)
{
    // Identical oversubscription as the Quota test: 1.6 s of SPU-2
    // work finishes in ~400 ms here instead of ~800 ms.
    partitionHalf();
    sched.start();
    for (int i = 0; i < 4; ++i)
        client.startProcess(client.createProcess(2, 400 * kMs));
    client.runToCompletion();
    EXPECT_LT(toMillis(events.now()), 500.0);
}

TEST_F(PisoFixture, RevocationWithinTenMs)
{
    partitionHalf();
    sched.start();
    // SPU 2 floods the machine; all four CPUs run SPU-2 work.
    for (int i = 0; i < 6; ++i)
        client.startProcess(client.createProcess(2, 2 * kSec));
    EXPECT_EQ(sched.loanedCount(), 2);

    // At t = 100 ms an SPU-3 process arrives. Its CPU must be revoked
    // within one clock tick (10 ms).
    Process *owner = client.createProcess(3, 50 * kMs);
    Time dispatched = 0;
    sink.schedule(100 * kMs, [&] { client.startProcess(owner); });
    while (events.runOne()) {
        if (owner->state() == ProcState::Running && dispatched == 0)
            dispatched = events.now();
        if (dispatched)
            break;
    }
    ASSERT_GT(dispatched, 0u);
    EXPECT_LE(dispatched - 100 * kMs, 10 * kMs);
    EXPECT_GE(sched.revocations(), 1u);
}

TEST_F(PisoFixture, IpiRevocationIsImmediate)
{
    partitionHalf();
    sched.setIpiRevocation(true);
    sched.start();
    for (int i = 0; i < 6; ++i)
        client.startProcess(client.createProcess(2, 2 * kSec));
    Process *owner = client.createProcess(3, 50 * kMs);
    sink.schedule(105 * kMs, [&] { client.startProcess(owner); });
    events.runAll(105 * kMs);
    EXPECT_EQ(owner->state(), ProcState::Running);
    EXPECT_GE(sched.revocations(), 1u);
}

TEST_F(PisoFixture, IsolationUnderForeignFlood)
{
    // SPU 3 floods; SPU 2's light job keeps its own CPUs and is
    // unaffected (modulo one revocation tick).
    partitionHalf();
    sched.start();
    for (int i = 0; i < 10; ++i)
        client.startProcess(client.createProcess(3, 3 * kSec));
    Process *light = client.createProcess(2, 300 * kMs);
    sink.schedule(50 * kMs, [&] { client.startProcess(light); });
    client.runToCompletion();
    const double resp = toMillis(light->endTime - 50 * kMs);
    EXPECT_NEAR(resp, 300.0, 25.0);
}

TEST_F(PisoFixture, LoanEndsWhenBorrowerFinishes)
{
    partitionHalf();
    sched.start();
    Process *hog = client.createProcess(2, 100 * kMs);
    client.startProcess(hog);
    for (int i = 0; i < 2; ++i)
        client.startProcess(client.createProcess(2, 100 * kMs));
    EXPECT_GE(sched.loanedCount(), 1);
    client.runToCompletion();
    EXPECT_EQ(sched.loanedCount(), 0);
}

TEST_F(PisoFixture, BorrowerPicksHighestPriority)
{
    // Between two foreign candidates, the loaned CPU takes the one
    // with the better (lower) priority value.
    partitionHalf();
    sched.start();
    // Fill all four CPUs: SPU 3's own plus SPU 2's.
    client.startProcess(client.createProcess(3, 5 * kSec));
    client.startProcess(client.createProcess(3, 5 * kSec));
    Process *shortA = client.createProcess(2, 100 * kMs);
    Process *shortB = client.createProcess(2, 100 * kMs);
    client.startProcess(shortA);
    client.startProcess(shortB);
    // Two queued SPU-3 processes with different accumulated usage.
    Process *tired = client.createProcess(3, kSec, "tired");
    Process *fresh = client.createProcess(3, kSec, "fresh");
    tired->setRecentCpu(1.0);
    fresh->setRecentCpu(0.0);
    client.startProcess(tired);
    client.startProcess(fresh);
    EXPECT_EQ(tired->state(), ProcState::Ready);
    EXPECT_EQ(fresh->state(), ProcState::Ready);
    // When an SPU-2 CPU frees, the loan goes to the better-priority
    // foreign candidate.
    events.runAll(110 * kMs);
    EXPECT_EQ(fresh->state(), ProcState::Running);
}

TEST_F(PisoFixture, LoanHoldoffBlocksImmediateRelending)
{
    partitionHalf();
    sched.setLoanHoldoff(500 * kMs);
    sched.start();

    // SPU 2 floods; its work borrows SPU 3's CPUs.
    for (int i = 0; i < 6; ++i)
        client.startProcess(client.createProcess(2, 2 * kSec));
    EXPECT_EQ(sched.loanedCount(), 2);

    // An SPU-3 process arrives and leaves quickly: the revoked CPU
    // must stay home-only for the hold-off window.
    Process *owner = client.createProcess(3, 20 * kMs);
    sink.schedule(100 * kMs, [&] { client.startProcess(owner); });
    events.runAll(200 * kMs);
    EXPECT_EQ(owner->state(), ProcState::Exited);
    // Inside the hold-off: at most one CPU still loaned (the one that
    // was not revoked).
    EXPECT_LE(sched.loanedCount(), 1);

    // After the hold-off expires the CPU is lent again.
    events.runAll(800 * kMs);
    EXPECT_EQ(sched.loanedCount(), 2);
}

TEST_F(PisoFixture, ZeroHoldoffRelendsImmediately)
{
    partitionHalf();
    sched.start();
    for (int i = 0; i < 6; ++i)
        client.startProcess(client.createProcess(2, 2 * kSec));
    Process *owner = client.createProcess(3, 20 * kMs);
    sink.schedule(100 * kMs, [&] { client.startProcess(owner); });
    events.runAll(200 * kMs);
    EXPECT_EQ(owner->state(), ProcState::Exited);
    EXPECT_EQ(sched.loanedCount(), 2); // re-lent right away
}

TEST_F(PisoFixture, RevocationsCountedOnce)
{
    partitionHalf();
    sched.start();
    for (int i = 0; i < 4; ++i)
        client.startProcess(client.createProcess(2, 500 * kMs));
    Process *owner = client.createProcess(3, 100 * kMs);
    sink.schedule(50 * kMs, [&] { client.startProcess(owner); });
    client.runToCompletion();
    EXPECT_LE(sched.revocations(), 2u);
}
