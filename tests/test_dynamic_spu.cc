/**
 * @file
 * Dynamic SPU life cycle (Section 2.1: "SPUs can be created and
 * destroyed dynamically, or could be suspended when they have no
 * active processes and awakened at a later time").
 */

#include <gtest/gtest.h>

#include "src/piso.hh"
#include "tests/fn_sink.hh"

using namespace piso;

TEST(DynamicSpu, SuspensionReleasesCpusToOthers)
{
    // Quota scheme, 2+2 CPUs. SPU A goes quiet and is suspended at
    // t=0.5 s; rebalancing hands its CPUs to B's four hogs.
    auto hogEnd = [](bool suspendA) {
        SystemConfig cfg;
        cfg.cpus = 4;
        cfg.memoryBytes = 32 * kMiB;
        cfg.diskCount = 2;
        cfg.scheme = Scheme::Quota;
        cfg.seed = 7;
        Simulation sim(cfg);
        const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
        const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});
        sim.addJob(a, makeScriptJob("blip", {ComputeAction{50 * kMs}}));
        for (int i = 0; i < 4; ++i) {
            ComputeSpec hog;
            hog.totalCpu = 2 * kSec;
            hog.wsPages = 32;
            sim.addJob(b, makeComputeJob("hog" + std::to_string(i),
                                         hog));
        }
        test::FnSink sink(sim.events());
        if (suspendA) {
            sink.schedule(500 * kMs, [&sim, a] {
                sim.spus().suspend(a);
                sim.rebalanceSpus();
            });
        }
        return sim.run().meanResponseSecByPrefix("hog");
    };

    const double with = hogEnd(true);
    const double without = hogEnd(false);
    // Without: 8 s of work on 2 CPUs ~ 4 s. With: ~0.5 s on 2 CPUs
    // then 4 CPUs ~ 2.3 s.
    EXPECT_GT(without, 3.8);
    EXPECT_LT(with, 2.8);
}

TEST(DynamicSpu, SuspensionGrowsOthersMemoryEntitlement)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 16 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = Scheme::PIso;
    cfg.seed = 9;
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
    const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});
    ComputeSpec job;
    job.totalCpu = 2 * kSec;
    job.wsPages = 500;
    sim.addJob(b, makeComputeJob("worker", job));

    std::uint64_t entitledBefore = 0, entitledAfter = 0;
    test::FnSink sink(sim.events());
    sink.schedule(300 * kMs, [&] {
        entitledBefore = sim.vm().levels(b).entitled;
        sim.spus().suspend(a);
        sim.rebalanceSpus();
    });
    sink.schedule(800 * kMs, [&] {
        entitledAfter = sim.vm().levels(b).entitled;
    });
    ASSERT_TRUE(sim.run().completed);
    // With A suspended, B's share of memory roughly doubles at the
    // sharing policy's next recompute.
    EXPECT_GT(entitledAfter, entitledBefore + entitledBefore / 2);
}

TEST(DynamicSpu, ResumeRestoresProtection)
{
    // A is suspended, B floods everything; A resumes and submits a
    // job — it must get its share back.
    SystemConfig cfg;
    cfg.cpus = 4;
    cfg.memoryBytes = 32 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = Scheme::PIso;
    cfg.seed = 13;
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
    const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});

    for (int i = 0; i < 8; ++i) {
        ComputeSpec hog;
        hog.totalCpu = 4 * kSec;
        hog.wsPages = 32;
        sim.addJob(b, makeComputeJob("hog" + std::to_string(i), hog));
    }
    // A's job arrives at t=1s, after a suspend/resume cycle.
    ComputeSpec late;
    late.totalCpu = 400 * kMs;
    late.wsPages = 32;
    JobSpec lateJob = makeComputeJob("late", late);
    lateJob.startAt = kSec;
    sim.addJob(a, std::move(lateJob));

    test::FnSink sink(sim.events());
    sink.schedule(100 * kMs, [&] {
        sim.spus().suspend(a);
        sim.rebalanceSpus();
    });
    sink.schedule(900 * kMs, [&] {
        sim.spus().resume(a);
        sim.rebalanceSpus();
    });

    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    // A's job gets its two CPUs: ~0.4 s for one process, allowing for
    // the revocation of loans at resume time.
    EXPECT_LT(r.job("late").responseSec(), 0.55);
}

TEST(DynamicSpu, RepartitionKeepsCpuStateConsistent)
{
    // Direct scheduler-level check: repartition while foreign
    // processes run must leave loaned flags coherent.
    SystemConfig cfg;
    cfg.cpus = 4;
    cfg.memoryBytes = 16 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = Scheme::PIso;
    cfg.seed = 17;
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
    const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});
    for (int i = 0; i < 6; ++i) {
        ComputeSpec hog;
        hog.totalCpu = 500 * kMs;
        hog.wsPages = 16;
        sim.addJob(i == 0 ? a : b,
                   makeComputeJob("j" + std::to_string(i), hog));
    }
    bool checked = false;
    test::FnSink sink(sim.events());
    sink.schedule(200 * kMs, [&] {
        sim.spus().suspend(a);
        sim.rebalanceSpus();
        for (int c = 0; c < 4; ++c) {
            const Cpu &cpu = sim.scheduler().cpu(c);
            if (cpu.running && cpu.homeSpu != kNoSpu) {
                EXPECT_EQ(cpu.loaned,
                          cpu.running->spu() != cpu.homeSpu);
            }
        }
        checked = true;
    });
    ASSERT_TRUE(sim.run().completed);
    EXPECT_TRUE(checked);
}

TEST(DynamicSpu, DestroyedSpuLeavesShares)
{
    SpuManager m;
    const SpuId a = m.create({.name = "a"});
    const SpuId b = m.create({.name = "b"});
    const SpuId c = m.create({.name = "c"});
    m.destroy(c);
    EXPECT_DOUBLE_EQ(m.shareOf(a), 0.5);
    EXPECT_DOUBLE_EQ(m.shareOf(b), 0.5);
}
