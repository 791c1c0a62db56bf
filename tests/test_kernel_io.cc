/**
 * @file
 * Kernel I/O-path details: where paging traffic lands, how delayed
 * writes are batched and charged, end-of-run draining, and the
 * watchdog: timeouts, retries and stale completions of abandoned
 * attempts.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/piso.hh"
#include "tests/fn_sink.hh"

using namespace piso;

namespace {

/** Wraps C-SCAN and records every completed request. */
class SpyScheduler : public DiskScheduler
{
  public:
    struct Seen
    {
        SpuId spu;
        bool write;
        std::uint32_t sectors;
        std::vector<std::pair<SpuId, std::uint32_t>> charges;
        IoTag tag;
        Time at;
    };

    std::size_t
    pick(const std::deque<DiskRequest> &queue, std::uint64_t headSector,
         Time now) override
    {
        return inner_.pick(queue, headSector, now);
    }

    void
    onComplete(const DiskRequest &req, Time now) override
    {
        seen_.push_back(Seen{req.spu, req.write, req.sectors,
                             req.charges, req.tag, now});
    }

    const std::vector<Seen> &seen() const { return seen_; }

  private:
    CScanScheduler inner_;
    std::vector<Seen> seen_;
};

/** A hand-wired machine: @p diskCount spied disks (disk d draws its
 *  rotational latency from Rng(7 + d)), SPUs 2 and 3, a kernel. */
struct IoRig
{
    EventQueue events;
    PhysicalMemory phys;
    VirtualMemory vm;
    BufferCache cache;
    FileSystem fs;
    SmpScheduler sched{events, 2};
    DiskModel model{DiskParams{}};
    std::vector<SpyScheduler *> spies;
    std::vector<std::unique_ptr<DiskDevice>> disks;
    std::unique_ptr<Kernel> kernel;

    IoRig(KernelConfig kc, int diskCount = 1, std::uint64_t pages = 4096,
          std::uint64_t userPages = 4096)
        : phys(pages * 4096), vm(phys)
    {
        std::vector<DiskDevice *> ptrs;
        for (int d = 0; d < diskCount; ++d) {
            auto spy = std::make_unique<SpyScheduler>();
            spies.push_back(spy.get());
            disks.push_back(std::make_unique<DiskDevice>(
                events, model, std::move(spy),
                Rng(7 + static_cast<std::uint64_t>(d))));
            fs.addDisk(d, model.totalSectors());
            ptrs.push_back(disks.back().get());
        }
        kernel = std::make_unique<Kernel>(events, vm, cache, fs, sched,
                                          std::move(ptrs), Rng(11), kc);
        for (SpuId s : {SpuId{2}, SpuId{3}}) {
            vm.registerSpu(s);
            vm.setEntitled(s, userPages);
            vm.setAllowed(s, userPages);
        }
        vm.setAllowed(kKernelSpu, pages);
        vm.setAllowed(kSharedSpu, pages);
    }

    Process *
    spawn(SpuId spu, std::vector<Action> script, Time startAt = 0)
    {
        return kernel->createProcess(
            spu, kNoJob, "p",
            std::make_unique<ScriptBehavior>(std::move(script)), startAt);
    }

    void
    runUntil(Time end)
    {
        while (events.now() < end && events.runOne()) {
        }
    }

    /** Slow disk 0 so that the first request it serves, a one-block
     *  read at @p sector from head position 0, takes @p service. */
    void
    slowFirstRequest(std::uint64_t sector, Time service)
    {
        Rng probe(7); // disk 0's stream: its first draw is this request
        const Time base =
            model.service(0, sector, fs.sectorsPerBlock(), probe).total();
        ASSERT_LT(base, service);
        disks[0]->setSlowFactor(static_cast<double>(service) /
                                static_cast<double>(base));
    }

    /** Run until disk 0 starts serving, then restore its full speed. */
    void
    restoreSpeedOnceBusy()
    {
        while (!disks[0]->busy() && events.runOne()) {
        }
        ASSERT_TRUE(disks[0]->busy());
        disks[0]->setSlowFactor(1.0);
    }
};

} // namespace

TEST(KernelIo, SwapTrafficLandsOnTheSpusHomeDisk)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 8 * kMiB;
    cfg.diskCount = 3;
    cfg.scheme = Scheme::Quota;
    cfg.seed = 3;
    Simulation sim(cfg);
    sim.addSpu({.name = "other", .homeDisk = 0});
    const SpuId u = sim.addSpu({.name = "u", .homeDisk = 2});
    // Thrash against the quota: swap I/O must hit disk 2 only.
    ComputeSpec job;
    job.totalCpu = 500 * kMs;
    job.wsPages = 1500; // quota is ~(2048-512)/2 = 768
    sim.addJob(u, makeComputeJob("thrash", job));
    const SimResults r = sim.run();
    EXPECT_GT(r.kernel.refaults.value(), 0u);
    EXPECT_GT(r.disks[2].requests, 0u);
    EXPECT_EQ(r.disks[0].requests, 0u);
    EXPECT_EQ(r.disks[1].requests, 0u);
}

TEST(KernelIo, BdflushChargesPagesToOwningSpus)
{
    // Two SPUs write dirty data; the shared-SPU flush requests must
    // carry per-owner charge breakdowns (Section 3.3).
    EventQueue events;
    PhysicalMemory phys{4096 * 4096};
    VirtualMemory vm{phys};
    BufferCache cache;
    FileSystem fs;
    SmpScheduler sched{events, 2};
    DiskModel model{DiskParams{}};
    auto spy = std::make_unique<SpyScheduler>();
    SpyScheduler *spyPtr = spy.get();
    DiskDevice disk(events, model, std::move(spy), Rng(7));
    fs.addDisk(0, model.totalSectors());
    Kernel kernel(events, vm, cache, fs, sched, {&disk}, Rng(11));
    for (SpuId s : {SpuId{2}, SpuId{3}}) {
        vm.registerSpu(s);
        vm.setEntitled(s, 4096);
        vm.setAllowed(s, 4096);
    }
    vm.setAllowed(kKernelSpu, 4096);
    vm.setAllowed(kSharedSpu, 4096);

    const FileId fa = fs.createFile(0, 64 * 1024);
    const FileId fb = fs.createFile(0, 64 * 1024);
    kernel.createProcess(2, kNoJob, "wa",
                         std::make_unique<ScriptBehavior>(
                             std::vector<Action>{
                                 WriteAction{fa, 0, 64 * 1024, false},
                                 SleepAction{3 * kSec}}),
                         0);
    kernel.createProcess(3, kNoJob, "wb",
                         std::make_unique<ScriptBehavior>(
                             std::vector<Action>{
                                 WriteAction{fb, 0, 64 * 1024, false},
                                 SleepAction{3 * kSec}}),
                         0);
    kernel.start();
    while (kernel.liveProcesses() > 0 && events.now() < 60 * kSec) {
        if (!events.runOne())
            break;
    }

    std::uint32_t charged2 = 0, charged3 = 0;
    for (const auto &s : spyPtr->seen()) {
        if (!s.write)
            continue;
        EXPECT_EQ(s.spu, kSharedSpu); // flushes run as the shared SPU
        for (const auto &[spu, sectors] : s.charges) {
            if (spu == 2)
                charged2 += sectors;
            if (spu == 3)
                charged3 += sectors;
        }
    }
    // 64 KiB each = 128 sectors charged to each owner.
    EXPECT_EQ(charged2, 128u);
    EXPECT_EQ(charged3, 128u);
}

TEST(KernelIo, DrainFlushesEverythingAtRunEnd)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 32 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 5;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    // The job exits immediately after a delayed write: only the drain
    // can push the data out.
    const std::uint64_t bytes = 2 * kMiB;
    JobSpec j;
    j.name = "w";
    j.build = [bytes](Kernel &, WorkloadEnv &env) {
        const FileId f = env.fs.createFile(env.disk, bytes);
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "w", std::make_unique<ScriptBehavior>(std::vector<Action>{
                     WriteAction{f, 0, bytes, false}})});
        return procs;
    };
    sim.addJob(u, std::move(j));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_EQ(sim.kernel().cache().dirtyCount(), 0u);
    EXPECT_GE(r.disks[0].sectors, bytes / 512);
}

TEST(KernelIo, NonSequentialReadsDontPrefetch)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 32 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 5;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    JobSpec j;
    j.name = "rand";
    j.build = [](Kernel &, WorkloadEnv &env) {
        const FileId f = env.fs.createFile(env.disk, 4 * kMiB);
        std::vector<Action> script;
        // Stride access pattern: never sequential.
        for (int i = 0; i < 32; ++i) {
            const std::uint64_t off =
                (static_cast<std::uint64_t>(i) * 37 % 64) * 64 * 1024;
            script.push_back(ReadAction{f, off, 4096});
        }
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "rand",
            std::make_unique<ScriptBehavior>(std::move(script))});
        return procs;
    };
    sim.addJob(u, std::move(j));
    const SimResults r = sim.run();
    EXPECT_EQ(r.kernel.readAheadRequests.value(), 0u);
}

TEST(KernelIo, SharedPageReclassificationOnWrite)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 32 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 5;
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a"});
    const SpuId b = sim.addSpu({.name = "b"});

    FileId shared = kNoFile;
    JobSpec writerA;
    writerA.name = "wa";
    writerA.build = [&shared](Kernel &, WorkloadEnv &env) {
        shared = env.fs.createFile(env.disk, 32 * 1024);
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "wa", std::make_unique<ScriptBehavior>(std::vector<Action>{
                      WriteAction{shared, 0, 32 * 1024, false}})});
        return procs;
    };
    sim.addJob(a, std::move(writerA));

    JobSpec writerB;
    writerB.name = "wb";
    writerB.startAt = 500 * kMs;
    writerB.build = [&shared](Kernel &, WorkloadEnv &) {
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "wb", std::make_unique<ScriptBehavior>(std::vector<Action>{
                      WriteAction{shared, 0, 32 * 1024, false}})});
        return procs;
    };
    sim.addJob(b, std::move(writerB));

    sim.run();
    // The log's pages were touched by both SPUs: charged to `shared`.
    EXPECT_GT(sim.vm().levels(kSharedSpu).used, 0u);
}

TEST(KernelIo, CacheAffinityCostChargesMigrations)
{
    // Two processes ping-pong across two CPUs (SMP global queue with
    // slice round-robin migrates them); with the affinity model on,
    // they accumulate penalty compute.
    auto totalCpu = [](Time affinityCost) {
        SystemConfig cfg;
        cfg.cpus = 2;
        cfg.memoryBytes = 16 * kMiB;
        cfg.scheme = Scheme::Smp;
        cfg.kernel.cacheAffinityCost = affinityCost;
        cfg.seed = 9;
        Simulation sim(cfg);
        const SpuId u = sim.addSpu({.name = "u"});
        for (int i = 0; i < 3; ++i) {
            ComputeSpec spec;
            spec.totalCpu = kSec;
            spec.wsPages = 0;
            sim.addJob(u, makeComputeJob("j" + std::to_string(i),
                                         spec));
        }
        const SimResults r = sim.run();
        return std::pair{r.spus.at(u).cpuTime,
                         r.kernel.affinityPenalties.value()};
    };

    const auto [cheap, none] = totalCpu(0);
    const auto [costly, penalties] = totalCpu(kMs);
    EXPECT_EQ(none, 0u);
    EXPECT_GT(penalties, 10u);
    EXPECT_GT(costly, cheap + penalties * 900 * kUs);
}

TEST(KernelIo, CopyCostMakesCachedReadsNonFree)
{
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 32 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 5;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    JobSpec j;
    j.name = "reread";
    j.build = [](Kernel &, WorkloadEnv &env) {
        const FileId f = env.fs.createFile(env.disk, 256 * 1024);
        std::vector<Action> script;
        script.push_back(ReadAction{f, 0, 256 * 1024}); // cold
        for (int i = 0; i < 100; ++i)
            script.push_back(ReadAction{f, 0, 256 * 1024}); // warm
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "r", std::make_unique<ScriptBehavior>(std::move(script))});
        return procs;
    };
    sim.addJob(u, std::move(j));
    const SimResults r = sim.run();
    // 100 warm re-reads of 64 blocks at 10 us/block = 64 ms of CPU.
    EXPECT_GT(r.spus.at(u).cpuTime, 60 * kMs);
}

TEST(KernelIoWatchdog, TimedOutAttemptIsRetriedAndItsLateCompletionIgnored)
{
    // One 1-block read. Attempt 1 takes 150 ms; the watchdog fires at
    // 100 ms and attempt 2 is issued after the 20 ms backoff (at 120 ms).
    // It queues behind attempt 1, whose completion at 150 ms is stale,
    // then takes one normal service time and beats its own watchdog
    // (220 ms). Hand count: one timeout, one retry, no error.
    KernelConfig kc;
    kc.ioTimeout = 100 * kMs;
    IoRig rig(kc);
    const FileId f = rig.fs.createFile(0, 4096);
    rig.slowFirstRequest(rig.fs.blockSector(f, 0), 150 * kMs);
    Process *p = rig.spawn(2, {ReadAction{f, 0, 4096}});
    Time exitAt = kTimeNever;
    rig.kernel->onProcessExit = [&](Process &) { exitAt = rig.events.now(); };
    rig.kernel->start();
    rig.restoreSpeedOnceBusy();
    rig.runUntil(5 * kSec);

    const KernelStats &ks = rig.kernel->stats();
    EXPECT_EQ(ks.ioTimeouts.value(), 1u);
    EXPECT_EQ(ks.ioRetries.value(), 1u);
    EXPECT_EQ(ks.diskErrors.value(), 0u);
    EXPECT_EQ(ks.failedIos.value(), 0u);
    EXPECT_EQ(rig.kernel->spuFaults(2).ioTimeouts.value(), 1u);
    EXPECT_EQ(rig.kernel->spuFaults(2).ioRetries.value(), 1u);

    // Both attempts reached the disk, attempt 1 first; they name the
    // same operation.
    const auto &seen = rig.spies[0]->seen();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].tag.attempt, 1);
    EXPECT_EQ(seen[1].tag.attempt, 2);
    EXPECT_EQ(seen[0].tag.slot, seen[1].tag.slot);
    EXPECT_EQ(seen[0].tag.generation, seen[1].tag.generation);
    EXPECT_GE(seen[0].at, 150 * kMs - kUs);
    EXPECT_LT(seen[1].at, 220 * kMs);

    // Settled once, by attempt 2: the reader woke only after it.
    EXPECT_EQ(rig.kernel->liveIoOps(), 0u);
    EXPECT_EQ(p->state(), ProcState::Exited);
    EXPECT_FALSE(p->ioFailed);
    EXPECT_EQ(p->pendingIo, 0);
    EXPECT_GE(exitAt, seen[1].at);
}

TEST(KernelIoWatchdog, LateCompletionInsideTheBackoffSettlesTheIo)
{
    // Attempt 1 times out at 100 ms, but the retry waits a 100 ms
    // backoff, so attempt 1's completion (150 ms) arrives while it is
    // still the current attempt: it settles the read. The retry still
    // runs at 200 ms and sends attempt 2 to the disk; that completion
    // is stale, and the slot is freed only after the retry has run.
    KernelConfig kc;
    kc.ioTimeout = 100 * kMs;
    kc.ioRetryBackoff = 100 * kMs;
    IoRig rig(kc);
    const FileId f = rig.fs.createFile(0, 4096);
    rig.slowFirstRequest(rig.fs.blockSector(f, 0), 150 * kMs);
    Process *p = rig.spawn(2, {ReadAction{f, 0, 4096}});
    Time exitAt = kTimeNever;
    rig.kernel->onProcessExit = [&](Process &) { exitAt = rig.events.now(); };
    rig.kernel->start();
    rig.restoreSpeedOnceBusy();
    rig.runUntil(175 * kMs);
    EXPECT_EQ(p->state(), ProcState::Exited);
    EXPECT_EQ(rig.kernel->liveIoOps(), 1u); // the retry is pending
    rig.runUntil(5 * kSec);

    EXPECT_EQ(rig.kernel->stats().ioTimeouts.value(), 1u);
    EXPECT_EQ(rig.kernel->stats().ioRetries.value(), 1u);
    const auto &seen = rig.spies[0]->seen();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[1].tag.attempt, 2);
    EXPECT_LT(exitAt, 200 * kMs);
    EXPECT_GE(seen[1].at, 200 * kMs);
    EXPECT_FALSE(p->ioFailed);
    EXPECT_EQ(rig.kernel->liveIoOps(), 0u);
}

TEST(KernelIoWatchdog, StaleCompletionIsIgnoredAfterItsSlotIsReused)
{
    // No retries: attempt 1 of the first read times out at 100 ms and
    // the operation fails, freeing its slot. A second process starts a
    // read at 110 ms, which takes the same slot (and is also attempt
    // 1). The abandoned request completes at 150 ms naming that slot;
    // only the generation tells it apart, and it must not complete the
    // second read.
    KernelConfig kc;
    kc.ioTimeout = 100 * kMs;
    kc.ioRetryLimit = 0;
    IoRig rig(kc);
    const FileId f1 = rig.fs.createFile(0, 4096);
    const FileId f2 = rig.fs.createFile(0, 4096);
    rig.slowFirstRequest(rig.fs.blockSector(f1, 0), 150 * kMs);
    Process *p1 = rig.spawn(2, {ReadAction{f1, 0, 4096}});
    Process *p2 = rig.spawn(3, {ReadAction{f2, 0, 4096}}, 110 * kMs);
    Time p2ExitAt = kTimeNever;
    rig.kernel->onProcessExit = [&](Process &q) {
        if (&q == p2)
            p2ExitAt = rig.events.now();
    };
    rig.kernel->start();
    rig.restoreSpeedOnceBusy();
    rig.runUntil(5 * kSec);

    const KernelStats &ks = rig.kernel->stats();
    EXPECT_EQ(ks.ioTimeouts.value(), 1u);
    EXPECT_EQ(ks.ioRetries.value(), 0u);
    EXPECT_EQ(ks.failedIos.value(), 1u);
    EXPECT_TRUE(p1->ioFailed);

    const auto &seen = rig.spies[0]->seen();
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].tag.slot, seen[1].tag.slot);
    EXPECT_NE(seen[0].tag.generation, seen[1].tag.generation);
    EXPECT_EQ(seen[0].tag.attempt, seen[1].tag.attempt);

    EXPECT_EQ(rig.kernel->liveIoOps(), 0u);
    EXPECT_EQ(p2->state(), ProcState::Exited);
    EXPECT_FALSE(p2->ioFailed);
    EXPECT_EQ(p2->pendingIo, 0);
    EXPECT_GE(p2ExitAt, seen[1].at);
}

TEST(KernelIoWatchdog, EveryIoSettlesOnceUnderRandomFaultPlans)
{
    // Random plans of transient errors, slowdowns and disk deaths over
    // two disks, against sequential readers (read-ahead), delayed and
    // synchronous writers, a random reader and a memory hog that pages
    // (pageouts for frames, swap-ins, clustered pageouts). However the
    // faults fall, every I/O operation started must settle exactly once
    // (settling twice panics) and nobody may be left waiting on I/O.
    std::uint64_t timeouts = 0, retries = 0, failed = 0, errors = 0;
    std::uint64_t refaults = 0, pageouts = 0, readAheads = 0, syncs = 0;
    int deaths = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        Rng rng(seed);
        KernelConfig kc;
        kc.ioTimeout = 150 * kMs;
        IoRig rig(kc, 2, /*pages=*/3072, /*userPages=*/1024);

        const FileId seq0 = rig.fs.createFile(0, 2 * kMiB);
        const FileId seq1 = rig.fs.createFile(1, 2 * kMiB);
        const FileId out0 = rig.fs.createFile(0, 1 * kMiB);
        const FileId out1 = rig.fs.createFile(1, 1 * kMiB);
        const FileId rnd = rig.fs.createFile(1, 4 * kMiB);

        std::vector<Process *> procs;
        for (const auto &[spu, file] :
             {std::pair{SpuId{2}, seq0}, std::pair{SpuId{3}, seq1}}) {
            std::vector<Action> script;
            for (std::uint64_t off = 0; off < 2 * kMiB; off += 32 * 1024)
                script.push_back(ReadAction{file, off, 32 * 1024});
            procs.push_back(rig.spawn(spu, std::move(script)));
        }
        for (const auto &[spu, file] :
             {std::pair{SpuId{2}, out0}, std::pair{SpuId{3}, out1}}) {
            std::vector<Action> script;
            for (std::uint64_t off = 0; off < kMiB; off += 64 * 1024) {
                script.push_back(WriteAction{file, off, 64 * 1024,
                                             off % (256 * 1024) == 0});
                script.push_back(ComputeAction{5 * kMs});
            }
            procs.push_back(rig.spawn(spu, std::move(script)));
        }
        {
            std::vector<Action> script;
            for (int i = 0; i < 40; ++i) {
                const std::uint64_t block = rng.uniformInt(1024);
                script.push_back(ReadAction{rnd, block * 4096, 4096});
            }
            procs.push_back(rig.spawn(3, std::move(script)));
        }
        procs.push_back(rig.spawn(
            2, {GrowMemAction{1400}, ComputeAction{800 * kMs},
                ShrinkMemAction{1400}}));

        // The plan: a few windows of errors or slowdowns, and sometimes
        // a death, on random disks within the first two seconds.
        test::FnSink plan(rig.events);
        const int windows = 1 + static_cast<int>(rng.uniformInt(4));
        for (int w = 0; w < windows; ++w) {
            DiskDevice *d = rig.disks[rng.uniformInt(2)].get();
            const Time at = rng.uniformInt(2000) * kMs;
            const Time len = (50 + rng.uniformInt(600)) * kMs;
            if (rng.chance(0.5)) {
                const double rate = 0.2 + 0.8 * rng.uniform();
                plan.schedule(at, [d, rate] { d->setErrorRate(rate); });
                plan.schedule(at + len, [d] { d->setErrorRate(0.0); });
            } else {
                const double factor = 2.0 + 30.0 * rng.uniform();
                plan.schedule(at, [d, factor] { d->setSlowFactor(factor); });
                plan.schedule(at + len, [d] { d->setSlowFactor(1.0); });
            }
        }
        if (rng.chance(0.3)) {
            DiskDevice *d = rig.disks[rng.uniformInt(2)].get();
            plan.schedule(rng.uniformInt(3000) * kMs, [d] { d->kill(); });
            ++deaths;
        }

        rig.kernel->start();
        rig.runUntil(120 * kSec);

        EXPECT_EQ(rig.kernel->liveIoOps(), 0u);
        for (const Process *p : procs) {
            EXPECT_EQ(p->state(), ProcState::Exited);
            EXPECT_EQ(p->pendingIo, 0);
        }
        const KernelStats &ks = rig.kernel->stats();
        timeouts += ks.ioTimeouts.value();
        retries += ks.ioRetries.value();
        failed += ks.failedIos.value();
        errors += ks.diskErrors.value();
        refaults += ks.refaults.value();
        pageouts += ks.pageoutWrites.value();
        readAheads += ks.readAheadRequests.value();
        syncs += ks.syncWriteRequests.value();
    }
    // The plans reached every path the property is about.
    EXPECT_GT(deaths, 0);
    for (std::uint64_t n : {timeouts, retries, failed, errors, refaults,
                            pageouts, readAheads, syncs})
        EXPECT_GT(n, 0u);
}
