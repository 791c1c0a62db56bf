/**
 * @file
 * Kernel I/O-path details: where paging traffic lands, how delayed
 * writes are batched and charged, and end-of-run draining.
 */

#include <gtest/gtest.h>

#include "src/piso.hh"

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
    };

    std::size_t
    pick(const std::deque<DiskRequest> &queue, std::uint64_t headSector,
         Time now) override
    {
        return inner_.pick(queue, headSector, now);
    }

    void
    onComplete(const DiskRequest &req, Time) override
    {
        seen_.push_back(Seen{req.spu, req.write, req.sectors,
                             req.charges});
    }

    const std::vector<Seen> &seen() const { return seen_; }

  private:
    CScanScheduler inner_;
    std::vector<Seen> seen_;
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
