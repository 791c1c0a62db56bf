/**
 * @file
 * Integration tests for the Kernel: action interpretation, paging,
 * the I/O path, daemons, barriers, and locks.
 */

#include <gtest/gtest.h>

#include "src/machine/disk.hh"
#include "src/machine/memory.hh"
#include "src/os/buffer_cache.hh"
#include "src/os/cscan.hh"
#include "src/os/filesystem.hh"
#include "src/os/kernel.hh"
#include "src/os/sched_smp.hh"
#include "src/os/vm.hh"
#include "src/util/error.hh"
#include "src/workload/synthetic.hh"

using namespace piso;

namespace {

/** A small 2-CPU machine with one disk and an SMP scheduler. */
struct KernelFixture : public ::testing::Test
{
    static constexpr std::uint64_t kPages = 2048; // 8 MiB

    EventQueue events;
    PhysicalMemory phys{kPages * 4096};
    VirtualMemory vm{phys};
    BufferCache cache;
    FileSystem fs;
    SmpScheduler sched{events, 2};
    std::unique_ptr<DiskDevice> disk;
    std::unique_ptr<Kernel> kernel;

    void
    SetUp() override
    {
        DiskModel model{DiskParams{}};
        disk = std::make_unique<DiskDevice>(
            events, model, std::make_unique<CScanScheduler>(), Rng(7));
        fs.addDisk(0, model.totalSectors());
        kernel = std::make_unique<Kernel>(events, vm, cache, fs, sched,
                                          std::vector<DiskDevice *>{
                                              disk.get()},
                                          Rng(11));
        for (SpuId s : {SpuId{2}, SpuId{3}}) {
            vm.registerSpu(s);
            vm.setEntitled(s, kPages);
            vm.setAllowed(s, kPages);
        }
        vm.setAllowed(kKernelSpu, kPages);
        vm.setAllowed(kSharedSpu, kPages);
    }

    Process *
    spawn(SpuId spu, std::vector<Action> script, Time startAt = 0,
          const std::string &name = "p")
    {
        return kernel->createProcess(
            spu, kNoJob, name,
            std::make_unique<ScriptBehavior>(std::move(script)), startAt);
    }

    void
    run(Time cap = 300 * kSec)
    {
        kernel->start();
        while (kernel->liveProcesses() > 0 && events.now() <= cap) {
            if (!events.runOne())
                break;
        }
    }
};

} // namespace

TEST_F(KernelFixture, ComputeRunsToCompletion)
{
    Process *p = spawn(2, {ComputeAction{200 * kMs}});
    run();
    EXPECT_EQ(p->state(), ProcState::Exited);
    EXPECT_NEAR(toMillis(p->cpuTime), 200.0, 1.0);
    EXPECT_NEAR(toMillis(p->endTime), 200.0, 5.0);
}

TEST_F(KernelFixture, ProcessLookupByPid)
{
    // Pids are dense from 1; anything outside [1, last created] is
    // unknown, including the next pid to be handed out.
    EXPECT_EQ(kernel->process(1), nullptr);
    std::vector<Process *> made;
    for (int i = 0; i < 3; ++i)
        made.push_back(spawn(2, {ComputeAction{kMs}}));
    for (Process *p : made)
        EXPECT_EQ(kernel->process(p->pid()), p);
    EXPECT_EQ(made.front()->pid(), 1);
    const Pid next = made.back()->pid() + 1;
    EXPECT_EQ(kernel->process(next), nullptr);
    EXPECT_EQ(kernel->process(0), nullptr);
    EXPECT_EQ(kernel->process(-1), nullptr);
    EXPECT_EQ(kernel->process(kNoPid), nullptr);

    // Exited processes stay addressable.
    run();
    EXPECT_EQ(kernel->process(made[1]->pid()), made[1]);
    EXPECT_EQ(made[1]->state(), ProcState::Exited);
    EXPECT_THROW(kernel->imagedProcess(next), ConfigError);
}

TEST_F(KernelFixture, TwoComputeProcessesInParallel)
{
    spawn(2, {ComputeAction{200 * kMs}});
    spawn(3, {ComputeAction{200 * kMs}});
    run();
    EXPECT_NEAR(toMillis(events.now()), 200.0, 5.0);
}

TEST_F(KernelFixture, SleepBlocksWithoutCpu)
{
    Process *p = spawn(2, {SleepAction{500 * kMs}});
    run();
    EXPECT_NEAR(toMillis(p->endTime), 500.0, 1.0);
    EXPECT_LT(toMillis(p->cpuTime), 1.0);
}

TEST_F(KernelFixture, DelayedStart)
{
    Process *p = spawn(2, {ComputeAction{10 * kMs}}, 100 * kMs);
    run();
    EXPECT_NEAR(toMillis(p->endTime), 110.0, 2.0);
}

TEST_F(KernelFixture, GrowMemFaultsInWorkingSet)
{
    Process *p = spawn(2, {GrowMemAction{100}, ComputeAction{100 * kMs}});
    run();
    EXPECT_EQ(p->state(), ProcState::Exited);
    EXPECT_GT(kernel->stats().zeroFills.value(), 50u);
    // Memory was released at exit.
    EXPECT_EQ(vm.levels(2).used, 0u);
}

TEST_F(KernelFixture, ZeroFillFaultsCostCpu)
{
    // Two CPUs: both processes run concurrently and are measured
    // independently. The one growing a working set pays fault CPU.
    Process *a = spawn(2, {ComputeAction{100 * kMs}}, 0, "plain");
    Process *b = spawn(3, {GrowMemAction{500}, ComputeAction{100 * kMs}},
                       0, "faulting");
    run();
    EXPECT_GT(b->endTime - b->startTime, a->endTime - a->startTime);
    EXPECT_GT(b->zeroFillFaults, 100u);
}

TEST_F(KernelFixture, ShrinkMemReleasesFrames)
{
    spawn(2, {GrowMemAction{100}, ComputeAction{200 * kMs},
              ShrinkMemAction{100}, ComputeAction{10 * kMs}});
    run();
    EXPECT_EQ(vm.levels(2).used, 0u);
}

TEST_F(KernelFixture, ColdReadGoesToDisk)
{
    const FileId f = fs.createFile(0, 64 * 1024);
    Process *p = spawn(2, {ReadAction{f, 0, 64 * 1024}});
    run();
    EXPECT_EQ(p->state(), ProcState::Exited);
    EXPECT_GT(kernel->stats().readRequests.value(), 0u);
    EXPECT_GT(p->diskReads, 0u);
    EXPECT_GT(toMillis(p->endTime), 1.0); // paid real disk latency
}

TEST_F(KernelFixture, WarmReadHitsCache)
{
    const FileId f = fs.createFile(0, 16 * 1024);
    spawn(2, {ReadAction{f, 0, 16 * 1024}, ComputeAction{kMs},
              ReadAction{f, 0, 16 * 1024}});
    run();
    EXPECT_EQ(kernel->stats().cacheHits.value(), 4u);  // second read
    EXPECT_EQ(kernel->stats().cacheMisses.value(), 4u); // first read
}

TEST_F(KernelFixture, SequentialReadsTriggerReadAhead)
{
    const FileId f = fs.createFile(0, 1 << 20);
    std::vector<Action> script;
    for (std::uint64_t off = 0; off < (1 << 20); off += 32 * 1024)
        script.push_back(ReadAction{f, off, 32 * 1024});
    spawn(2, std::move(script));
    run();
    EXPECT_GT(kernel->stats().readAheadRequests.value(), 0u);
    // Almost all blocks arrive via prefetch: only the first few
    // demand requests ever reach the disk.
    EXPECT_LT(kernel->stats().readRequests.value(), 8u);
}

TEST_F(KernelFixture, DelayedWriteReturnsQuickly)
{
    const FileId f = fs.createFile(0, 256 * 1024);
    Process *p = spawn(2, {WriteAction{f, 0, 256 * 1024, false}});
    run(10 * kSec);
    EXPECT_EQ(p->state(), ProcState::Exited);
    // The write dirtied cache only; the process never waited on disk.
    EXPECT_LT(toMillis(p->endTime), 1.0);
    EXPECT_GT(cache.dirtyCount(), 0u);
}

TEST_F(KernelFixture, BdflushCleansDirtyBlocks)
{
    const FileId f = fs.createFile(0, 256 * 1024);
    spawn(2, {WriteAction{f, 0, 256 * 1024, false},
              SleepAction{3 * kSec}});
    run(20 * kSec);
    EXPECT_GT(kernel->stats().bdflushRequests.value(), 0u);
    EXPECT_EQ(cache.dirtyCount(), 0u);
}

TEST_F(KernelFixture, BdflushWritesUnderSharedSpu)
{
    const FileId f = fs.createFile(0, 256 * 1024);
    spawn(2, {WriteAction{f, 0, 256 * 1024, false},
              SleepAction{3 * kSec}});
    run(20 * kSec);
    EXPECT_GT(disk->spuStats(kSharedSpu).requests.value(), 0u);
}

TEST_F(KernelFixture, SyncWriteWaitsForDisk)
{
    const FileId f = fs.createFile(0, 4096);
    Process *p = spawn(2, {WriteAction{f, 0, 512, true}});
    run();
    EXPECT_GT(kernel->stats().syncWriteRequests.value(), 0u);
    EXPECT_GT(toMillis(p->endTime), 1.0);
    // Sync writes are the process's own, not shared-SPU batched.
    EXPECT_GT(disk->spuStats(2).requests.value(), 0u);
}

TEST_F(KernelFixture, BarrierSynchronisesProcesses)
{
    const int b = kernel->createBarrier(2);
    Process *fast = spawn(2, {ComputeAction{10 * kMs}, BarrierAction{b},
                              ComputeAction{10 * kMs}});
    Process *slow = spawn(3, {ComputeAction{200 * kMs}, BarrierAction{b},
                              ComputeAction{10 * kMs}});
    run();
    // The fast process waits at the barrier for the slow one.
    EXPECT_NEAR(toMillis(fast->endTime), toMillis(slow->endTime), 15.0);
    EXPECT_GT(toMillis(fast->blockedTime), 150.0);
}

TEST_F(KernelFixture, SpinBarrierBurnsCpuWhileWaiting)
{
    const int b = kernel->createBarrier(2);
    Process *fast = spawn(2, {ComputeAction{10 * kMs},
                              BarrierAction{b, true},
                              ComputeAction{10 * kMs}});
    Process *slow = spawn(3, {ComputeAction{200 * kMs},
                              BarrierAction{b, true},
                              ComputeAction{10 * kMs}});
    run();
    // Both finish together, but unlike a blocking barrier the fast
    // rank spent the wait *running* (its CPU was never released).
    EXPECT_NEAR(toMillis(fast->endTime), toMillis(slow->endTime), 5.0);
    EXPECT_GT(toMillis(fast->cpuTime), 180.0); // 10+10 compute + spin
    EXPECT_LT(toMillis(fast->blockedTime), 5.0);
}

TEST_F(KernelFixture, SpinBarrierReleasesPreemptedWaiter)
{
    // One CPU: the spinner gets preempted by the slice round-robin
    // while waiting; releasing the barrier must still un-spin it.
    EventQueue ev2;
    SmpScheduler one{ev2, 1};
    PhysicalMemory pm{kPages * 4096};
    VirtualMemory vmem{pm};
    BufferCache bc;
    FileSystem filesys;
    DiskModel model{DiskParams{}};
    DiskDevice dd(ev2, model, std::make_unique<CScanScheduler>(),
                  Rng(7));
    filesys.addDisk(0, model.totalSectors());
    Kernel k(ev2, vmem, bc, filesys, one,
             std::vector<DiskDevice *>{&dd}, Rng(11));
    vmem.registerSpu(2);
    vmem.setEntitled(2, kPages);
    vmem.setAllowed(2, kPages);
    vmem.setAllowed(kKernelSpu, kPages);
    vmem.setAllowed(kSharedSpu, kPages);

    const int b = k.createBarrier(2);
    Process *spinner = k.createProcess(
        2, kNoJob, "spinner",
        std::make_unique<ScriptBehavior>(std::vector<Action>{
            BarrierAction{b, true}, ComputeAction{5 * kMs}}),
        0);
    Process *late = k.createProcess(
        2, kNoJob, "late",
        std::make_unique<ScriptBehavior>(std::vector<Action>{
            ComputeAction{100 * kMs}, BarrierAction{b, true}}),
        kMs);
    k.start();
    while (k.liveProcesses() > 0 && ev2.now() < 10 * kSec) {
        if (!ev2.runOne())
            break;
    }
    EXPECT_EQ(spinner->state(), ProcState::Exited);
    EXPECT_EQ(late->state(), ProcState::Exited);
    EXPECT_LT(toMillis(ev2.now()), 300.0);
}

TEST_F(KernelFixture, BarrierIsCyclic)
{
    const int b = kernel->createBarrier(2);
    std::vector<Action> scriptA, scriptB;
    for (int i = 0; i < 5; ++i) {
        scriptA.push_back(ComputeAction{5 * kMs});
        scriptA.push_back(BarrierAction{b});
        scriptB.push_back(ComputeAction{10 * kMs});
        scriptB.push_back(BarrierAction{b});
    }
    Process *pa = spawn(2, std::move(scriptA));
    Process *pb = spawn(3, std::move(scriptB));
    run();
    EXPECT_EQ(pa->state(), ProcState::Exited);
    EXPECT_EQ(pb->state(), ProcState::Exited);
    // Five rounds paced by the slower rank: ~50 ms.
    EXPECT_NEAR(toMillis(events.now()), 50.0, 10.0);
}

TEST_F(KernelFixture, LockSerializesHolders)
{
    const int l = kernel->createLock(false);
    Process *a = spawn(2, {LockAction{l, true, 100 * kMs}});
    Process *b = spawn(3, {LockAction{l, true, 100 * kMs}});
    run();
    // Total elapsed ~200 ms although two CPUs were available.
    EXPECT_GE(toMillis(events.now()), 195.0);
    EXPECT_EQ(a->state(), ProcState::Exited);
    EXPECT_EQ(b->state(), ProcState::Exited);
}

TEST_F(KernelFixture, RwLockAllowsParallelReaders)
{
    const int l = kernel->createLock(true);
    spawn(2, {LockAction{l, false, 100 * kMs}});
    spawn(3, {LockAction{l, false, 100 * kMs}});
    run();
    EXPECT_LT(toMillis(events.now()), 150.0);
}

TEST_F(KernelFixture, MemoryPressureCausesRefaults)
{
    // Two processes whose combined working sets exceed the machine.
    vm.setAllowed(2, kPages);
    spawn(2, {GrowMemAction{1500}, ComputeAction{2 * kSec}});
    spawn(2, {GrowMemAction{1500}, ComputeAction{2 * kSec}});
    run(600 * kSec);
    EXPECT_GT(kernel->stats().refaults.value(), 10u);
    EXPECT_GT(kernel->stats().pageoutWrites.value(), 0u);
}

TEST_F(KernelFixture, AllowedLimitConfinesSpu)
{
    // SPU 2 capped at 300 pages wants 600: it must thrash against its
    // own cap while the machine still has free memory.
    vm.setAllowed(2, 300);
    vm.setEntitled(2, 300);
    spawn(2, {GrowMemAction{600}, ComputeAction{kSec}});
    run(600 * kSec);
    EXPECT_LE(vm.levels(2).used, 300u);
    EXPECT_GT(kernel->stats().refaults.value(), 0u);
    EXPECT_GT(phys.freePages(), kPages / 2); // machine stayed mostly free
}

TEST_F(KernelFixture, PressureNotedWhenAtLimit)
{
    vm.setAllowed(2, 100);
    spawn(2, {GrowMemAction{200}, ComputeAction{500 * kMs}});
    kernel->start();
    // Run a little while, then check pressure was recorded.
    events.runAll(200 * kMs);
    EXPECT_GT(vm.pressure(2), 0u);
}

TEST_F(KernelFixture, SecondSpuTouchingBlockReclassifiesToShared)
{
    const FileId f = fs.createFile(0, 32 * 1024);
    spawn(2, {ReadAction{f, 0, 32 * 1024}});
    spawn(3, {SleepAction{kSec}, ReadAction{f, 0, 32 * 1024}});
    run();
    EXPECT_GT(vm.levels(kSharedSpu).used, 0u);
    EXPECT_GT(cache.pagesOf(kSharedSpu), 0u);
    EXPECT_EQ(cache.pagesOf(2), 0u); // all its blocks moved to shared
}

TEST_F(KernelFixture, ExitReleasesEverything)
{
    spawn(2, {GrowMemAction{500}, ComputeAction{300 * kMs}});
    run();
    EXPECT_EQ(vm.levels(2).used, 0u);
    EXPECT_EQ(kernel->liveProcesses(), 0u);
}

TEST_F(KernelFixture, PageoutDaemonEnforcesLoweredAllowance)
{
    spawn(2, {GrowMemAction{800}, ComputeAction{300 * kMs},
              SleepAction{2 * kSec}});
    kernel->start();
    events.runAll(400 * kMs);
    ASSERT_GT(vm.levels(2).used, 700u);
    // Revoke: lower the allowance; the daemon must shrink usage.
    vm.setAllowed(2, 200);
    events.runAll(3 * kSec);
    EXPECT_LE(vm.levels(2).used, 250u);
}

TEST_F(KernelFixture, ReadBeyondCacheBudgetStillCompletes)
{
    // A file much bigger than memory: the cache recycles itself.
    const std::uint64_t bytes = (kPages + 1000) * 4096;
    const FileId f = fs.createFile(0, bytes);
    std::vector<Action> script;
    for (std::uint64_t off = 0; off < bytes; off += 64 * 1024) {
        script.push_back(ReadAction{
            f, off, std::min<std::uint64_t>(64 * 1024, bytes - off)});
    }
    Process *p = spawn(2, std::move(script));
    run(600 * kSec);
    EXPECT_EQ(p->state(), ProcState::Exited);
    // The cache recycled itself and never outgrew physical memory.
    EXPECT_LE(cache.size(), kPages);
    EXPECT_LE(vm.levels(2).used, kPages);
}

TEST_F(KernelFixture, PriorityInheritanceShortensLockWait)
{
    // One CPU: a holder with a long critical section competes with
    // CPU hogs while a fresh waiter blocks on the lock. Inheritance
    // lets the holder finish the section without losing the CPU.
    auto waiterEnd = [&](bool inheritance) {
        EventQueue ev;
        PhysicalMemory pm{kPages * 4096};
        VirtualMemory vmem{pm};
        BufferCache bc;
        FileSystem filesys;
        SmpScheduler s1{ev, 1};
        DiskModel model{DiskParams{}};
        DiskDevice dd(ev, model, std::make_unique<CScanScheduler>(),
                      Rng(7));
        filesys.addDisk(0, model.totalSectors());
        KernelConfig kc;
        kc.lockPriorityInheritance = inheritance;
        Kernel k(ev, vmem, bc, filesys, s1,
                 std::vector<DiskDevice *>{&dd}, Rng(11), kc);
        vmem.registerSpu(2);
        vmem.setEntitled(2, kPages);
        vmem.setAllowed(2, kPages);
        vmem.setAllowed(kKernelSpu, kPages);
        vmem.setAllowed(kSharedSpu, kPages);

        const int l = k.createLock(false);
        k.createProcess(2, kNoJob, "holder",
                        std::make_unique<ScriptBehavior>(
                            std::vector<Action>{
                                LockAction{l, true, 300 * kMs}}),
                        0);
        for (int i = 0; i < 2; ++i) {
            k.createProcess(2, kNoJob, "hog" + std::to_string(i),
                            std::make_unique<ScriptBehavior>(
                                std::vector<Action>{
                                    ComputeAction{2 * kSec}}),
                            5 * kMs);
        }
        Process *w = k.createProcess(
            2, kNoJob, "waiter",
            std::make_unique<ScriptBehavior>(
                std::vector<Action>{LockAction{l, true, kMs}}),
            10 * kMs);
        k.start();
        while (k.liveProcesses() > 0 && ev.now() < 30 * kSec) {
            if (!ev.runOne())
                break;
        }
        return w->endTime;
    };

    const Time with = waiterEnd(true);
    const Time without = waiterEnd(false);
    // Without inheritance, the holder round-robins with two hogs
    // (~3x the critical section); with it, the section runs through.
    EXPECT_LT(toMillis(with), 450.0);
    EXPECT_GT(toMillis(without), 1.4 * toMillis(with));
}

TEST_F(KernelFixture, WriteThrottleEngagesOnFloods)
{
    KernelConfig kc;
    kc.writeThrottleSectors = 256; // tiny: trigger quickly
    kernel = std::make_unique<Kernel>(events, vm, cache, fs, sched,
                                      std::vector<DiskDevice *>{
                                          disk.get()},
                                      Rng(13), kc);
    const FileId f = fs.createFile(0, 8 << 20);
    std::vector<Action> script;
    for (std::uint64_t off = 0; off < (8u << 20); off += 64 * 1024)
        script.push_back(WriteAction{f, off, 64 * 1024, false});
    spawn(2, std::move(script));
    run(600 * kSec);
    EXPECT_GT(kernel->stats().throttleStalls.value(), 0u);
}
