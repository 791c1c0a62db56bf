/**
 * @file
 * Fault injection and degraded-mode operation: deterministic replay,
 * bounded retry/backoff, graceful rebalance when hardware goes away,
 * and clean termination on permanent failures.
 */

#include <gtest/gtest.h>

#include "src/config/workload_spec.hh"
#include "src/piso.hh"

using namespace piso;

namespace {

/** Job of one process that reads @p reads blocks of @p bytes from a
 *  fresh file on the SPU's home disk. */
JobSpec
makeReadJob(std::string name, int reads, std::uint64_t bytes)
{
    JobSpec j;
    j.name = name;
    j.build = [name, reads, bytes](Kernel &, WorkloadEnv &env) {
        const FileId f = env.fs.createFile(env.disk, reads * bytes);
        std::vector<Action> script;
        for (int i = 0; i < reads; ++i)
            script.push_back(ReadAction{f, i * bytes, bytes});
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            name, std::make_unique<ScriptBehavior>(std::move(script))});
        return procs;
    };
    return j;
}

SystemConfig
base(Scheme scheme)
{
    SystemConfig cfg;
    cfg.cpus = 4;
    cfg.memoryBytes = 32 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = scheme;
    cfg.seed = 11;
    return cfg;
}

} // namespace

TEST(Faults, RetryBackoffBoundedAndMonotone)
{
    const Time base = 20 * kMs;
    EXPECT_EQ(Kernel::retryBackoff(base, 1), base);
    EXPECT_EQ(Kernel::retryBackoff(base, 2), 2 * base);
    EXPECT_EQ(Kernel::retryBackoff(base, 3), 4 * base);
    Time prev = 0;
    for (int attempt = 1; attempt < 80; ++attempt) {
        const Time b = Kernel::retryBackoff(base, attempt);
        EXPECT_GE(b, prev) << "attempt " << attempt;
        prev = b;
    }
    // The shift is clamped: huge attempt counts neither overflow nor
    // grow past the cap.
    EXPECT_EQ(Kernel::retryBackoff(base, 21), Kernel::retryBackoff(base, 99));
}

TEST(Faults, RetryBackoffClampsInsteadOfOverflowing)
{
    // A large configured base used to overflow Time once the shifted
    // value wrapped; every (base, attempt) combination must now
    // saturate at the one-minute cap instead.
    const Time cap = 60 * kSec;
    const Time huge = kTimeNever / 2;
    for (int attempt = 1; attempt < 100; ++attempt) {
        EXPECT_EQ(Kernel::retryBackoff(huge, attempt), cap)
            << "attempt " << attempt;
    }
    EXPECT_EQ(Kernel::retryBackoff(30 * kSec, 2), cap);
    EXPECT_EQ(Kernel::retryBackoff(45 * kSec, 2), cap);
    EXPECT_EQ(Kernel::retryBackoff(0, 5), 0u);

    // The shared helper honors arbitrary caps and degenerate inputs.
    EXPECT_EQ(retryBackoffClamped(kMs, 4, 5 * kMs), 5 * kMs);
    EXPECT_EQ(retryBackoffClamped(kMs, 3, 5 * kMs), 4 * kMs);
    EXPECT_EQ(retryBackoffClamped(kMs, -7, 5 * kMs), kMs);
    EXPECT_EQ(retryBackoffClamped(kMs, 1000000, kSec), kSec);
    EXPECT_EQ(retryBackoffClamped(kMs, 3, 0), 0u);
}

TEST(Faults, TransientErrorsAreRetriedToCompletion)
{
    SystemConfig cfg = base(Scheme::PIso);
    // Every request issued in the first 50 ms fails; the retry
    // backoff (20/40/80 ms) carries the read past the window.
    cfg.faults.diskError(0, /*disk=*/0, /*duration=*/50 * kMs,
                         /*rate=*/1.0);
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u", .homeDisk = 0});
    sim.addJob(u, makeReadJob("rd", 4, 16 * 1024));
    const SimResults r = sim.run();

    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.job("rd").completed);
    EXPECT_FALSE(r.job("rd").failed);
    EXPECT_GT(r.spus.at(u).ioRetries, 0u);
    EXPECT_EQ(r.spus.at(u).failedOps, 0u);
    EXPECT_GT(r.kernel.diskErrors.value(), 0u);
}

TEST(Faults, RetriesNeverExceedTheCap)
{
    SystemConfig cfg = base(Scheme::PIso);
    // Permanent 100% error rate: every I/O exhausts its retries.
    cfg.faults.diskError(0, /*disk=*/0, /*duration=*/0, /*rate=*/1.0);
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u", .homeDisk = 0});
    sim.addJob(u, makeReadJob("rd", 2, 4096));
    const SimResults r = sim.run();

    const SpuResult &s = r.spus.at(u);
    EXPECT_GE(s.failedOps, 1u);
    // Each abandoned I/O was reissued exactly ioRetryLimit times.
    EXPECT_EQ(s.ioRetries,
              s.failedOps *
                  static_cast<std::uint64_t>(cfg.kernel.ioRetryLimit));
    EXPECT_TRUE(r.job("rd").failed);
    EXPECT_TRUE(r.completed);  // failed, but finished well before maxTime
    EXPECT_LT(r.simulatedTime, 10 * kSec);
}

TEST(Faults, DiskDeathTerminatesCleanly)
{
    SystemConfig cfg = base(Scheme::PIso);
    cfg.faults.diskDead(100 * kMs, /*disk=*/0);
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u", .homeDisk = 0});
    FileCopyConfig cc;
    cc.bytes = 8 * kMiB;
    sim.addJob(u, makeFileCopy("cp", cc));
    const SimResults r = sim.run();

    // The job is reported failed rather than hanging until maxTime.
    EXPECT_TRUE(r.completed);
    EXPECT_TRUE(r.job("cp").failed);
    EXPECT_LT(r.simulatedTime, 60 * kSec);
    EXPECT_GE(r.spus.at(u).failedOps, 1u);
}

TEST(Faults, CpuOfflineRebalancesThePartition)
{
    SystemConfig cfg = base(Scheme::Quota);
    cfg.faults.cpuOffline(500 * kMs, /*count=*/2);
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a"});
    const SpuId b = sim.addSpu({.name = "b"});
    ComputeSpec spec;
    spec.totalCpu = 2 * kSec;
    sim.addJob(a, makeComputeJob("ja", spec));
    sim.addJob(b, makeComputeJob("jb", spec));
    const SimResults r = sim.run();

    EXPECT_TRUE(r.completed);
    EXPECT_EQ(sim.scheduler().onlineCpus(), 2);
    // Equal shares over the remaining capacity: one online home each.
    int forA = 0, forB = 0;
    for (int i = 0; i < cfg.cpus; ++i) {
        const Cpu &c = sim.scheduler().cpu(i);
        if (!c.online) {
            EXPECT_EQ(c.homeSpu, kNoSpu);
            continue;
        }
        forA += c.homeSpu == a;
        forB += c.homeSpu == b;
    }
    EXPECT_EQ(forA, 1);
    EXPECT_EQ(forB, 1);
}

TEST(Faults, MemShrinkRecomputesEntitlements)
{
    SystemConfig cfg = base(Scheme::PIso);
    const std::uint64_t shrink = 2048;
    cfg.faults.memShrink(200 * kMs, shrink);
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a"});
    sim.addSpu({.name = "b"});
    ComputeSpec spec;
    spec.totalCpu = kSec;
    sim.addJob(a, makeComputeJob("j", spec));

    const std::uint64_t before = sim.vm().totalPages();
    const SimResults r = sim.run();

    EXPECT_TRUE(r.completed);
    EXPECT_EQ(sim.vm().totalPages(), before - shrink);
    // Entitlements were recomputed over the degraded pool.
    EXPECT_LT(sim.vm().levels(a).entitled, sim.vm().totalPages());
    EXPECT_GT(sim.vm().levels(a).entitled, 0u);
}

TEST(Faults, IdenticalSeedAndPlanReplayByteIdentical)
{
    const std::string spec =
        "machine cpus=2 memory_mb=24 disks=1 scheme=piso seed=42\n"
        "spu victim share=1 disk=0\n"
        "spu noisy  share=1 disk=0\n"
        "job victim copy name=v bytes_kb=2048\n"
        "job noisy  copy name=n bytes_kb=4096\n"
        "[faults]\n"
        "disk_error at_s=0.1 for_s=0.2 disk=0 rate=0.5\n"
        "disk_slow  at_s=0.5 for_s=1 disk=0 factor=3\n";
    const SimResults r1 = runWorkloadSpec(parseWorkloadSpec(spec));
    const SimResults r2 = runWorkloadSpec(parseWorkloadSpec(spec));
    EXPECT_EQ(formatResultsJson(r1), formatResultsJson(r2));
    EXPECT_EQ(formatResults(r1), formatResults(r2));
}

TEST(Faults, SpecSectionParsesEveryKind)
{
    const std::string text =
        "machine cpus=4 memory_mb=32 disks=2\n"
        "spu u share=1\n"
        "job u compute name=j cpu_ms=100\n"
        "[faults]\n"
        "disk_slow  at_s=2 for_s=4 disk=0 factor=4\n"
        "disk_error at_s=1 for_s=1 disk=1 rate=0.5\n"
        "disk_dead  at_s=8 disk=1\n"
        "cpu_offline at_s=3 count=2\n"
        "cpu_online  at_s=6 count=2\n"
        "mem_shrink at_s=2 mb=8\n"
        "mem_grow   at_s=5 mb=8\n";
    const WorkloadSpec spec = parseWorkloadSpec(text);
    const auto &evs = spec.config.faults.events();
    ASSERT_EQ(evs.size(), 7u);
    EXPECT_EQ(evs[0].kind, FaultKind::DiskSlow);
    EXPECT_EQ(evs[0].at, 2 * kSec);
    EXPECT_EQ(evs[0].duration, 4 * kSec);
    EXPECT_EQ(evs[0].factor, 4.0);
    EXPECT_EQ(evs[1].kind, FaultKind::DiskError);
    EXPECT_EQ(evs[1].disk, 1);
    EXPECT_EQ(evs[1].rate, 0.5);
    EXPECT_EQ(evs[2].kind, FaultKind::DiskDead);
    EXPECT_EQ(evs[3].kind, FaultKind::CpuOffline);
    EXPECT_EQ(evs[3].cpus, 2);
    EXPECT_EQ(evs[4].kind, FaultKind::CpuOnline);
    EXPECT_EQ(evs[5].kind, FaultKind::MemShrink);
    EXPECT_EQ(evs[5].pages, 8 * kMiB / 4096);
    EXPECT_EQ(evs[6].kind, FaultKind::MemGrow);
    EXPECT_EQ(spec.config.faults.maxDiskIndex(), 1);
}

TEST(Faults, SpecSectionRejectsNonsense)
{
    const std::string head =
        "machine cpus=2 memory_mb=16\n"
        "spu u\n"
        "job u compute name=j cpu_ms=10\n"
        "[faults]\n";
    EXPECT_THROW(parseWorkloadSpec(head + "disk_melt at_s=1\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(head + "disk_slow factor=2\n"),
                 std::runtime_error);  // missing at_s
    EXPECT_THROW(parseWorkloadSpec(head + "disk_slow at_s=1 factor=0.5\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(head + "disk_error at_s=1 rate=1.5\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(head + "mem_shrink at_s=1\n"),
                 std::runtime_error);  // missing mb
    EXPECT_THROW(parseWorkloadSpec(head + "disk_slow at_s=1 typo=3\n"),
                 std::runtime_error);
}

TEST(Faults, PlanValidatesAndReferencingMissingDiskIsFatal)
{
    FaultPlan bad;
    EXPECT_THROW(bad.diskSlow(0, 0, 0, 0.5), std::runtime_error);
    EXPECT_THROW(bad.diskError(0, 0, 0, 1.5), std::runtime_error);
    EXPECT_THROW(bad.diskDead(0, -1), std::runtime_error);

    SystemConfig cfg = base(Scheme::Smp);
    cfg.diskCount = 1;
    cfg.faults.diskDead(kSec, /*disk=*/3);  // machine has one disk
    Simulation sim(cfg);
    sim.addJob(sim.addSpu({.name = "u"}),
               makeScriptJob("j", {ComputeAction{kMs}}));
    EXPECT_THROW(sim.run(), std::runtime_error);
}
