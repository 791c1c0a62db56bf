/**
 * @file
 * Property-based tests: invariants that must hold across schemes,
 * machine sizes, seeds, and loads (parameterized gtest sweeps).
 */

#include <gtest/gtest.h>

#include <tuple>

#include "src/piso.hh"
#include "tests/fn_sink.hh"

using namespace piso;

// ---------------------------------------------------------------------
// Conservation properties across scheme x cpus
// ---------------------------------------------------------------------

class ConservationProp
    : public ::testing::TestWithParam<std::tuple<Scheme, int>>
{
};

TEST_P(ConservationProp, CpuTimeNeverExceedsCapacity)
{
    const auto [scheme, cpus] = GetParam();
    SystemConfig cfg;
    cfg.cpus = cpus;
    cfg.memoryBytes = 32 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = scheme;
    cfg.seed = 3;
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
    const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});
    for (int i = 0; i < 3; ++i) {
        ComputeSpec spec;
        spec.totalCpu = 300 * kMs;
        sim.addJob(i % 2 ? a : b,
                   makeComputeJob("j" + std::to_string(i), spec));
    }
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);

    Time used = 0;
    for (const auto &[spu, sr] : r.spus)
        used += sr.cpuTime;
    EXPECT_LE(used, static_cast<Time>(cpus) * r.simulatedTime);
    // All requested compute was delivered (plus fault service time).
    EXPECT_GE(used, 900 * kMs);
}

TEST_P(ConservationProp, MemoryNeverOverCommitted)
{
    const auto [scheme, cpus] = GetParam();
    SystemConfig cfg;
    cfg.cpus = cpus;
    cfg.memoryBytes = 16 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = scheme;
    cfg.seed = 3;
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
    const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});
    ComputeSpec big;
    big.totalCpu = 400 * kMs;
    big.wsPages = 2500;
    sim.addJob(a, makeComputeJob("bigA", big));
    sim.addJob(b, makeComputeJob("bigB", big));

    // Sample the invariant as the run progresses.
    bool violated = false;
    test::FnSink sink(sim.events());
    std::function<void()> probe = [&] {
        std::uint64_t total = 0;
        for (SpuId spu : sim.vm().spus())
            total += sim.vm().levels(spu).used;
        if (total > sim.vm().totalPages())
            violated = true;
        sink.scheduleAfter(50 * kMs, probe);
    };
    sink.schedule(0, probe);

    sim.run();
    EXPECT_FALSE(violated);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSizes, ConservationProp,
    ::testing::Combine(::testing::Values(Scheme::Smp, Scheme::Quota,
                                         Scheme::PIso),
                       ::testing::Values(2, 4, 8)),
    [](const auto &info) {
        return std::string(schemeName(std::get<0>(info.param))) + "_" +
               std::to_string(std::get<1>(info.param)) + "cpu";
    });

// ---------------------------------------------------------------------
// Quota hard limit across seeds
// ---------------------------------------------------------------------

class QuotaLimitProp : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(QuotaLimitProp, UsageNeverExceedsQuota)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 16 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = Scheme::Quota;
    cfg.seed = GetParam();
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
    sim.addSpu({.name = "b", .homeDisk = 1});
    ComputeSpec big;
    big.totalCpu = 300 * kMs;
    big.wsPages = 3000; // way over the quota
    sim.addJob(a, makeComputeJob("big", big));

    bool violated = false;
    test::FnSink sink(sim.events());
    std::function<void()> probe = [&] {
        if (sim.vm().levels(a).used > sim.vm().levels(a).allowed)
            violated = true;
        sink.scheduleAfter(20 * kMs, probe);
    };
    sink.schedule(0, probe);
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_FALSE(violated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuotaLimitProp,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42));

// ---------------------------------------------------------------------
// SMP response degrades monotonically with load
// ---------------------------------------------------------------------

class SmpLoadProp : public ::testing::TestWithParam<int>
{
  public:
    static double
    lightResponse(int hogs)
    {
        SystemConfig cfg;
        cfg.cpus = 2;
        cfg.memoryBytes = 32 * kMiB;
        cfg.scheme = Scheme::Smp;
        cfg.seed = 11;
        Simulation sim(cfg);
        const SpuId a = sim.addSpu({.name = "a"});
        ComputeSpec light;
        light.totalCpu = 200 * kMs;
        light.wsPages = 32;
        sim.addJob(a, makeComputeJob("light", light));
        for (int i = 0; i < hogs; ++i) {
            ComputeSpec hog;
            hog.totalCpu = 2 * kSec;
            hog.wsPages = 32;
            sim.addJob(a, makeComputeJob("hog" + std::to_string(i),
                                         hog));
        }
        return sim.run().job("light").responseSec();
    }
};

TEST_P(SmpLoadProp, MoreLoadMeansSlowerResponse)
{
    const int hogs = GetParam();
    const double with = lightResponse(hogs);
    const double less = lightResponse(hogs - 2);
    EXPECT_GT(with, less);
}

INSTANTIATE_TEST_SUITE_P(Loads, SmpLoadProp, ::testing::Values(4, 6, 8));

// ---------------------------------------------------------------------
// PIso isolation invariant across machine widths
// ---------------------------------------------------------------------

class PisoIsolationProp : public ::testing::TestWithParam<int>
{
};

TEST_P(PisoIsolationProp, LightSpuUnaffectedByFlood)
{
    const int cpus = GetParam();
    auto response = [&](int foreignHogs) {
        SystemConfig cfg;
        cfg.cpus = cpus;
        cfg.memoryBytes = 32 * kMiB;
        cfg.diskCount = 2;
        cfg.scheme = Scheme::PIso;
        cfg.seed = 19;
        Simulation sim(cfg);
        const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
        const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});
        ComputeSpec light;
        light.totalCpu = 300 * kMs;
        light.wsPages = 64;
        sim.addJob(a, makeComputeJob("light", light));
        for (int i = 0; i < foreignHogs; ++i) {
            ComputeSpec hog;
            hog.totalCpu = 2 * kSec;
            hog.wsPages = 64;
            sim.addJob(b, makeComputeJob("hog" + std::to_string(i),
                                         hog));
        }
        return sim.run().job("light").responseSec();
    };
    const double solo = response(0);
    const double flooded = response(3 * cpus);
    EXPECT_LT(flooded, 1.15 * solo)
        << "isolation broken on " << cpus << " CPUs";
}

INSTANTIATE_TEST_SUITE_P(Widths, PisoIsolationProp,
                         ::testing::Values(2, 4, 8));

// ---------------------------------------------------------------------
// Disk accounting conservation across disk policies
// ---------------------------------------------------------------------

class DiskAccountingProp : public ::testing::TestWithParam<DiskPolicy>
{
};

TEST_P(DiskAccountingProp, SectorsConserved)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 32 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = Scheme::PIso;
    cfg.diskPolicy = GetParam();
    cfg.seed = 23;
    Simulation sim(cfg);
    const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
    const SpuId b = sim.addSpu({.name = "b", .homeDisk = 0});
    FileCopyConfig cc;
    cc.bytes = 2 * kMiB;
    sim.addJob(a, makeFileCopy("cpA", cc));
    PmakeConfig pm;
    pm.parallelism = 1;
    pm.filesPerWorker = 4;
    sim.addJob(b, makePmake("pm", pm));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);

    std::uint64_t perSpu = 0;
    for (const auto &[spu, sd] : r.disks[0].perSpu)
        perSpu += sd.sectors;
    EXPECT_EQ(perSpu, r.disks[0].sectors);
    // The copy alone moves >= 2 MiB read + write.
    EXPECT_GE(r.disks[0].sectors, 2 * (2 * kMiB / 512));
}

INSTANTIATE_TEST_SUITE_P(Policies, DiskAccountingProp,
                         ::testing::Values(DiskPolicy::HeadPosition,
                                           DiskPolicy::BlindFair,
                                           DiskPolicy::FairPosition),
                         [](const auto &info) {
                             return std::string(
                                 diskPolicyName(info.param));
                         });

// ---------------------------------------------------------------------
// BW threshold trade-off direction (Section 3.3)
// ---------------------------------------------------------------------

class BwThresholdProp : public ::testing::TestWithParam<double>
{
  public:
    static SimResults
    runWith(double threshold)
    {
        SystemConfig cfg;
        cfg.cpus = 2;
        cfg.memoryBytes = 44 * kMiB;
        cfg.diskCount = 1;
        cfg.scheme = Scheme::PIso;
        cfg.diskPolicy = DiskPolicy::FairPosition;
        cfg.bwThresholdSectors = threshold;
        cfg.diskParams.seekScale = 0.5;
        cfg.seed = 29;
        Simulation sim(cfg);
        const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
        const SpuId b = sim.addSpu({.name = "b", .homeDisk = 0});
        PmakeConfig pm;
        pm.parallelism = 2;
        pm.filesPerWorker = 8;
        sim.addJob(a, makePmake("pmake", pm));
        FileCopyConfig cc;
        cc.bytes = 8 * kMiB;
        sim.addJob(b, makeFileCopy("copy", cc));
        return sim.run();
    }
};

TEST_P(BwThresholdProp, SmallThresholdProtectsPmake)
{
    const SimResults fair = runWith(GetParam());
    const SimResults loose = runWith(1e15); // effectively pure C-SCAN
    EXPECT_LT(fair.job("pmake").responseSec(),
              loose.job("pmake").responseSec());
}

INSTANTIATE_TEST_SUITE_P(Thresholds, BwThresholdProp,
                         ::testing::Values(64.0, 256.0, 1024.0));

// ---------------------------------------------------------------------
// Determinism across schemes
// ---------------------------------------------------------------------

class DeterminismProp : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(DeterminismProp, IdenticalSeedsIdenticalRuns)
{
    auto once = [&] {
        SystemConfig cfg;
        cfg.cpus = 4;
        cfg.memoryBytes = 24 * kMiB;
        cfg.diskCount = 2;
        cfg.scheme = GetParam();
        cfg.seed = 31;
        Simulation sim(cfg);
        const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
        const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});
        PmakeConfig pm;
        pm.parallelism = 2;
        pm.filesPerWorker = 4;
        sim.addJob(a, makePmake("pm", pm));
        FileCopyConfig cc;
        cc.bytes = 2 * kMiB;
        sim.addJob(b, makeFileCopy("cp", cc));
        return sim.run();
    };
    const SimResults r1 = once();
    const SimResults r2 = once();
    EXPECT_EQ(r1.simulatedTime, r2.simulatedTime);
    EXPECT_EQ(r1.job("pm").end, r2.job("pm").end);
    EXPECT_EQ(r1.job("cp").end, r2.job("cp").end);
    EXPECT_EQ(r1.kernel.refaults.value(), r2.kernel.refaults.value());
}

INSTANTIATE_TEST_SUITE_P(Schemes, DeterminismProp,
                         ::testing::Values(Scheme::Smp, Scheme::Quota,
                                           Scheme::PIso),
                         [](const auto &info) {
                             return schemeName(info.param);
                         });
