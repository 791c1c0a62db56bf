/**
 * @file
 * Tests for the workload models: action streams and end-to-end runs.
 */

#include <gtest/gtest.h>

#include "src/piso.hh"
#include "tests/pmake_ref_util.hh"

using namespace piso;

namespace {

SystemConfig
smallMachine()
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 32 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 5;
    return cfg;
}

} // namespace

TEST(ScriptBehavior, PlaysBackThenExits)
{
    ScriptBehavior b({ComputeAction{kMs}, SleepAction{kMs}});
    Process p(1, 2, kNoJob, "p",
              std::make_unique<ScriptBehavior>(std::vector<Action>{}),
              Rng(1));
    Rng rng(1);
    BehaviorContext ctx{0, rng};
    EXPECT_TRUE(std::holds_alternative<ComputeAction>(b.next(p, ctx)));
    EXPECT_TRUE(std::holds_alternative<SleepAction>(b.next(p, ctx)));
    EXPECT_TRUE(std::holds_alternative<ExitAction>(b.next(p, ctx)));
    EXPECT_TRUE(std::holds_alternative<ExitAction>(b.next(p, ctx)));
}

TEST(ComputeBehavior, EmitsGrowThenComputeChunks)
{
    ComputeSpec spec;
    spec.totalCpu = 250 * kMs;
    spec.chunk = 100 * kMs;
    spec.wsPages = 32;
    spec.jitter = 0.0;
    ComputeBehavior b(spec);
    Process p(1, 2, kNoJob, "p",
              std::make_unique<ScriptBehavior>(std::vector<Action>{}),
              Rng(1));
    Rng rng(1);
    BehaviorContext ctx{0, rng};
    EXPECT_TRUE(std::holds_alternative<GrowMemAction>(b.next(p, ctx)));
    Time total = 0;
    Action a = b.next(p, ctx);
    while (std::holds_alternative<ComputeAction>(a)) {
        total += std::get<ComputeAction>(a).duration;
        a = b.next(p, ctx);
    }
    EXPECT_TRUE(std::holds_alternative<ExitAction>(a));
    EXPECT_EQ(total, 250 * kMs);
}

TEST(Job, TracksCompletion)
{
    Job j(0, "j", 2, 100);
    j.addProcess();
    j.addProcess();
    EXPECT_FALSE(j.completed());
    EXPECT_FALSE(j.processExited(500));
    EXPECT_TRUE(j.processExited(900));
    EXPECT_TRUE(j.completed());
    EXPECT_EQ(j.endTime(), 900u);
    EXPECT_EQ(j.response(), 800u);
}

TEST(Workloads, ComputeJobRunsToCompletion)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    ComputeSpec spec;
    spec.totalCpu = 300 * kMs;
    sim.addJob(u, makeComputeJob("hog", spec));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_NEAR(r.job("hog").responseSec(), 0.3, 0.05);
}

TEST(Workloads, PmakeCompletesAndDoesScatteredIo)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    PmakeConfig cfg;
    cfg.parallelism = 2;
    cfg.filesPerWorker = 6;
    sim.addJob(u, makePmake("pm", cfg));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.job("pm").responseSec(), 0.3);
    // Source reads + object writes + metadata syncs hit the disk.
    EXPECT_GT(r.disks[0].requests, 20u);
    EXPECT_GT(r.kernel.syncWriteRequests.value(), 10u);
}

TEST(Workloads, PmakeParallelismUsesBothCpus)
{
    // One worker vs two workers: two workers nearly halve the
    // response on a 2-CPU machine.
    PmakeConfig one;
    one.parallelism = 1;
    one.filesPerWorker = 12;
    Simulation sim1(smallMachine());
    sim1.addJob(sim1.addSpu({.name = "u"}), makePmake("pm", one));
    const double t1 = sim1.run().job("pm").responseSec();

    PmakeConfig two;
    two.parallelism = 2;
    two.filesPerWorker = 6;
    Simulation sim2(smallMachine());
    sim2.addJob(sim2.addSpu({.name = "u"}), makePmake("pm", two));
    const double t2 = sim2.run().job("pm").responseSec();
    EXPECT_LT(t2, 0.75 * t1);
}

TEST(Workloads, PmakeWorkersReplayTheUnrolledScript)
{
    struct Case
    {
        bool lock;
        bool metadataSync;
        int workers;
        int files;
    };
    const Case cases[] = {
        {false, true, 2, 12}, {true, true, 3, 5}, {false, false, 1, 1},
        {true, false, 2, 1},  {true, true, 1, 7},
    };
    Simulation sim(smallMachine());
    const int lock = sim.kernel().createLock(true);
    for (const Case &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << "lock=" << c.lock << " sync=" << c.metadataSync
                     << " workers=" << c.workers << " files=" << c.files);
        PmakeConfig cfg;
        cfg.parallelism = c.workers;
        cfg.filesPerWorker = c.files;
        cfg.metadataSync = c.metadataSync;
        cfg.inodeLock = c.lock ? lock : -1;

        // The same job laid out three times: twice by makePmake (a
        // second copy receives restored cursors), once by the
        // reference unroller.
        FileSystem fs, twinFs, refFs;
        for (FileSystem *f : {&fs, &twinFs, &refFs})
            f->addDisk(0, 2000000);
        WorkloadEnv env{fs, Rng(42)};
        WorkloadEnv twinEnv{twinFs, Rng(42)};
        WorkloadEnv refEnv{refFs, Rng(42)};
        const JobSpec job = makePmake("pm", cfg);
        std::vector<ProcessSpec> procs = job.build(sim.kernel(), env);
        std::vector<ProcessSpec> twins = job.build(sim.kernel(), twinEnv);
        const auto scripts = testutil::unrollPmake("pm", cfg, refEnv);

        // Same file ids, names and placements, same fs and jitter
        // draws.
        CkptWriter table, refTable;
        fs.save(table);
        refFs.save(refTable);
        EXPECT_EQ(table.payload(), refTable.payload());
        EXPECT_EQ(env.rng.next(), refEnv.rng.next());

        ASSERT_EQ(procs.size(), scripts.size());
        Process self(1, 2, kNoJob, "p",
                     std::make_unique<ScriptBehavior>(
                         std::vector<Action>{}),
                     Rng(1));
        Rng rng(1);
        const BehaviorContext ctx{0, rng};
        for (std::size_t w = 0; w < procs.size(); ++w) {
            Behavior &worker = *procs[w].behavior;
            Behavior &twin = *twins[w].behavior;
            const std::vector<Action> &script = scripts[w];
            for (std::size_t i = 0; i <= script.size(); ++i) {
                // A cursor saved at index i restores to the same spot.
                CkptWriter cursor;
                worker.save(cursor);
                CkptReader r(cursor.image(0));
                twin.load(r);
                r.expectEnd();
                CkptWriter again;
                twin.save(again);
                EXPECT_EQ(again.payload(), cursor.payload());

                const std::string want =
                    i < script.size()
                        ? testutil::describeAction(script[i])
                        : testutil::describeAction(ExitAction{});
                EXPECT_EQ(testutil::describeAction(worker.next(self, ctx)),
                          want)
                    << "worker " << w << " action " << i;
                EXPECT_EQ(testutil::describeAction(twin.next(self, ctx)),
                          want)
                    << "worker " << w << " action " << i;
            }
            // Exit repeats; the cursor stays at the end.
            EXPECT_TRUE(std::holds_alternative<ExitAction>(
                worker.next(self, ctx)));
            CkptWriter end, want;
            worker.save(end);
            want.u64(script.size());
            EXPECT_EQ(end.payload(), want.payload());

            CkptWriter past;
            past.u64(script.size() + 1);
            CkptReader r(past.image(0));
            EXPECT_THROW(twin.load(r), ConfigError);
        }
    }
}

TEST(Workloads, OceanBarriersKeepRanksTogether)
{
    SystemConfig cfg = smallMachine();
    cfg.cpus = 4;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    OceanConfig oc;
    oc.processes = 4;
    oc.iterations = 50;
    oc.grain = 10 * kMs;
    sim.addJob(u, makeOcean("ocean", oc));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    // 50 iterations x ~10 ms; barrier waits make it the max of the
    // jittered ranks, so a bit over 0.5 s.
    EXPECT_GT(r.job("ocean").responseSec(), 0.5);
    EXPECT_LT(r.job("ocean").responseSec(), 0.8);
}

TEST(Workloads, OceanSuffersWhenCpuStarved)
{
    // 4 ranks on 2 CPUs: every barrier round needs two batches, so
    // response at least doubles.
    OceanConfig oc;
    oc.processes = 4;
    oc.iterations = 50;
    oc.grain = 10 * kMs;

    SystemConfig four = smallMachine();
    four.cpus = 4;
    Simulation sim4(four);
    sim4.addJob(sim4.addSpu({.name = "u"}), makeOcean("ocean", oc));
    const double t4 = sim4.run().job("ocean").responseSec();

    Simulation sim2(smallMachine()); // 2 CPUs
    sim2.addJob(sim2.addSpu({.name = "u"}), makeOcean("ocean", oc));
    const double t2 = sim2.run().job("ocean").responseSec();
    EXPECT_GT(t2, 1.8 * t4);
}

TEST(Workloads, FileCopyMovesAllData)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    FileCopyConfig cc;
    cc.bytes = 4 * kMiB;
    sim.addJob(u, makeFileCopy("cp", cc));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    // 4 MiB read + 4 MiB written = 16384 sectors, give or take
    // read-ahead overshoot and delayed-write timing.
    EXPECT_GT(r.disks[0].sectors, 12000u);
}

TEST(Workloads, FileCopyBenefitsFromReadAhead)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    FileCopyConfig cc;
    cc.bytes = 4 * kMiB;
    sim.addJob(u, makeFileCopy("cp", cc));
    const SimResults r = sim.run();
    EXPECT_GT(r.kernel.readAheadRequests.value(),
              r.kernel.readRequests.value());
}

TEST(Workloads, CopyRequestCountScalesWithSize)
{
    auto requests = [](std::uint64_t bytes) {
        SystemConfig cfg;
        cfg.cpus = 2;
        cfg.memoryBytes = 44 * kMiB;
        cfg.scheme = Scheme::Smp;
        cfg.seed = 5;
        Simulation sim(cfg);
        FileCopyConfig cc;
        cc.bytes = bytes;
        sim.addJob(sim.addSpu({.name = "u"}), makeFileCopy("cp", cc));
        return sim.run().disks[0].requests;
    };
    const auto small = requests(1 * kMiB);
    const auto big = requests(8 * kMiB);
    EXPECT_GT(big, 5 * small);
}

TEST(Workloads, MakeScriptJobRuns)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    sim.addJob(u, makeScriptJob("s", {ComputeAction{50 * kMs}}));
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_NEAR(r.job("s").responseSec(), 0.05, 0.02);
}

TEST(Workloads, JobStartAtDelaysProcesses)
{
    Simulation sim(smallMachine());
    const SpuId u = sim.addSpu({.name = "u"});
    sim.addJob(u, makeScriptJob("late", {ComputeAction{10 * kMs}},
                                2 * kSec));
    const SimResults r = sim.run();
    EXPECT_GE(r.job("late").end, 2 * kSec);
    // Response measured from the job's own start, not t=0.
    EXPECT_LT(r.job("late").responseSec(), 0.1);
}

TEST(Workloads, InvalidConfigsRejected)
{
    EXPECT_THROW(makePmake("bad", PmakeConfig{.parallelism = 0}),
                 std::runtime_error);
    OceanConfig oc;
    oc.iterations = 0;
    EXPECT_THROW(makeOcean("bad", oc), std::runtime_error);
    FileCopyConfig cc;
    cc.bytes = 0;
    EXPECT_THROW(makeFileCopy("bad", cc), std::runtime_error);
}
