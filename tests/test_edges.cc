/**
 * @file
 * Odds-and-ends edge coverage: tiny machines, degenerate workloads,
 * boundary configurations — the inputs a downstream user will
 * eventually feed the library.
 */

#include <gtest/gtest.h>

#include "src/piso.hh"

using namespace piso;

TEST(Edges, OneCpuOneSpuMachineWorks)
{
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 4 * kMiB;
    cfg.scheme = Scheme::PIso;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "only"});
    sim.addJob(u, makeScriptJob("j", {ComputeAction{50 * kMs}}));
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_NEAR(r.job("j").responseSec(), 0.05, 0.01);
}

TEST(Edges, ManySpusOnTinyMachine)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 16 * kMiB;
    cfg.scheme = Scheme::PIso;
    cfg.seed = 2;
    Simulation sim(cfg);
    for (int i = 0; i < 12; ++i) {
        const SpuId u = sim.addSpu({.name = "u" + std::to_string(i)});
        sim.addJob(u, makeScriptJob("j" + std::to_string(i),
                                    {ComputeAction{20 * kMs}}));
    }
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.jobs.size(), 12u);
}

TEST(Edges, ZeroComputeJobExitsImmediately)
{
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 4 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    sim.addJob(u, makeScriptJob("empty", {}));
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_LT(r.job("empty").responseSec(), 0.001);
}

TEST(Edges, JobOfManyTinyActions)
{
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 8 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    std::vector<Action> script;
    for (int i = 0; i < 2000; ++i)
        script.push_back(ComputeAction{50 * kUs});
    sim.addJob(u, makeScriptJob("chatter", std::move(script)));
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_NEAR(r.job("chatter").responseSec(), 0.1, 0.02);
}

TEST(Edges, GrowShrinkChurnConserves)
{
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 8 * kMiB;
    cfg.scheme = Scheme::PIso;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    std::vector<Action> script;
    for (int i = 0; i < 20; ++i) {
        script.push_back(GrowMemAction{200});
        script.push_back(ComputeAction{10 * kMs});
        script.push_back(ShrinkMemAction{200});
    }
    sim.addJob(u, makeScriptJob("churn", std::move(script)));
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(sim.vm().levels(u).used, 0u);
}

TEST(Edges, ShrinkBeyondResidentIsSafe)
{
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 8 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    sim.addJob(u, makeScriptJob("over", {GrowMemAction{50},
                                         ComputeAction{20 * kMs},
                                         ShrinkMemAction{5000},
                                         ComputeAction{kMs}}));
    EXPECT_TRUE(sim.run().completed);
}

TEST(Edges, ReadOfZeroBytesIsFree)
{
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 8 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    JobSpec j;
    j.name = "z";
    j.build = [](Kernel &, WorkloadEnv &env) {
        const FileId f = env.fs.createFile(env.disk, 4096);
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "z", std::make_unique<ScriptBehavior>(std::vector<Action>{
                     ReadAction{f, 100, 0}})});
        return procs;
    };
    sim.addJob(u, std::move(j));
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.kernel.readRequests.value(), 0u);
}

TEST(Edges, BarrierOfWidthOneNeverBlocks)
{
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 8 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    JobSpec j;
    j.name = "solo";
    j.build = [](Kernel &k, WorkloadEnv &) {
        const int b = k.createBarrier(1);
        std::vector<Action> script;
        for (int i = 0; i < 10; ++i) {
            script.push_back(ComputeAction{kMs});
            script.push_back(BarrierAction{b});
        }
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "solo",
            std::make_unique<ScriptBehavior>(std::move(script))});
        return procs;
    };
    sim.addJob(u, std::move(j));
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    EXPECT_NEAR(r.job("solo").responseSec(), 0.01, 0.005);
}

TEST(Edges, WholeMemoryWorkingSetOnSmp)
{
    // A single process wanting nearly all of RAM under SMP must
    // still converge (daemon keeps a small reserve; the process
    // steady-states just below its working set).
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 8 * kMiB; // 2048 pages
    cfg.scheme = Scheme::Smp;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    ComputeSpec big;
    big.totalCpu = 300 * kMs;
    big.wsPages = 1400;
    sim.addJob(u, makeComputeJob("big", big));
    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
}

TEST(Edges, SequentialJobsReuseWarmCache)
{
    // Job 2 reads the file job 1 wrote: the second job's reads mostly
    // hit the (persisting) buffer cache.
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 16 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});

    FileId shared = kNoFile;
    JobSpec writer;
    writer.name = "writer";
    writer.build = [&shared](Kernel &, WorkloadEnv &env) {
        shared = env.fs.createFile(env.disk, 256 * 1024);
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "w", std::make_unique<ScriptBehavior>(std::vector<Action>{
                     WriteAction{shared, 0, 256 * 1024, false}})});
        return procs;
    };
    sim.addJob(u, std::move(writer));

    JobSpec reader;
    reader.name = "reader";
    reader.startAt = kSec;
    reader.build = [&shared](Kernel &, WorkloadEnv &) {
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "r", std::make_unique<ScriptBehavior>(std::vector<Action>{
                     ReadAction{shared, 0, 256 * 1024}})});
        return procs;
    };
    sim.addJob(u, std::move(reader));

    const SimResults r = sim.run();
    EXPECT_TRUE(r.completed);
    // The reader found everything cached: zero demand read requests.
    EXPECT_EQ(r.kernel.readRequests.value(), 0u);
    EXPECT_GT(r.kernel.cacheHits.value(), 60u);
}

TEST(Edges, MaxTimeZeroProducesEmptyIncompleteRun)
{
    SystemConfig cfg;
    cfg.cpus = 1;
    cfg.memoryBytes = 4 * kMiB;
    cfg.scheme = Scheme::Smp;
    cfg.maxTime = 0;
    cfg.seed = 1;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    sim.addJob(u, makeScriptJob("j", {ComputeAction{kSec}}));
    const SimResults r = sim.run();
    EXPECT_FALSE(r.completed);
}
