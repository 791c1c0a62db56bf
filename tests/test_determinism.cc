/**
 * @file
 * Determinism regression battery for the parallel sweep engine.
 *
 * The contract (docs/sweeps.md): a simulation is a pure function of
 * its spec and seed, and a sweep's JSONL output is a pure function of
 * its plan — never of the worker count or thread scheduling. These
 * tests pin that contract so a future "optimisation" that leaks
 * shared mutable state into the sim core fails loudly here (and under
 * TSan in CI) rather than corrupting published experiment data.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "src/config/workload_spec.hh"
#include "src/exp/runner.hh"
#include "src/metrics/report.hh"
#include "src/piso.hh"
#include "src/sim/trace.hh"

using namespace piso;

namespace {

const char *kSpec = R"(
machine cpus=4 memory_mb=32 disks=2 scheme=piso seed=5
spu alice share=1 disk=0
spu bob share=2 disk=1
job alice pmake   name=build workers=2 files=6
job bob   compute name=hog cpu_ms=2000 ws_pages=300
job bob   copy    name=cp bytes_kb=2048
)";

/** A small 3-scheme x 2-seed plan used by the jobs-invariance tests. */
exp::ExperimentPlan
smallPlan()
{
    exp::ExperimentPlan plan;
    plan.base = parseWorkloadSpec(kSpec);
    plan.axes.push_back(exp::parseGridAxis("scheme=smp,quota,piso"));
    plan.seeds = {1, 2};
    return plan;
}

std::string
sweepJsonl(const exp::ExperimentPlan &plan, int jobs)
{
    return exp::formatSweepJsonl(exp::runPlan(plan, {.jobs = jobs}));
}

} // namespace

// ---------------------------------------------------------------------
// Same spec + seed twice -> byte-identical JSON
// ---------------------------------------------------------------------

TEST(Determinism, RepeatedRunIsByteIdentical)
{
    const WorkloadSpec spec = parseWorkloadSpec(kSpec);
    const std::string a = formatResultsJson(runWorkloadSpec(spec));
    const std::string b = formatResultsJson(runWorkloadSpec(spec));
    EXPECT_EQ(a, b);
}

TEST(Determinism, SeedChangesTheRun)
{
    WorkloadSpec spec = parseWorkloadSpec(kSpec);
    const std::string a = formatResultsJson(runWorkloadSpec(spec));
    spec.config.seed = 6;
    const std::string b = formatResultsJson(runWorkloadSpec(spec));
    EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------
// Sweep output is independent of the worker count
// ---------------------------------------------------------------------

TEST(Determinism, SweepJsonlInvariantUnderJobs)
{
    const exp::ExperimentPlan plan = smallPlan();
    const std::string serial = sweepJsonl(plan, 1);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, sweepJsonl(plan, 2));
    EXPECT_EQ(serial, sweepJsonl(plan, 8));
}

TEST(Determinism, TaskOrderIsExpansionOrder)
{
    const exp::ExperimentPlan plan = smallPlan();
    const exp::SweepOutcome out = exp::runPlan(plan, {.jobs = 8});
    ASSERT_EQ(out.runs.size(), 6u); // 3 schemes x 2 seeds
    for (std::size_t i = 0; i < out.runs.size(); ++i)
        EXPECT_EQ(out.runs[i].task.index, i);
    // Seeds vary fastest (innermost).
    EXPECT_EQ(out.runs[0].task.seed, 1u);
    EXPECT_EQ(out.runs[1].task.seed, 2u);
    EXPECT_EQ(out.runs[0].task.params.front().second, "smp");
    EXPECT_EQ(out.runs[2].task.params.front().second, "quota");
    EXPECT_EQ(out.runs[4].task.params.front().second, "piso");
}

TEST(Determinism, SummaryTableInvariantUnderJobs)
{
    const exp::ExperimentPlan plan = smallPlan();
    const exp::SweepOutcome a = exp::runPlan(plan, {.jobs = 1});
    const exp::SweepOutcome b = exp::runPlan(plan, {.jobs = 4});
    EXPECT_EQ(exp::formatSweepSummary(a), exp::formatSweepSummary(b));
}

// ---------------------------------------------------------------------
// Warm start is a pure wall-clock optimisation: a sweep whose grid
// points share a checkpointable prefix produces byte-identical JSONL
// warm or cold, serial or parallel (docs/checkpoint.md).
// ---------------------------------------------------------------------

namespace {

/** A fault-axis plan: one digest, eight late-fault variants, the
 *  shape the warm-start engine folds into a single template group. */
exp::ExperimentPlan
faultAxisPlan()
{
    exp::ExperimentPlan plan;
    plan.base = parseWorkloadSpec(kSpec);
    plan.axes.push_back(exp::parseGridAxis(
        "fault_disk_slow=none,1.5:0.3:0:4,1.5:0.3:0:8,1.8:0.3:1:4"));
    plan.axes.push_back(
        exp::parseGridAxis("fault_disk_error=none,1.6:0.2:0:0.5"));
    return plan;
}

std::string
sweepJsonlWarm(const exp::ExperimentPlan &plan, int jobs, bool warm)
{
    return exp::formatSweepJsonl(
        exp::runPlan(plan, {.jobs = jobs, .warmStart = warm}));
}

} // namespace

TEST(Determinism, WarmStartSweepMatchesColdAtAnyJobs)
{
    const exp::ExperimentPlan plan = faultAxisPlan();
    const std::string coldSerial = sweepJsonlWarm(plan, 1, false);
    EXPECT_FALSE(coldSerial.empty());
    // No hidden failure records: every grid point must actually run.
    EXPECT_EQ(coldSerial.find("\"status\""), std::string::npos);

    EXPECT_EQ(coldSerial, sweepJsonlWarm(plan, 1, true));
    EXPECT_EQ(coldSerial, sweepJsonlWarm(plan, 4, true));
    EXPECT_EQ(coldSerial, sweepJsonlWarm(plan, 8, true));
    EXPECT_EQ(coldSerial, sweepJsonlWarm(plan, 4, false));
}

TEST(Determinism, WarmStartHandlesMixedDigestGroups)
{
    // A scheme axis on top of the fault axis: three digest groups,
    // each warm-started independently; bytes still match cold/serial.
    exp::ExperimentPlan plan = faultAxisPlan();
    plan.axes.insert(plan.axes.begin(),
                     exp::parseGridAxis("scheme=smp,quota,piso"));
    const std::string coldSerial = sweepJsonlWarm(plan, 1, false);
    EXPECT_EQ(coldSerial, sweepJsonlWarm(plan, 4, true));
}

TEST(Determinism, WarmStartWithUnconstructiblePointsMatchesCold)
{
    // disks=1 strands bob's SPU on a missing disk: those points fail
    // to construct. Their failure records, and every other point's
    // results, must not depend on warm start or the worker count.
    exp::ExperimentPlan plan = faultAxisPlan();
    plan.axes.insert(plan.axes.begin(), exp::parseGridAxis("disks=1,2"));
    const std::string coldSerial = sweepJsonlWarm(plan, 1, false);
    EXPECT_NE(coldSerial.find("\"status\":\"failed\""),
              std::string::npos);
    EXPECT_EQ(coldSerial, sweepJsonlWarm(plan, 1, true));
    EXPECT_EQ(coldSerial, sweepJsonlWarm(plan, 4, true));
    EXPECT_EQ(coldSerial, sweepJsonlWarm(plan, 4, false));
}

TEST(Determinism, WarmStartWithAnUndeclaredJobSpuMatchesCold)
{
    // A spec-level digest cannot be computed for a job on an
    // undeclared SPU; the task keys alone and fails in its cold run.
    exp::ExperimentPlan plan = faultAxisPlan();
    plan.base.jobs.back().spu = "nobody";
    const std::string coldSerial = sweepJsonlWarm(plan, 1, false);
    EXPECT_NE(coldSerial.find("\"status\":\"failed\""),
              std::string::npos);
    EXPECT_EQ(coldSerial, sweepJsonlWarm(plan, 1, true));
    EXPECT_EQ(coldSerial, sweepJsonlWarm(plan, 4, true));
}

TEST(Determinism, WarmStartOnSchemeOnlyPlanIsInert)
{
    // Singleton digest groups (nothing shares a prefix): warm start
    // must quietly change nothing.
    const exp::ExperimentPlan plan = smallPlan();
    EXPECT_EQ(sweepJsonlWarm(plan, 2, true),
              sweepJsonlWarm(plan, 2, false));
}

// ---------------------------------------------------------------------
// Simulator perf counters (events, wall-clock) are host-side noise and
// must never reach deterministic outputs: the JSONL stream and the
// default-format JSON/summary stay perf-free, perf is strictly opt-in.
// ---------------------------------------------------------------------

TEST(Determinism, PerfCountersStayOutOfJsonl)
{
    const exp::ExperimentPlan plan = smallPlan();
    const std::string jsonl = sweepJsonl(plan, 4);
    EXPECT_EQ(jsonl.find("\"perf\""), std::string::npos);
    EXPECT_EQ(jsonl.find("wall_ms"), std::string::npos);
    EXPECT_EQ(jsonl.find("setup_ms"), std::string::npos);
    EXPECT_EQ(jsonl.find("events_per_sec"), std::string::npos);
}

TEST(Determinism, PerfJsonIsOptIn)
{
    const WorkloadSpec spec = parseWorkloadSpec(kSpec);
    const SimResults r = runWorkloadSpec(spec);

    const std::string plain = formatResultsJson(r);
    EXPECT_EQ(plain.find("\"perf\""), std::string::npos);

    const std::string withPerf = formatResultsJson(r, true);
    EXPECT_NE(withPerf.find("\"perf\""), std::string::npos);
    EXPECT_NE(withPerf.find("\"wall_ms\""), std::string::npos);
    EXPECT_NE(withPerf.find("\"setup_ms\""), std::string::npos);
    EXPECT_NE(withPerf.find("\"events_per_sec\""), std::string::npos);

    // The counters themselves are real: the run executed events and
    // took measurable time.
    EXPECT_GT(r.perf.events, 0u);
    EXPECT_GT(r.perf.wallSec, 0.0);
    EXPECT_GT(r.perf.setupSec, 0.0);
    EXPECT_GT(r.perf.eventsPerSec(), 0.0);
}

TEST(Determinism, SummaryPerfColumnsAreOptIn)
{
    const exp::ExperimentPlan plan = smallPlan();
    const exp::SweepOutcome out = exp::runPlan(plan, {.jobs = 2});
    EXPECT_EQ(exp::formatSweepSummary(out).find("M ev/s"),
              std::string::npos);
    EXPECT_NE(exp::formatSweepSummary(out, true).find("M ev/s"),
              std::string::npos);
    EXPECT_NE(exp::formatSweepSummary(out, true).find("setup (ms)"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Rng::fork() stream independence (the property the parallel engine
// leans on: one task's draw count cannot perturb a sibling's stream)
// ---------------------------------------------------------------------

TEST(Determinism, ForkStreamsInsensitiveToSiblingDraws)
{
    Rng parent1(42);
    Rng a1 = parent1.fork();
    for (int i = 0; i < 1000; ++i)
        a1.next(); // drain the first child heavily
    Rng b1 = parent1.fork();

    Rng parent2(42);
    Rng a2 = parent2.fork();
    (void)a2; // never drawn from
    Rng b2 = parent2.fork();

    for (int i = 0; i < 256; ++i)
        EXPECT_EQ(b1.next(), b2.next()) << "draw " << i;
}

// ---------------------------------------------------------------------
// Per-thread trace/log contexts do not bleed across threads
// ---------------------------------------------------------------------

TEST(Determinism, TraceContextIsPerThread)
{
    TraceContext loud;
    loud.mask = TraceCat::All;
    TraceContextScope scope(loud);
    ASSERT_TRUE(traceActive(TraceCat::Sched));

    // A freshly spawned thread starts from the quiet default context,
    // not this thread's installed one.
    bool childActive = true;
    std::thread([&] { childActive = traceActive(TraceCat::Sched); })
        .join();
    EXPECT_FALSE(childActive);

    // And a context installed in a child is invisible here.
    std::thread([] {
        TraceContext ctx;
        ctx.mask = TraceCat::Disk;
        TraceContextScope inner(ctx);
        EXPECT_TRUE(traceActive(TraceCat::Disk));
    }).join();
    EXPECT_TRUE(traceActive(TraceCat::Sched));
    EXPECT_EQ(traceContext().mask, TraceCat::All);
}

TEST(Determinism, ParallelTraceCapturesDoNotInterleave)
{
    // Two threads run traced simulations concurrently, each capturing
    // into its own sink; every captured line must belong to the
    // capturing thread's simulation.
    auto traced = [](const char *spuName, std::vector<std::string> *out) {
        TraceContext ctx;
        ctx.mask = TraceCat::Sched;
        ctx.sink = [out](Time, TraceCat, const std::string &msg) {
            out->push_back(msg);
        };
        TraceContextScope scope(ctx);

        SystemConfig cfg;
        cfg.cpus = 2;
        cfg.memoryBytes = 16 * kMiB;
        cfg.diskCount = 1;
        cfg.scheme = Scheme::PIso;
        cfg.seed = 3;
        Simulation sim(cfg);
        const SpuId s = sim.addSpu({.name = spuName, .homeDisk = 0});
        ComputeSpec spec;
        spec.totalCpu = 200 * kMs;
        sim.addJob(s, makeComputeJob(std::string(spuName) + "-job", spec));
        sim.run();
    };

    std::vector<std::string> left, right;
    std::thread t1(traced, "left", &left);
    std::thread t2(traced, "right", &right);
    t1.join();
    t2.join();

    ASSERT_FALSE(left.empty());
    ASSERT_FALSE(right.empty());
    for (const std::string &msg : left)
        EXPECT_EQ(msg.find("right"), std::string::npos) << msg;
    for (const std::string &msg : right)
        EXPECT_EQ(msg.find("left"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------
// The engine surfaces worker exceptions deterministically
// ---------------------------------------------------------------------

TEST(Determinism, UnknownGridKeyThrows)
{
    EXPECT_THROW(exp::parseGridAxis("nonsense"), std::runtime_error);
    SystemConfig cfg;
    EXPECT_THROW(exp::applyGridKey(cfg, "warp_factor", "9"),
                 std::runtime_error);
    EXPECT_THROW(exp::applyGridKey(cfg, "cpus", "many"),
                 std::runtime_error);
}
