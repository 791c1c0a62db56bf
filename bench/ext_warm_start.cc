/**
 * @file
 * Warm-start sweep speedup (google-benchmark): the numbers behind the
 * docs/checkpoint.md claim that forking a fault-axis sweep from one
 * checkpointed prefix beats re-simulating every grid point from time
 * zero by >= 2x.
 *
 * The plan is the warm-start engine's best case, which is also the
 * common what-if shape: one compute-heavy base workload swept over
 * a late-fault axis, so every grid point shares the long undisturbed
 * prefix and differs only in its tail. Cold cost ~ N runs; warm
 * cost ~ one prefix run + N tails.
 *
 * BM_SweepCold / BM_SweepWarm share one plan; compare their times for
 * the speedup. BM_TemplateCheckpoint isolates the fixed cost warm
 * start adds (grouping + the template run + one image).
 */

#include <benchmark/benchmark.h>

#include "src/config/workload_spec.hh"
#include "src/exp/experiment.hh"
#include "src/exp/runner.hh"
#include "src/piso.hh"

using namespace piso;

namespace {

/**
 * Compute-dominated base: the hogs run ~5s of simulated time, and the
 * disk is quiet after the startup page-ins.
 */
const char *kSpec = R"(
machine cpus=4 memory_mb=32 disks=2 scheme=piso seed=3
spu ocean share=1 disk=0
spu eng share=1 disk=1
job ocean ocean name=sim procs=2 iters=60 grain_ms=20 ws_pages=400
job eng compute name=hog1 cpu_ms=5000 ws_pages=300
job eng compute name=hog2 cpu_ms=5000 ws_pages=300
)";

/**
 * Eight what-if scenarios diverging at t=4s: the shared prefix is
 * ~4/5 of the run. All grid points have one digest, so warm start
 * folds them into a single group.
 */
exp::ExperimentPlan
faultAxisPlan()
{
    exp::ExperimentPlan plan;
    plan.base = parseWorkloadSpec(kSpec);
    plan.axes.push_back(exp::parseGridAxis(
        "fault_disk_slow=none,4:0.5:0:2,4:0.5:0:4,4:0.5:0:8,"
        "4:0.5:1:4,4:1:0:4,4:1:1:8,4.2:0.5:0:4"));
    return plan;
}

void
runSweep(benchmark::State &state, bool warmStart)
{
    const exp::ExperimentPlan plan = faultAxisPlan();
    exp::SweepOptions opts;
    opts.jobs = 1; // serial: measure work, not parallel fan-out
    opts.warmStart = warmStart;
    for (auto _ : state) {
        const exp::SweepOutcome outcome = exp::runPlan(plan, opts);
        if (outcome.failures() != 0)
            state.SkipWithError("sweep task failed");
        benchmark::DoNotOptimize(outcome.runs.size());
    }
}

void
BM_SweepCold(benchmark::State &state)
{
    runSweep(state, false);
}
BENCHMARK(BM_SweepCold)->Unit(benchmark::kMillisecond);

void
BM_SweepWarm(benchmark::State &state)
{
    runSweep(state, true);
}
BENCHMARK(BM_SweepWarm)->Unit(benchmark::kMillisecond);

void
BM_TemplateCheckpoint(benchmark::State &state)
{
    // The fixed cost warm start adds on top of the forked tails: run
    // the shared prefix to its checkpoint and serialise the image.
    WorkloadSpec spec = parseWorkloadSpec(kSpec);
    spec.config.checkpointAt = 3 * kSec;
    spec.config.checkpointDeadline = 4 * kSec;
    spec.config.checkpointStop = true;
    for (auto _ : state) {
        std::string image;
        spec.config.checkpointSink = [&image](std::string img) {
            image = std::move(img);
        };
        Simulation sim(spec.config);
        populateWorkloadSpec(sim, spec);
        sim.run();
        if (image.empty())
            state.SkipWithError("no checkpoint fired");
        benchmark::DoNotOptimize(image.size());
    }
}
BENCHMARK(BM_TemplateCheckpoint)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
