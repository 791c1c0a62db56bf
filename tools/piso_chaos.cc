/**
 * @file
 * piso_chaos: the containment acceptance scenario as a self-checking
 * driver (docs/robustness.md).
 *
 *   piso_chaos [--jobs N] [--verbose]
 *
 * Expands a 24-point sweep (scheme=smp,quota,piso x seeds 1..8),
 * injects one failure of every SimError category into four of the
 * tasks — a broken config, an invariant trip, an allocation cap that
 * survives every retry, and a runaway caught by the simulated-time
 * watchdog — then runs the poisoned sweep serially and in parallel
 * and checks that:
 *
 *   - the 20 untouched tasks all complete, and their JSONL records
 *     are byte-identical to a failure-free baseline run;
 *   - the whole stream (failure records and trailing summary line
 *     included) is byte-identical between --jobs 1 and --jobs N;
 *   - each poisoned task ends in its expected status and category,
 *     with the resource failure spending its full retry budget.
 *
 * Exits 0 when every check passes, 1 otherwise. Run by `ctest -L
 * chaos` (the CI chaos job builds with -DPISO_HARDENED=ON first).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "src/config/workload_spec.hh"
#include "src/exp/runner.hh"
#include "src/piso.hh"

using namespace piso;

namespace {

const char *kSpec = R"(
machine cpus=2 memory_mb=16 disks=1 scheme=piso seed=7
spu a share=1 disk=0
spu b share=1 disk=0
job a compute name=spin cpu_ms=200 ws_pages=50
job b copy    name=cp bytes_kb=256
)";

struct Injection
{
    std::size_t task;
    exp::TaskStatus status;
    ErrorCategory category;
    const char *what;
};

constexpr Injection kInjections[] = {
    {2, exp::TaskStatus::Failed, ErrorCategory::Config,
     "machine whose memory holds no pages"},
    {9, exp::TaskStatus::Failed, ErrorCategory::Invariant,
     "injected invariant trip at event 100"},
    {13, exp::TaskStatus::Failed, ErrorCategory::Resource,
     "allocation cap that fails every retry"},
    {20, exp::TaskStatus::TimedOut, ErrorCategory::Runaway,
     "runaway caught by the 1 ms simulated-time watchdog"},
};

bool verbose = false;
int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    } else if (verbose) {
        std::fprintf(stderr, "  ok: %s\n", what.c_str());
    }
}

std::vector<exp::ExperimentTask>
expand()
{
    exp::ExperimentPlan plan;
    plan.base = parseWorkloadSpec(kSpec);
    plan.axes.push_back(exp::parseGridAxis("scheme=smp,quota,piso"));
    plan.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    return exp::expandPlan(plan);
}

std::vector<exp::ExperimentTask>
poison(std::vector<exp::ExperimentTask> tasks)
{
    tasks[2].spec.config.memoryBytes = 0;
    tasks[9].spec.config.chaos.invariantAtEvent = 100;
    tasks[13].spec.config.chaos.allocCapPages = 1;
    tasks[20].spec.config.watchdogSimTime = kMs;
    return tasks;
}

std::vector<std::string>
lines(const std::string &jsonl)
{
    std::vector<std::string> out;
    std::istringstream is(jsonl);
    std::string line;
    while (std::getline(is, line))
        out.push_back(line);
    return out;
}

bool
isPoisoned(std::size_t task)
{
    for (const Injection &inj : kInjections) {
        if (inj.task == task)
            return true;
    }
    return false;
}

int
runChaos(int argc, char **argv)
{
    int jobs = 8;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--verbose") == 0) {
            verbose = true;
        } else if (std::strcmp(argv[i], "--jobs") == 0 &&
                   i + 1 < argc) {
            jobs = std::atoi(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: piso_chaos [--jobs N] [--verbose]\n");
            return 2;
        }
    }

    const exp::SweepOptions base{.jobs = 1};

    std::fprintf(stderr,
                 "piso_chaos: 24-task sweep, 4 injected failures, "
                 "--jobs 1 vs --jobs %d\n", jobs);

    // Failure-free baseline: the bytes every untouched task must
    // reproduce exactly in the poisoned runs.
    const exp::SweepOutcome clean = exp::runTasks(expand(), base);
    const std::vector<std::string> cleanLines =
        lines(exp::formatSweepJsonl(clean));
    check(clean.runs.size() == 24, "baseline expands to 24 tasks");
    check(clean.failures() == 0, "baseline run is failure-free");
    check(cleanLines.size() == 24,
          "failure-free stream has no summary line");

    exp::SweepOptions parOpts = base;
    parOpts.jobs = jobs;
    const exp::SweepOutcome serial =
        exp::runTasks(poison(expand()), base);
    const exp::SweepOutcome parallel =
        exp::runTasks(poison(expand()), parOpts);

    for (const exp::SweepOutcome *out : {&serial, &parallel}) {
        const char *mode = out == &serial ? "serial" : "parallel";
        check(out->failures() == 4,
              std::string(mode) + ": exactly the 4 poisoned tasks fail");
        for (const Injection &inj : kInjections) {
            const exp::TaskOutcome &o = out->runs[inj.task].outcome;
            std::ostringstream what;
            what << mode << ": task " << inj.task << " ("
                 << inj.what << ") ends "
                 << exp::taskStatusName(inj.status) << "/"
                 << errorCategoryName(inj.category);
            check(o.status == inj.status &&
                      o.category == inj.category,
                  what.str());
        }
        check(out->runs[13].outcome.retries == 2,
              std::string(mode) +
                  ": resource failure spent its full retry budget");
    }

    const std::string serialJsonl = exp::formatSweepJsonl(serial);
    const std::string parallelJsonl = exp::formatSweepJsonl(parallel);
    check(serialJsonl == parallelJsonl,
          "poisoned stream is byte-identical between --jobs 1 and "
          "--jobs " + std::to_string(jobs));

    const std::vector<std::string> poisonedLines = lines(serialJsonl);
    check(poisonedLines.size() == 25,
          "poisoned stream is 24 records plus one summary line");
    std::size_t identical = 0;
    for (std::size_t i = 0; i < 24 && i < poisonedLines.size(); ++i) {
        if (isPoisoned(i))
            continue;
        if (poisonedLines[i] == cleanLines[i]) {
            ++identical;
        } else {
            check(false, "task " + std::to_string(i) +
                             " record matches the baseline bytes");
        }
    }
    check(identical == 20,
          "all 20 success records are byte-identical to the baseline");
    check(poisonedLines.back().find(
              "\"summary\":{\"tasks\":24,\"ok\":20,\"failed\":3,"
              "\"timed_out\":1,\"skipped\":0,\"retries\":2}") !=
              std::string::npos,
          "summary line counts 20 ok / 3 failed / 1 timed_out / "
          "2 retries");

    if (failures == 0) {
        std::fprintf(stderr,
                     "piso_chaos: PASS (20/24 tasks survived 4 "
                     "injected failures; manifests byte-stable)\n");
        return 0;
    }
    std::fprintf(stderr, "piso_chaos: FAIL (%d check(s))\n", failures);
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runChaos(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "piso_chaos: %s\n", e.what());
        return 1;
    }
}
