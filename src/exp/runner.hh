#ifndef PISO_EXP_RUNNER_HH
#define PISO_EXP_RUNNER_HH

/**
 * @file
 * The parallel sweep engine: expand an ExperimentPlan, run one
 * Simulation per task on a fixed-size thread pool, and aggregate the
 * results deterministically.
 *
 * The contract the determinism tests enforce: formatSweepJsonl() is
 * byte-identical for any `jobs` value, because tasks are keyed by
 * their expansion index and every Simulation is self-contained (its
 * Rng, trace and log contexts are per-run; see src/sim/trace.hh).
 * Wall-clock numbers are reported separately and never enter the
 * JSONL stream.
 *
 * Failures are quarantined, not propagated: a task that throws a
 * SimError is captured into its TaskOutcome (with bounded retry for
 * retryable categories), every other task still runs, and the failed
 * task appears in the JSONL stream as a structured failure record.
 * Records of *succeeding* tasks are byte-identical to a failure-free
 * run — a failure changes only its own line plus the trailing summary
 * line. See docs/robustness.md.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/exp/experiment.hh"
#include "src/metrics/results.hh"
#include "src/util/error.hh"

namespace piso::exp {

/** Knobs of one engine invocation. */
struct SweepOptions
{
    /** Worker threads; 1 = serial, <= 0 = one per hardware thread. */
    int jobs = 1;

    /** Quarantine failing tasks and keep sweeping (the default).
     *  When false, a failure raises a stop flag: tasks that have not
     *  started yet finish as Skipped instead of running. */
    bool keepGoing = true;

    /** Retry budget per task for retryable (resource) failures. */
    int maxRetries = 2;

    /** Wall-clock base delay between retries of one task, growing
     *  exponentially with the kernel's clamped-backoff discipline
     *  (0 = retry immediately). Never affects simulated time. */
    Time retryBackoff = 0;

    /** Simulated-time watchdog applied to every task (0 = off);
     *  overrides the spec when set. A tripped task ends TimedOut. */
    Time watchdogSimTime = 0;

    /** Event-count watchdog applied to every task (0 = off). */
    std::uint64_t watchdogEvents = 0;

    /** Warm-start: grid points that differ only in their fault-plan
     *  suffix are grouped, each group's shared prefix is run once to a
     *  checkpoint, and every member forks from that in-memory image
     *  instead of re-simulating from time zero (docs/checkpoint.md).
     *  Purely a wall-clock optimisation: the JSONL stream is
     *  byte-identical with it on or off, at any `jobs` value — any
     *  group whose template cannot find a quiescent boundary, and any
     *  member whose warm run fails, silently falls back to a cold
     *  run. `piso_sweep --no-warm-start` clears it. */
    bool warmStart = true;
};

/** How one task ended. */
enum class TaskStatus : std::uint8_t
{
    Ok = 0,        //!< ran to completion (possibly after retries)
    Failed = 1,    //!< quarantined config/invariant/resource failure
    TimedOut = 2,  //!< watchdog converted a runaway run
    Skipped = 3,   //!< never ran: an earlier failure stopped the sweep
};

/** Stable lower-case name ("ok", "failed", ...) used in JSONL. */
const char *taskStatusName(TaskStatus status);

/** The containment layer's verdict on one task. */
struct TaskOutcome
{
    TaskStatus status = TaskStatus::Ok;

    /** Failure classification; meaningful only when !ok(). */
    ErrorCategory category = ErrorCategory::Config;

    /** Deterministic diagnostic (the SimError's what()). */
    std::string message;

    /** Simulated time of the failure (0 when unknown). */
    Time simTime = 0;

    /** Retries spent on this task (counted even when it ended Ok). */
    int retries = 0;

    bool ok() const { return status == TaskStatus::Ok; }
};

/** One task's outcome. */
struct TaskRun
{
    ExperimentTask task;
    SimResults results;  //!< valid only when outcome.ok()
    TaskOutcome outcome;
};

/** Everything a sweep produced. */
struct SweepOutcome
{
    std::vector<TaskRun> runs;  //!< ordered by task index
    int jobs = 1;               //!< resolved worker count
    double wallSec = 0.0;       //!< wall-clock of the parallel region

    /** Number of runs that did not end Ok. */
    std::size_t failures() const;

    /** Retries spent across all runs (including ones that ended Ok). */
    int totalRetries() const;
};

/** Expand @p plan and run every task. */
SweepOutcome runPlan(const ExperimentPlan &plan,
                     const SweepOptions &opts);

/** Run an already-expanded task list (tasks keep their indices). */
SweepOutcome runTasks(std::vector<ExperimentTask> tasks,
                      const SweepOptions &opts);

/** One task's JSONL record (no trailing newline). Ok tasks:
 *  `{"task":N,"seed":S,"params":{...},"results":{...}}` — the exact
 *  bytes of a failure-free run. Non-Ok tasks:
 *  `{"task":N,"seed":S,"params":{...},"status":"failed",
 *    "error":{"category":...,"retries":N,"sim_time_s":X,
 *    "message":...}}`. */
std::string formatTaskJsonl(const TaskRun &run);

/** The whole sweep as JSONL, one line per task, in task order, plus —
 *  only when at least one task did not end Ok — a final
 *  `{"summary":{...}}` line with the status counts. Deterministic:
 *  independent of opts.jobs and scheduling. */
std::string formatSweepJsonl(const SweepOutcome &outcome);

/** Aligned summary table (task, params, status, simulated time, jobs,
 *  mean response) for terminals. @p includePerf adds per-task
 *  simulator-performance columns (events, wall ms, setup ms,
 *  M events/s, policy iterations); it defaults off because host
 *  timing varies run to run, and the jobs-invariance test compares
 *  the perf-free table. */
std::string formatSweepSummary(const SweepOutcome &outcome,
                               bool includePerf = false);

} // namespace piso::exp

#endif // PISO_EXP_RUNNER_HH
