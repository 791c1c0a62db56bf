#include "src/exp/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <thread>

#include <map>

#include "src/exp/pool.hh"
#include "src/sim/checkpoint.hh"
#include "src/metrics/report.hh"

namespace piso::exp {

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Orchestration-level retry delays saturate like the kernel's I/O
 *  backoff; one minute of wall clock is far beyond any sane sweep. */
constexpr Time kMaxTaskRetryBackoff = 60 * kSec;

/**
 * Run one task with containment: every escaping exception becomes a
 * TaskOutcome, retryable (resource) failures are retried up to the
 * budget with clamped exponential backoff, and a watchdog trip ends
 * the task TimedOut instead of failing the sweep.
 */
TaskOutcome
runContained(const ExperimentTask &task, const SweepOptions &opts,
             SimResults &results)
{
    TaskOutcome outcome;
    const int maxRetries = std::max(0, opts.maxRetries);
    for (int attempt = 1;; ++attempt) {
        // Attempt-local copy: the attempt counter must not leak into
        // the shared task list, and watchdog overrides are per-run.
        WorkloadSpec spec = task.spec;
        spec.config.chaos.attempt = attempt;
        if (opts.watchdogSimTime > 0)
            spec.config.watchdogSimTime = opts.watchdogSimTime;
        if (opts.watchdogEvents > 0)
            spec.config.watchdogEvents = opts.watchdogEvents;

        try {
            results = runWorkloadSpec(spec);
            outcome.status = TaskStatus::Ok;
            return outcome;
        } catch (SimError &e) {
            e.annotateTask(static_cast<long>(task.index));
            outcome.category = e.category();
            outcome.message = e.what();
            outcome.simTime = e.simTime();
            if (e.retryable() && outcome.retries < maxRetries) {
                ++outcome.retries;
                if (opts.retryBackoff > 0) {
                    const Time delay = retryBackoffClamped(
                        opts.retryBackoff, attempt, kMaxTaskRetryBackoff);
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(delay));
                }
                continue;
            }
            outcome.status = e.category() == ErrorCategory::Runaway
                                 ? TaskStatus::TimedOut
                                 : TaskStatus::Failed;
            return outcome;
        } catch (const std::exception &e) {
            // Anything unstructured that still escapes a task is by
            // definition an internal bug: quarantine as an invariant
            // failure rather than killing the sweep.
            outcome.category = ErrorCategory::Invariant;
            outcome.message = e.what();
            outcome.simTime = 0;
            outcome.status = TaskStatus::Failed;
            return outcome;
        }
    }
}

// ---------------------------------------------------------------------
// Warm start: share checkpointed run prefixes within a sweep
// ---------------------------------------------------------------------

bool
sameFault(const FaultEvent &a, const FaultEvent &b)
{
    return a.kind == b.kind && a.at == b.at && a.disk == b.disk &&
           a.duration == b.duration && a.factor == b.factor &&
           a.rate == b.rate && a.cpus == b.cpus && a.pages == b.pages;
}

/** One set of tasks that can fork from a single template image. */
struct WarmGroup
{
    std::vector<std::size_t> members;   //!< task indices, ascending
    std::vector<FaultEvent> prefix;     //!< shared fault-plan prefix
    Time divergeAt = kTimeNever;        //!< first member-only fault
    std::string image;                  //!< template checkpoint; empty
                                        //!< = group runs cold
};

/**
 * Grouping key: two tasks may share a template only when a checkpoint
 * image of one is acceptable to the other (equal config digest) AND
 * everything the digest deliberately excludes — run caps, watchdogs,
 * chaos knobs — is equal too, because those shape the run before the
 * boundary just as much as the digested config does. Fault plans stay
 * out: diverging fault suffixes are exactly what the group shares a
 * prefix across. The digest comes from the spec, not from a built
 * Simulation. A task whose spec has no digest (it names an undeclared
 * SPU, or a start time that does not parse) keys alone; it fails in
 * its own cold run with the right error. Other unconstructible specs
 * (an SPU on a missing disk) share a digest only with tasks that fail
 * the same way, so their group's template fails and it runs cold.
 */
struct WarmKey
{
    bool digested = true;
    std::size_t task = 0;        //!< set only when !digested
    std::uint64_t digest = 0;
    Time maxTime = 0;
    Time watchdogSimTime = 0;
    std::uint64_t watchdogEvents = 0;
    std::uint64_t invariantAtEvent = 0;
    std::uint64_t allocCapPages = 0;
    int resourceUntilAttempt = 0;

    auto operator<=>(const WarmKey &) const = default;
};

WarmKey
warmGroupKey(const ExperimentTask &task)
{
    WarmKey key;
    try {
        key.digest = specConfigDigest(task.spec);
    } catch (const std::exception &) {
        key.digested = false;
        key.task = task.index;
        return key;
    }
    const SystemConfig &c = task.spec.config;
    key.maxTime = c.maxTime;
    key.watchdogSimTime = c.watchdogSimTime;
    key.watchdogEvents = c.watchdogEvents;
    key.invariantAtEvent = c.chaos.invariantAtEvent;
    key.allocCapPages = c.chaos.allocCapPages;
    key.resourceUntilAttempt = c.chaos.resourceUntilAttempt;
    return key;
}

/**
 * Longest common prefix of the members' time-sorted fault schedules,
 * and the earliest time any member's schedule diverges from it
 * (kTimeNever when all schedules are identical).
 */
void
faultPrefix(const std::vector<ExperimentTask> &tasks, WarmGroup &group)
{
    std::vector<std::vector<FaultEvent>> schedules;
    schedules.reserve(group.members.size());
    for (std::size_t i : group.members)
        schedules.push_back(tasks[i].spec.config.faults.schedule());

    std::size_t p = 0;
    for (;; ++p) {
        if (schedules[0].size() <= p)
            break;
        bool common = true;
        for (const auto &s : schedules) {
            if (s.size() <= p || !sameFault(s[p], schedules[0][p])) {
                common = false;
                break;
            }
        }
        if (!common)
            break;
    }
    group.prefix.assign(schedules[0].begin(),
                        schedules[0].begin() +
                            static_cast<std::ptrdiff_t>(p));
    group.divergeAt = kTimeNever;
    for (const auto &s : schedules) {
        if (s.size() > p)
            group.divergeAt = std::min(group.divergeAt, s[p].at);
    }
}

/**
 * Run the group's shared prefix to a checkpoint. The boundary must
 * land strictly before the divergence time, and as late as possible
 * for the best sharing, so the target time steps down from 3/4 of the
 * divergence time until a run finds a quiescent boundary inside
 * [target, divergeAt). Returns an empty image when none exists — the
 * group then runs cold, which is always correct.
 */
std::string
buildTemplateImage(const ExperimentTask &first, const WarmGroup &group,
                   const SweepOptions &opts)
{
    WorkloadSpec spec = first.spec;
    FaultPlan prefixPlan;
    for (const FaultEvent &ev : group.prefix)
        prefixPlan.add(ev);
    spec.config.faults = prefixPlan;
    spec.config.chaos.attempt = 1;
    if (opts.watchdogSimTime > 0)
        spec.config.watchdogSimTime = opts.watchdogSimTime;
    if (opts.watchdogEvents > 0)
        spec.config.watchdogEvents = opts.watchdogEvents;

    for (const double fraction : {0.75, 0.5, 0.25, 0.0}) {
        const Time target = std::max<Time>(
            1, static_cast<Time>(
                   static_cast<double>(group.divergeAt) * fraction));
        std::string image;
        spec.config.checkpointAt = target;
        spec.config.checkpointDeadline = group.divergeAt;
        spec.config.checkpointStop = true;
        spec.config.checkpointSink = [&image](std::string img) {
            image = std::move(img);
        };
        try {
            runWorkloadSpec(spec);
        } catch (const std::exception &) {
            // No boundary in [target, divergeAt) — or the prefix run
            // itself failed, in which case every member will report
            // its own failure from its own cold run.
            continue;
        }
        if (image.empty())
            continue;
        // The image's first payload field is the boundary time; an
        // image taken at or past the divergence point would hand
        // members a prefix they do not share.
        if (CkptReader(image).time() < group.divergeAt)
            return image;
    }
    return std::string();
}

/**
 * Run one task forked from @p image. Any failure — or any structural
 * surprise — falls back to a plain cold contained run, so a sweep's
 * output bytes never depend on whether warm start was attempted.
 */
TaskOutcome
runContainedFrom(const ExperimentTask &task, const SweepOptions &opts,
                 const std::string &image, SimResults &results)
{
    WorkloadSpec spec = task.spec;
    spec.config.chaos.attempt = 1;
    if (opts.watchdogSimTime > 0)
        spec.config.watchdogSimTime = opts.watchdogSimTime;
    if (opts.watchdogEvents > 0)
        spec.config.watchdogEvents = opts.watchdogEvents;
    try {
        results = runWorkloadSpecFrom(spec, image);
        return TaskOutcome{};
    } catch (const std::exception &) {
        results = SimResults{};
        return runContained(task, opts, results);
    }
}

/**
 * Plan the sweep's warm-start groups: key every task, group keys with
 * two or more tasks and a finite divergence time, and build each
 * group's template image. Returns, per task, the image to fork from
 * (nullptr = run cold).
 */
std::vector<const std::string *>
planWarmStart(const std::vector<ExperimentTask> &tasks,
              const SweepOptions &opts,
              std::vector<WarmGroup> &groups)
{
    std::map<WarmKey, std::vector<std::size_t>> byKey;
    for (std::size_t i = 0; i < tasks.size(); ++i)
        byKey[warmGroupKey(tasks[i])].push_back(i);

    for (auto &[key, members] : byKey) {
        if (members.size() < 2)
            continue;
        WarmGroup group;
        group.members = std::move(members);
        faultPrefix(tasks, group);
        // No divergence means duplicate tasks (cold is fine); a
        // divergence at t<=1ns leaves no room for a boundary.
        if (group.divergeAt == kTimeNever || group.divergeAt <= 1)
            continue;
        groups.push_back(std::move(group));
    }

    parallelFor(groups.size(), opts.jobs, [&](std::size_t g) {
        groups[g].image = buildTemplateImage(
            tasks[groups[g].members.front()], groups[g], opts);
    });

    std::vector<const std::string *> imageOf(tasks.size(), nullptr);
    for (const WarmGroup &group : groups) {
        if (group.image.empty())
            continue;
        for (std::size_t i : group.members)
            imageOf[i] = &group.image;
    }
    return imageOf;
}

} // namespace

const char *
taskStatusName(TaskStatus status)
{
    switch (status) {
      case TaskStatus::Ok:
        return "ok";
      case TaskStatus::Failed:
        return "failed";
      case TaskStatus::TimedOut:
        return "timed_out";
      case TaskStatus::Skipped:
        return "skipped";
    }
    return "unknown";
}

std::size_t
SweepOutcome::failures() const
{
    std::size_t n = 0;
    for (const TaskRun &run : runs) {
        if (!run.outcome.ok())
            ++n;
    }
    return n;
}

int
SweepOutcome::totalRetries() const
{
    int n = 0;
    for (const TaskRun &run : runs)
        n += run.outcome.retries;
    return n;
}

SweepOutcome
runTasks(std::vector<ExperimentTask> tasks, const SweepOptions &opts)
{
    SweepOutcome outcome;
    outcome.jobs = effectiveJobs(opts.jobs, tasks.size());

    std::vector<SimResults> results(tasks.size());
    std::vector<TaskOutcome> outcomes(tasks.size());
    std::atomic<bool> stop{false};
    const auto start = std::chrono::steady_clock::now();

    // Warm-start planning runs inside the timed region: the template
    // runs are real work the sweep would otherwise repeat per member.
    std::vector<WarmGroup> groups;
    std::vector<const std::string *> imageOf(tasks.size(), nullptr);
    if (opts.warmStart && tasks.size() > 1)
        imageOf = planWarmStart(tasks, opts, groups);

    parallelFor(tasks.size(), opts.jobs, [&](std::size_t i) {
        if (!opts.keepGoing && stop.load()) {
            outcomes[i].status = TaskStatus::Skipped;
            outcomes[i].message = "skipped: an earlier task failed";
            return;
        }
        outcomes[i] =
            imageOf[i]
                ? runContainedFrom(tasks[i], opts, *imageOf[i],
                                   results[i])
                : runContained(tasks[i], opts, results[i]);
        if (!outcomes[i].ok() && !opts.keepGoing)
            stop.store(true);
    });
    const auto stopTime = std::chrono::steady_clock::now();
    outcome.wallSec =
        std::chrono::duration<double>(stopTime - start).count();

    outcome.runs.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        outcome.runs.push_back(TaskRun{std::move(tasks[i]),
                                       std::move(results[i]),
                                       std::move(outcomes[i])});
    }
    return outcome;
}

SweepOutcome
runPlan(const ExperimentPlan &plan, const SweepOptions &opts)
{
    return runTasks(expandPlan(plan), opts);
}

std::string
formatTaskJsonl(const TaskRun &run)
{
    std::ostringstream os;
    os << "{\"task\":" << run.task.index
       << ",\"seed\":" << run.task.seed << ",\"params\":{";
    bool first = true;
    for (const auto &[key, value] : run.task.params) {
        os << (first ? "" : ",") << '"' << jsonEscape(key) << "\":\""
           << jsonEscape(value) << '"';
        first = false;
    }
    os << "}";
    if (run.outcome.ok()) {
        // Exactly the bytes a failure-free sweep emits: failures
        // elsewhere must never perturb a succeeding task's record.
        os << ",\"results\":" << formatResultsJson(run.results);
    } else {
        os << ",\"status\":\"" << taskStatusName(run.outcome.status)
           << "\",\"error\":{\"category\":\""
           << errorCategoryName(run.outcome.category)
           << "\",\"retries\":" << run.outcome.retries
           << ",\"sim_time_s\":" << toSeconds(run.outcome.simTime)
           << ",\"message\":\"" << jsonEscape(run.outcome.message)
           << "\"}";
    }
    os << "}";
    return os.str();
}

std::string
formatSweepJsonl(const SweepOutcome &outcome)
{
    std::string out;
    std::size_t counts[4] = {0, 0, 0, 0};
    for (const TaskRun &run : outcome.runs) {
        out += formatTaskJsonl(run);
        out += '\n';
        ++counts[static_cast<int>(run.outcome.status)];
    }
    // The trailing summary appears only when something went wrong, so
    // a failure-free stream is bit-for-bit what it always was.
    if (outcome.failures() > 0) {
        std::ostringstream os;
        os << "{\"summary\":{\"tasks\":" << outcome.runs.size()
           << ",\"ok\":" << counts[static_cast<int>(TaskStatus::Ok)]
           << ",\"failed\":"
           << counts[static_cast<int>(TaskStatus::Failed)]
           << ",\"timed_out\":"
           << counts[static_cast<int>(TaskStatus::TimedOut)]
           << ",\"skipped\":"
           << counts[static_cast<int>(TaskStatus::Skipped)]
           << ",\"retries\":" << outcome.totalRetries() << "}}\n";
        out += os.str();
    }
    return out;
}

std::string
formatSweepSummary(const SweepOutcome &outcome, bool includePerf)
{
    std::vector<std::string> header{"task", "params", "status",
                                    "sim (s)", "jobs done",
                                    "mean resp (s)"};
    if (includePerf) {
        header.push_back("events");
        header.push_back("wall (ms)");
        header.push_back("setup (ms)");
        header.push_back("M ev/s");
        header.push_back("policy iters");
    }
    TextTable table(header);
    for (const TaskRun &run : outcome.runs) {
        const SimResults &r = run.results;
        int done = 0;
        double respSum = 0.0;
        int respCount = 0;
        for (const JobResult &j : r.jobs) {
            if (j.completed && !j.failed)
                ++done;
            if (j.completed) {
                respSum += j.responseSec();
                ++respCount;
            }
        }
        std::vector<std::string> row{
            std::to_string(run.task.index), run.task.label(),
            taskStatusName(run.outcome.status),
            TextTable::num(toSeconds(r.simulatedTime), 2),
            std::to_string(done) + "/" + std::to_string(r.jobs.size()),
            TextTable::num(respCount ? respSum / respCount : 0.0, 2)};
        if (includePerf) {
            row.push_back(std::to_string(r.perf.events));
            row.push_back(TextTable::num(r.perf.wallSec * 1e3, 1));
            row.push_back(TextTable::num(r.perf.setupSec * 1e3, 1));
            row.push_back(
                TextTable::num(r.perf.eventsPerSec() / 1e6, 2));
            row.push_back(std::to_string(
                r.perf.policyItersCpu + r.perf.policyItersMem +
                r.perf.policyItersDisk + r.perf.policyItersNet));
        }
        table.addRow(std::move(row));
    }
    return table.str();
}

} // namespace piso::exp
