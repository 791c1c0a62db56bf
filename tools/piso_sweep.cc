/**
 * @file
 * piso_sweep: run a grid of simulations from one workload-spec file,
 * in parallel, with deterministic JSONL output.
 *
 *   piso_sweep workload.piso
 *   piso_sweep --grid scheme=smp,quota,piso --seeds 4 --jobs 8 w.piso
 *   piso_sweep --grid cpu=piso,quota --grid memory=piso,quota w.piso
 *   piso_sweep --speedup --jobs 8 w.piso     # serial-vs-parallel check
 *
 * The expanded grid (cross product of every --grid axis, seeds
 * innermost) runs one Simulation per task on a fixed-size thread
 * pool. Output is one JSON line per task on stdout (or --out FILE),
 * ordered by task index — byte-identical for any --jobs value.
 * Progress and wall-clock go to stderr. See docs/sweeps.md.
 *
 * Failing tasks are quarantined (--keep-going, the default): they
 * appear in the JSONL stream as structured failure records, every
 * other task completes, and succeeding records stay byte-identical to
 * a failure-free run. See docs/robustness.md.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/config/workload_spec.hh"
#include "src/exp/pool.hh"
#include "src/exp/runner.hh"
#include "src/util/log.hh"

using namespace piso;

namespace {

std::string
readFile(const char *path)
{
    std::ifstream in(path);
    if (!in)
        PISO_FATAL("cannot open '", path, "'");
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: piso_sweep [--grid key=v1,v2,...]... [--seeds N] "
        "[--jobs N]\n"
        "                  [--out FILE] [--summary[=FILE]] "
        "[--speedup]\n"
        "                  [--keep-going | --no-keep-going] "
        "[--retries N]\n"
        "                  [--max-sim-time S] [--max-events N] "
        "<workload-file>\n"
        "  --grid key=v1,v2,...  sweep axis (repeatable; cross "
        "product) over any\n"
        "                        machine-line key "
        "(docs/workload-format.md) or\n"
        "                        fault axis (docs/sweeps.md)\n"
        "  --seeds N             replicate every grid point with "
        "seeds 1..N\n"
        "  --jobs N              worker threads (default 1; 0 = one "
        "per core)\n"
        "  --out FILE            write the JSONL stream there instead "
        "of stdout\n"
        "  --summary[=FILE]      also print an aligned summary table "
        "(stderr,\n"
        "                        or FILE when given)\n"
        "  --speedup             run the plan twice (--jobs 1, then "
        "--jobs N),\n"
        "                        verify byte-identical output, report "
        "the speedup\n"
        "  --keep-going          quarantine failing tasks, finish the "
        "sweep,\n"
        "                        exit 0 (default)\n"
        "  --no-keep-going       stop claiming new tasks after a "
        "failure and\n"
        "                        exit 1 when any task failed\n"
        "  --retries N           retry budget per task for retryable "
        "failures\n"
        "                        (default 2)\n"
        "  --max-sim-time S      simulated-time watchdog: a task still "
        "running\n"
        "                        after S simulated seconds (S > 0) ends "
        "timed_out\n"
        "  --max-events N        event-count watchdog for every task\n"
        "  --no-warm-start       disable checkpoint prefix sharing "
        "between grid\n"
        "                        points differing only in late faults "
        "(output is\n"
        "                        byte-identical either way; see "
        "docs/checkpoint.md)\n"
        "  -h, --help            show this help and exit\n"
        "\n"
        "Output: one JSON object per task "
        "({\"task\",\"seed\",\"params\",\"results\"}),\n"
        "ordered by task index — byte-identical for any --jobs "
        "value. Failed\n"
        "tasks carry {\"status\",\"error\"} instead of results, plus "
        "one trailing\n"
        "{\"summary\"} line when anything failed.\n");
}

int
usageError()
{
    usage(stderr);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    exp::ExperimentPlan plan;
    exp::SweepOptions opts;
    const char *path = nullptr;
    const char *outPath = nullptr;
    const char *summaryPath = nullptr;
    bool summary = false;
    bool speedup = false;
    int seeds = 0;
    bool argsRead = false;

    try {
        // A number flag's value, read whole like a spec option.
        const auto flagValue = [&](int &i) {
            ++i;
            return OptionValue{argv[i - 1], argv[i], {}};
        };
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--grid") == 0 && i + 1 < argc) {
                plan.axes.push_back(exp::parseGridAxis(argv[++i]));
            } else if (std::strncmp(argv[i], "--grid=", 7) == 0) {
                plan.axes.push_back(exp::parseGridAxis(argv[i] + 7));
            } else if (std::strcmp(argv[i], "--seeds") == 0 &&
                       i + 1 < argc) {
                seeds = flagValue(i).read<int>();
            } else if (std::strcmp(argv[i], "--jobs") == 0 &&
                       i + 1 < argc) {
                opts.jobs = flagValue(i).read<int>();
            } else if (std::strcmp(argv[i], "--out") == 0 &&
                       i + 1 < argc) {
                outPath = argv[++i];
            } else if (std::strcmp(argv[i], "--summary") == 0) {
                summary = true;
            } else if (std::strncmp(argv[i], "--summary=", 10) == 0) {
                summary = true;
                summaryPath = argv[i] + 10;
            } else if (std::strcmp(argv[i], "--speedup") == 0) {
                speedup = true;
            } else if (std::strcmp(argv[i], "--keep-going") == 0) {
                opts.keepGoing = true;
            } else if (std::strcmp(argv[i], "--no-keep-going") == 0) {
                opts.keepGoing = false;
            } else if (std::strcmp(argv[i], "--retries") == 0 &&
                       i + 1 < argc) {
                opts.maxRetries = flagValue(i).read<int>();
            } else if (std::strcmp(argv[i], "--max-sim-time") == 0 &&
                       i + 1 < argc) {
                // fromSeconds clamps at 0, which arms no watchdog.
                const double sec = flagValue(i).read<double>();
                if (!(sec > 0.0 && sec < toSeconds(kTimeNever)))
                    PISO_FATAL("--max-sim-time wants seconds > 0, got ",
                               argv[i]);
                opts.watchdogSimTime = fromSeconds(sec);
            } else if (std::strcmp(argv[i], "--no-warm-start") == 0) {
                opts.warmStart = false;
            } else if (std::strcmp(argv[i], "--max-events") == 0 &&
                       i + 1 < argc) {
                opts.watchdogEvents =
                    flagValue(i).read<std::uint64_t>();
            } else if (std::strcmp(argv[i], "-h") == 0 ||
                       std::strcmp(argv[i], "--help") == 0) {
                usage(stdout);
                return 0;
            } else if (argv[i][0] == '-') {
                return usageError();
            } else if (!path) {
                path = argv[i];
            } else {
                return usageError();
            }
        }
        if (!path)
            return usageError();
        if (seeds < 0)
            PISO_FATAL("--seeds wants a count >= 0, got ", seeds);
        if (opts.jobs < 0)
            PISO_FATAL("--jobs wants a count >= 0 (0 = one per core), got ",
                       opts.jobs);
        if (opts.maxRetries < 0)
            PISO_FATAL("--retries wants a count >= 0, got ",
                       opts.maxRetries);
        for (int s = 1; s <= seeds; ++s)
            plan.seeds.push_back(static_cast<std::uint64_t>(s));

        argsRead = true;
        plan.base = parseWorkloadSpec(readFile(path));
    } catch (const std::exception &e) {
        // A bad argument is a usage error; a bad spec file is not.
        std::fprintf(stderr, "piso_sweep: %s: %s\n",
                     argsRead ? path : "<args>", e.what());
        return argsRead ? 1 : 2;
    }

    try {
        // Open output files before any task runs: an unwritable path
        // must cost one error line, not the whole grid's work.
        std::ofstream outFile;
        if (outPath) {
            outFile.open(outPath);
            if (!outFile) {
                std::fprintf(stderr,
                             "piso_sweep: cannot write '%s'\n", outPath);
                return 1;
            }
        }
        std::ofstream summaryFile;
        if (summaryPath) {
            summaryFile.open(summaryPath);
            if (!summaryFile) {
                std::fprintf(stderr,
                             "piso_sweep: cannot write '%s'\n",
                             summaryPath);
                return 1;
            }
        }

        const auto tasks = exp::expandPlan(plan);
        std::fprintf(stderr, "piso_sweep: %zu task%s (jobs=%d)\n",
                     tasks.size(), tasks.size() == 1 ? "" : "s",
                     exp::effectiveJobs(opts.jobs, tasks.size()));

        const exp::SweepOutcome outcome = exp::runTasks(tasks, opts);
        const std::string jsonl = exp::formatSweepJsonl(outcome);

        if (speedup) {
            exp::SweepOptions serial = opts;
            serial.jobs = 1;
            const exp::SweepOutcome base = exp::runTasks(tasks, serial);
            const std::string serialJsonl = exp::formatSweepJsonl(base);
            if (serialJsonl != jsonl) {
                std::fprintf(stderr,
                             "piso_sweep: FAIL: --jobs %d output "
                             "differs from --jobs 1\n",
                             outcome.jobs);
                return 1;
            }
            std::fprintf(stderr,
                         "piso_sweep: speedup %.2fx (serial %.2f s / "
                         "jobs=%d %.2f s), outputs byte-identical\n",
                         outcome.wallSec > 0.0
                             ? base.wallSec / outcome.wallSec
                             : 0.0,
                         base.wallSec, outcome.jobs, outcome.wallSec);
        } else {
            std::fprintf(stderr, "piso_sweep: done in %.2f s wall\n",
                         outcome.wallSec);
        }

        const std::size_t failures = outcome.failures();
        if (failures > 0) {
            std::fprintf(stderr,
                         "piso_sweep: %zu of %zu task%s did not "
                         "complete (%d retr%s spent); see the "
                         "status/error records in the JSONL stream\n",
                         failures, outcome.runs.size(),
                         outcome.runs.size() == 1 ? "" : "s",
                         outcome.totalRetries(),
                         outcome.totalRetries() == 1 ? "y" : "ies");
        }

        if (outPath)
            outFile << jsonl;
        else
            std::fwrite(jsonl.data(), 1, jsonl.size(), stdout);
        // The summary (stderr, human-facing) carries the simulator's
        // perf columns; the JSONL stream (stdout, deterministic) never
        // does.
        if (summary) {
            const std::string table =
                exp::formatSweepSummary(outcome, true);
            if (summaryPath)
                summaryFile << table;
            else
                std::fputs(table.c_str(), stderr);
        }
        return failures > 0 && !opts.keepGoing ? 1 : 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "piso_sweep: %s\n", e.what());
        return 1;
    }
}
