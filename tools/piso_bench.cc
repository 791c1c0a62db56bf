/**
 * @file
 * piso_bench: microbenchmarks of the simulator's hot paths.
 *
 *   piso_bench                 # full run: eventq, cache, warm, contain
 *   piso_bench --quick         # smaller sizes (CI smoke)
 *   piso_bench --reps 9 warm   # a subset, more repetitions
 *
 * Four benchmarks:
 *
 *   eventq   steady-state EventQueue traffic: a small pending set whose
 *            firings schedule successors and arm and cancel watchdogs
 *            (the cost of every simulated event).
 *   cache    buffer-cache lookup/insert/touch/steal churn (the file
 *            I/O path's per-block cost), then a stream pass: a fresh
 *            cache filled by two files read and written front to back,
 *            as a file copy does.
 *   warm     an eight-scenario late-fault sweep run cold (every point
 *            from time zero) and warm (one checkpointed prefix, eight
 *            forked tails), plus the template checkpoint on its own:
 *            what warm start saves and what it adds.
 *   contain  the containment layer's cost: a run with and without
 *            watchdog budgets armed, a contained six-task sweep, and a
 *            sweep whose every task fails fast (the quarantine path).
 *
 * Every time is host wall-clock measured by this tool and only
 * printed: nothing here is a pass/fail threshold on speed. The exit
 * status reports the self-checks alone: warm's JSONL must equal
 * cold's byte for byte, and contain's sweeps must succeed or fail as
 * built. Exact work counters (events, heap comparisons, cache index
 * probes, policy iterations) are pinned in tests/test_alloc_ceiling.cc;
 * end-to-end timing of whole figure runs is perfbench's
 * (perfbench/README.md). docs/performance.md records the numbers.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "src/config/workload_spec.hh"
#include "src/exp/experiment.hh"
#include "src/exp/runner.hh"
#include "src/os/buffer_cache.hh"
#include "src/piso.hh"
#include "src/util/log.hh"

using namespace piso;

namespace {

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n == 0 ? 0.0
                  : (n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]));
}

/**
 * The timing loop: one warm-up call (page in code, warm the
 * allocator), then @p reps batches of @p inner back-to-back calls of
 * @p fn (one call may take well under a millisecond, so batching
 * keeps the clock honest). @return the median wall seconds per call.
 */
template <typename Fn>
double
timeMedian(int reps, int inner, Fn &&fn)
{
    fn();
    std::vector<double> perCall;
    perCall.reserve(static_cast<std::size_t>(reps));
    for (int r = 0; r < reps; ++r) {
        const double start = nowSec();
        for (int i = 0; i < inner; ++i)
            fn();
        perCall.push_back((nowSec() - start) / inner);
    }
    return median(std::move(perCall));
}

/**
 * Event-queue traffic shaped like a simulation's steady state: 16
 * pending work events (compute segments, ticks, completions) 1-20 ms
 * apart, so one fires about every 0.6 ms of simulated time as in the
 * Figure 2 machine. Each firing schedules its successor, cancels the
 * 10 s watchdog the previous firing armed (an I/O completing) and
 * arms a new one, probing pendingEvent() as the kernel's guards do.
 * Prints events scheduled (work and watchdogs) per second and the
 * heap's comparisons per event.
 */
void
benchEventQueue(std::uint64_t totalEvents)
{
    // Work events carry arg 0, watchdogs arg 1.
    struct Traffic final : EventSink
    {
        EventQueue q;
        EventId watchdog = kNoEvent;
        std::uint64_t x = 12345;
        std::uint64_t scheduled = 0;

        void
        fire(EvKind, const EventArg &arg) override
        {
            if (arg.value == 0)
                work();
        }

        void
        work()
        {
            if (q.pendingEvent(watchdog))
                q.cancel(watchdog);
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
            const Time delay = static_cast<Time>(1 + (x >> 33) % 20) * kMs;
            q.scheduleAfter(delay, EvKind::External, *this, {0});
            watchdog =
                q.scheduleAfter(10 * kSec, EvKind::External, *this, {1});
            scheduled += 2;
        }
    };

    Traffic t;
    const double start = nowSec();
    for (int i = 0; i < 16; ++i) {
        t.q.schedule(static_cast<Time>(i) * kMs, EvKind::External, t, {0});
        ++t.scheduled;
    }
    while (t.scheduled < totalEvents)
        t.q.runOne();
    const double sec = nowSec() - start;
    if (t.q.executedEvents() == 0)
        PISO_FATAL("event queue benchmark fired nothing");
    std::printf("eventq:  %8.2f M events/s  (%llu events, 16 pending + "
                "watchdog per firing, %.2f compares/event)\n",
                static_cast<double>(t.scheduled) / sec / 1e6,
                static_cast<unsigned long long>(t.scheduled),
                static_cast<double>(t.q.comparisons()) /
                    static_cast<double>(t.scheduled));
}

/**
 * Buffer-cache churn: sequential-ish inserts with LRU touches, dirty
 * marking, periodic clean steals (half of them victim-filtered) and
 * dirty scans — the doRead/doWrite/pageout mix. Prints cache
 * operations per second and index probes per operation.
 */
void
benchBufferCache(std::uint64_t totalOps)
{
    BufferCache cache;
    const std::uint64_t files = 8;
    const std::uint64_t blocksPerFile = 4096;
    std::uint64_t ops = 0;
    std::uint64_t x = 99;

    const double start = nowSec();
    while (ops < totalOps) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        const BlockKey key{
            static_cast<FileId>((x >> 13) % files),
            (x >> 33) % blocksPerFile};
        const SpuId spu = static_cast<SpuId>(2 + (x >> 7) % 4);

        CacheBlock *blk = cache.find(key);
        if (blk) {
            cache.touch(*blk);
            if ((x & 7) == 0)
                cache.markDirty(*blk);
        } else {
            CacheBlock &nb = cache.insert(key, spu, true);
            if ((x & 15) == 0)
                cache.markDirty(nb);
        }
        ++ops;

        // Keep the cache bounded like a full machine would: steal the
        // LRU clean block once we pass 8k resident blocks. Half the
        // steals name a victim SPU, as every kernel steal does; the
        // rest, and a victim with nothing clean, take any owner's.
        if (cache.size() > 8192) {
            SpuId owner = kNoSpu;
            if (((x >> 40) & 1) == 0 || !cache.stealClean(spu, owner))
                cache.stealClean(kNoSpu, owner);
            ++ops;
        }

        // bdflush stand-in: periodically scan for dirty blocks and
        // clean a batch, so dirty blocks never swamp the LRU list.
        if ((ops & 1023) == 0) {
            std::vector<BlockKey> dirty;
            cache.forEachFlushable([&](CacheBlock &b) {
                if (dirty.size() < 256)
                    dirty.push_back(b.key);
            });
            for (const BlockKey &k : dirty) {
                if (CacheBlock *b = cache.find(k))
                    cache.markClean(*b);
            }
        }
    }
    const double sec = nowSec() - start;
    std::printf("cache:   %8.2f M ops/s     (%llu ops, "
                "find+insert+touch+steal, %.2f probes/op)\n",
                static_cast<double>(ops) / sec / 1e6,
                static_cast<unsigned long long>(ops),
                static_cast<double>(cache.probeVisits()) /
                    static_cast<double>(ops));
}

/**
 * Buffer-cache streaming, a file copy's traffic: each of @p passes
 * takes a fresh cache and walks two 5,120-block files front to back,
 * finding each block and inserting it on the miss, the read file's
 * blocks clean and the written file's dirty. Prints finds and inserts
 * per second.
 */
void
benchCacheStream(std::uint64_t passes)
{
    constexpr std::uint64_t kBlocks = 5120;

    const double start = nowSec();
    for (std::uint64_t pass = 0; pass < passes; ++pass) {
        BufferCache cache;
        for (std::uint64_t b = 0; b < kBlocks; ++b) {
            const BlockKey from{0, b};
            if (!cache.find(from))
                cache.insert(from, 2, true);
            const BlockKey to{1, b};
            if (!cache.find(to))
                cache.markDirty(cache.insert(to, 2, true));
        }
        if (cache.size() != 2 * kBlocks)
            PISO_FATAL("cache stream benchmark lost blocks");
    }
    const double sec = nowSec() - start;
    std::printf("stream:  %8.2f M ops/s     (%llu passes x 2 files x "
                "5120 blocks, find+insert, fresh cache per pass)\n",
                static_cast<double>(4 * kBlocks * passes) / sec / 1e6,
                static_cast<unsigned long long>(passes));
}

/**
 * Warm start's best case, which is also the common what-if shape: a
 * compute-heavy base (the hogs run ~5 s of simulated time, the disks
 * go quiet after the start-up page-ins) swept over eight late disk
 * faults diverging at t=4 s. Every point has one config digest, so
 * warm start folds them into one group: cold cost ~ 8 runs, warm cost
 * ~ one prefix run + 8 tails. perfbench's fault_sweep workload runs
 * the same plan at its own seeds.
 */
const char *kWarmSpec = R"(
machine cpus=4 memory_mb=32 disks=2 scheme=piso seed=3
spu ocean share=1 disk=0
spu eng share=1 disk=1
job ocean ocean name=sim procs=2 iters=60 grain_ms=20 ws_pages=400
job eng compute name=hog1 cpu_ms=5000 ws_pages=300
job eng compute name=hog2 cpu_ms=5000 ws_pages=300
)";

/** Cold sweep, warm sweep and template checkpoint of kWarmSpec's
 *  plan, serially (work, not parallel fan-out). @return false when
 *  the warm JSONL differs from the cold. */
bool
benchWarmStart(int reps, int inner)
{
    exp::ExperimentPlan plan;
    plan.base = parseWorkloadSpec(kWarmSpec);
    plan.axes.push_back(exp::parseGridAxis(
        "fault_disk_slow=none,4:0.5:0:2,4:0.5:0:4,4:0.5:0:8,"
        "4:0.5:1:4,4:1:0:4,4:1:1:8,4.2:0.5:0:4"));

    std::string coldJsonl, warmJsonl;
    const auto sweep = [&](bool warm) {
        const exp::SweepOutcome out =
            exp::runPlan(plan, {.jobs = 1, .warmStart = warm});
        if (out.failures() != 0)
            PISO_FATAL("warm benchmark: a sweep task failed");
        (warm ? warmJsonl : coldJsonl) = exp::formatSweepJsonl(out);
    };
    const double cold = timeMedian(reps, inner, [&] { sweep(false); });
    const double warm = timeMedian(reps, inner, [&] { sweep(true); });

    // The fixed cost warm start adds on top of the forked tails: run
    // the shared prefix to its checkpoint and serialise the image.
    WorkloadSpec spec = parseWorkloadSpec(kWarmSpec);
    spec.config.checkpointAt = 3 * kSec;
    spec.config.checkpointDeadline = 4 * kSec;
    spec.config.checkpointStop = true;
    const double templ = timeMedian(reps, inner, [&] {
        std::string image;
        spec.config.checkpointSink = [&image](std::string img) {
            image = std::move(img);
        };
        Simulation sim(spec.config);
        populateWorkloadSpec(sim, spec);
        sim.run();
        if (image.empty())
            PISO_FATAL("warm benchmark: no checkpoint fired");
    });

    std::printf("warm:    cold %.3f ms  warm %.3f ms  speed-up %.2fx  "
                "template %.3f ms  (8-scenario fault plan, jobs 1)\n",
                cold * 1e3, warm * 1e3, cold / warm,
                templ * 1e3);
    if (warmJsonl != coldJsonl) {
        std::fflush(stdout);
        std::fprintf(stderr, "piso_bench: FAIL warm: the warm sweep's "
                             "JSONL differs from the cold sweep's\n");
        return false;
    }
    return true;
}

/** Two SPUs, a compute job against a small copy: a short run whose
 *  own cost the containment layer must barely add to. */
const char *kContainSpec = R"(
machine cpus=2 memory_mb=16 disks=1 scheme=piso seed=7
spu a share=1 disk=0
spu b share=1 disk=0
job a compute name=spin cpu_ms=100 ws_pages=50
job b copy    name=cp bytes_kb=256
)";

/** The containment layer's costs. @return false when a self-check
 *  fails: the armed run must match the unguarded one, the contained
 *  sweep must succeed and every quarantine-path task must fail. */
bool
benchContainment(int reps, int inner)
{
    bool ok = true;
    const auto expect = [&ok](bool cond, const char *what) {
        if (!cond) {
            std::fprintf(stderr, "piso_bench: FAIL contain: %s\n", what);
            ok = false;
        }
    };

    // Budgets far above what the run needs: the armed run pays the
    // per-event probe and never trips, so the difference between the
    // two is the whole watchdog cost.
    const WorkloadSpec spec = parseWorkloadSpec(kContainSpec);
    WorkloadSpec armedSpec = spec;
    armedSpec.config.watchdogSimTime = 3600 * kSec;
    armedSpec.config.watchdogEvents = ~0ull;
    SimResults plainRun, armedRun;
    const double plain = timeMedian(reps, inner, [&] {
        plainRun = runWorkloadSpec(spec);
    });
    const double armed = timeMedian(reps, inner, [&] {
        armedRun = runWorkloadSpec(armedSpec);
    });
    expect(armedRun.simulatedTime == plainRun.simulatedTime,
           "the armed run's simulated time differs");

    // Six tasks through the full containment path (runContained,
    // TaskOutcome, JSONL formatting) on one worker.
    exp::ExperimentPlan plan;
    plan.base = spec;
    plan.axes.push_back(exp::parseGridAxis("scheme=smp,quota,piso"));
    plan.seeds = {1, 2};
    const std::vector<exp::ExperimentTask> tasks = exp::expandPlan(plan);
    std::size_t sweepFailures = 0;
    const double sweep = timeMedian(reps, inner, [&] {
        const exp::SweepOutcome out = exp::runTasks(tasks, {.jobs = 1});
        sweepFailures = out.failures();
        exp::formatSweepJsonl(out);
    });
    expect(sweepFailures == 0, "a contained sweep task failed");

    // Every task fails at once with injected resource pressure that
    // outlasts the retry budget: throw, classify, retry twice, record
    // the failure, with almost no simulation underneath.
    exp::ExperimentPlan failing;
    failing.base = spec;
    failing.base.config.chaos.resourceUntilAttempt = 100;
    failing.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
    const std::vector<exp::ExperimentTask> doomed =
        exp::expandPlan(failing);
    std::size_t quarantined = 0;
    const double quarantine = timeMedian(reps, inner, [&] {
        const exp::SweepOutcome out = exp::runTasks(doomed, {.jobs = 1});
        quarantined = out.failures();
        exp::formatSweepJsonl(out);
    });
    expect(quarantined == doomed.size(),
           "a quarantine-path task did not fail");

    std::printf("contain: run %.3f ms  armed %.3f ms (%+.1f%%)  "
                "sweep %.3f ms/task  quarantine %.3f ms/task\n",
                plain * 1e3, armed * 1e3,
                100.0 * (armed - plain) / plain,
                sweep * 1e3 / static_cast<double>(tasks.size()),
                quarantine * 1e3 / static_cast<double>(doomed.size()));
    return ok;
}

constexpr const char *kBenches[] = {"eventq", "cache", "warm", "contain"};

bool
isBench(const char *name)
{
    return std::any_of(std::begin(kBenches), std::end(kBenches),
                       [name](const char *b) {
                           return std::strcmp(b, name) == 0;
                       });
}

void
usage(std::FILE *to)
{
    std::fprintf(to,
                 "usage: piso_bench [--quick] [--reps N] "
                 "[eventq|cache|warm|contain]...\n"
                 "  --quick      smaller workloads (CI smoke)\n"
                 "  --reps N     timed batches of warm and contain, "
                 "N >= 1 (default 5, quick 3)\n"
                 "  -h, --help   show this help and exit\n"
                 "With no benchmark names, all four run. Exit status 1 "
                 "means a self-check\nfailed; times are never checked. "
                 "End-to-end figure runs: perfbench.\n");
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
    bool quick = false;
    int reps = 0;
    std::vector<std::string> which;

    try {
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--quick") == 0) {
                quick = true;
            } else if (std::strcmp(argv[i], "--reps") == 0 &&
                       i + 1 < argc) {
                ++i;
                reps = OptionValue{argv[i - 1], argv[i], {}}.read<int>();
                if (reps < 1)
                    PISO_FATAL("--reps wants a count >= 1, got ", reps);
            } else if (std::strcmp(argv[i], "-h") == 0 ||
                       std::strcmp(argv[i], "--help") == 0) {
                usage(stdout);
                return 0;
            } else if (isBench(argv[i])) {
                which.emplace_back(argv[i]);
            } else {
                return usageError();
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "piso_bench: %s\n", e.what());
        return 2;
    }
    if (which.empty())
        which.assign(std::begin(kBenches), std::end(kBenches));
    if (reps == 0)
        reps = quick ? 3 : 5;

    const auto wants = [&](const char *name) {
        return std::find(which.begin(), which.end(), name) != which.end();
    };

    bool ok = true;
    try {
        if (wants("eventq"))
            benchEventQueue(quick ? 300000 : 3000000);
        if (wants("cache")) {
            benchBufferCache(quick ? 400000 : 4000000);
            benchCacheStream(quick ? 20 : 200);
        }
        if (wants("warm"))
            ok = benchWarmStart(reps, quick ? 1 : 5) && ok;
        if (wants("contain"))
            ok = benchContainment(reps, quick ? 10 : 100) && ok;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "piso_bench: FAIL: %s\n", e.what());
        return 1;
    }
    return ok ? 0 : 1;
}
