/**
 * @file
 * piso_bench: microbenchmarks of the simulator's hot paths.
 *
 *   piso_bench                 # full run: eventq, cache, fig2
 *   piso_bench --quick         # smaller sizes (CI smoke)
 *   piso_bench --check         # fail (exit 1) on gross regressions
 *   piso_bench eventq cache    # run a subset
 *
 * Three benchmarks, one per hot path the engine's speed rests on:
 *
 *   eventq  steady-state EventQueue traffic: a small pending set whose
 *           firings schedule successors and arm and cancel watchdogs
 *           (the cost of every simulated event).
 *   cache   buffer-cache lookup/insert/touch/steal churn (the file
 *           I/O path's per-block cost), then a stream pass: a fresh
 *           cache filled by two files read and written front to back,
 *           as a file copy does (no --check floor).
 *   fig2    the paper's Figure 2 machine end-to-end (8 SPUs, 12 pmake
 *           jobs, PIso), warmup + repetitions + median wall time.
 *
 * Every number is wall-clock measured by this tool, so before/after
 * comparisons across revisions use the same harness (see
 * docs/performance.md for the numbers recorded for each change).
 *
 * --check applies generous absolute floors (roughly 5x below the
 * numbers measured on a developer machine in Release mode) so CI
 * catches order-of-magnitude regressions without flaking on slower
 * runners. Debug builds are exempt from --check by design: pass it
 * only to optimised builds.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/pmake8.hh"
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
 * Event-queue traffic shaped like a simulation's steady state: 16
 * pending work events (compute segments, ticks, completions) 1-20 ms
 * apart, so one fires about every 0.6 ms of simulated time as in the
 * Figure 2 machine. Each firing schedules its successor, cancels the
 * 10 s watchdog the previous firing armed (an I/O completing) and
 * arms a new one, probing pendingEvent() as the kernel's guards do.
 * @return events scheduled (work and watchdogs) per second.
 */
double
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
    return static_cast<double>(t.scheduled) / sec;
}

/**
 * Buffer-cache churn: sequential-ish inserts with LRU touches, dirty
 * marking, periodic clean steals (half of them victim-filtered) and
 * dirty scans — the doRead/doWrite/pageout mix. @return cache
 * operations per second.
 */
double
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
            cache.forEachDirty([&](CacheBlock &b) {
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
    return static_cast<double>(ops) / sec;
}

/**
 * Buffer-cache streaming, a file copy's traffic: each of @p passes
 * takes a fresh cache and walks two 5,120-block files front to back,
 * finding each block and inserting it on the miss, the read file's
 * blocks clean and the written file's dirty. @return finds and inserts
 * per second.
 */
double
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
    return static_cast<double>(4 * kBlocks * passes) / sec;
}

/**
 * One fig2 repetition: a batch of back-to-back runs of the golden
 * fixture's machine (a single run is a few milliseconds, so batching
 * keeps the clock honest). @return wall seconds per run.
 */
double
runFig2Batch(int inner)
{
    const double start = nowSec();
    for (int i = 0; i < inner; ++i) {
        const bench::Pmake8Run run =
            bench::runPmake8(Scheme::PIso, /*unbalanced=*/true, 1);
        if (!run.results.completed)
            PISO_FATAL("fig2 benchmark run did not complete");
    }
    return (nowSec() - start) / inner;
}

void
usage(std::FILE *to)
{
    std::fprintf(to,
                 "usage: piso_bench [--quick] [--check] [--reps N] "
                 "[eventq|cache|fig2]...\n"
                 "  --quick      smaller workloads (CI smoke)\n"
                 "  --check      exit 1 when a result is >5x below the "
                 "recorded Release baseline\n"
                 "  --reps N     fig2 repetitions (default 5, quick 3)\n"
                 "  -h, --help   show this help and exit\n"
                 "With no benchmark names, all three run.\n");
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
    bool check = false;
    int reps = 0;
    std::vector<std::string> which;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            check = true;
        } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (std::strcmp(argv[i], "-h") == 0 ||
                   std::strcmp(argv[i], "--help") == 0) {
            usage(stdout);
            return 0;
        } else if (argv[i][0] == '-') {
            return usageError();
        } else {
            which.emplace_back(argv[i]);
        }
    }
    if (which.empty())
        which = {"eventq", "cache", "fig2"};
    if (reps <= 0)
        reps = quick ? 3 : 5;

    const auto wants = [&](const char *name) {
        return std::find(which.begin(), which.end(), name) != which.end();
    };

    // Floors for --check: ~5x below the Release numbers recorded in
    // docs/performance.md, so only gross regressions (or accidentally
    // checking a Debug build) trip them.
    constexpr double kEventqFloor = 2.0e6; // events/s
    constexpr double kCacheFloor = 2.0e6;  // ops/s
    constexpr double kFig2Ceiling = 0.050; // seconds per run

    bool ok = true;

    if (wants("eventq")) {
        const std::uint64_t n = quick ? 300000 : 3000000;
        const double rate = benchEventQueue(n);
        std::printf("eventq: %8.2f M events/s  (%llu events, "
                    "16 pending + watchdog per firing)\n",
                    rate / 1e6, static_cast<unsigned long long>(n));
        std::fflush(stdout);
        if (check && rate < kEventqFloor) {
            std::fprintf(stderr,
                         "piso_bench: FAIL eventq %.2fM < floor %.2fM "
                         "events/s\n",
                         rate / 1e6, kEventqFloor / 1e6);
            ok = false;
        }
    }

    if (wants("cache")) {
        const std::uint64_t n = quick ? 400000 : 4000000;
        const double rate = benchBufferCache(n);
        std::printf("cache:  %8.2f M ops/s     (%llu ops, "
                    "find+insert+touch+steal)\n",
                    rate / 1e6, static_cast<unsigned long long>(n));
        std::fflush(stdout);
        if (check && rate < kCacheFloor) {
            std::fprintf(stderr,
                         "piso_bench: FAIL cache %.2fM < floor %.2fM "
                         "ops/s\n",
                         rate / 1e6, kCacheFloor / 1e6);
            ok = false;
        }
        const std::uint64_t passes = quick ? 20 : 200;
        const double streamRate = benchCacheStream(passes);
        std::printf("stream: %8.2f M ops/s     (%llu passes x 2 files x "
                    "5120 blocks, find+insert, fresh cache per pass)\n",
                    streamRate / 1e6,
                    static_cast<unsigned long long>(passes));
        std::fflush(stdout);
    }

    if (wants("fig2")) {
        const int inner = quick ? 5 : 50;
        runFig2Batch(1); // warmup (page in code, warm allocator)
        std::vector<double> times;
        times.reserve(static_cast<std::size_t>(reps));
        for (int r = 0; r < reps; ++r)
            times.push_back(runFig2Batch(inner));
        const double med = median(times);
        std::printf("fig2:   %8.3f ms/run median (%d reps x %d runs + "
                    "1 warmup, min %.3f max %.3f)\n",
                    med * 1e3, reps, inner,
                    1e3 * *std::min_element(times.begin(), times.end()),
                    1e3 * *std::max_element(times.begin(), times.end()));
        if (check && med > kFig2Ceiling) {
            std::fprintf(stderr,
                         "piso_bench: FAIL fig2 median %.3f ms/run > "
                         "ceiling %.1f ms\n",
                         med * 1e3, kFig2Ceiling * 1e3);
            ok = false;
        }
    }

    return ok ? 0 : 1;
}
