/**
 * @file
 * The sweep engine's persistent thread pool: thread reuse, the
 * full-drain and lowest-index-rethrow contract on a reused pool,
 * nested and concurrent calls, and the default trace/log context every
 * task starts at. Labelled `sweep`, so the TSan job runs it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/exp/pool.hh"
#include "src/sim/trace.hh"
#include "src/util/log.hh"

using namespace piso;

namespace {

/** The distinct threads that ran tasks over @p calls calls. */
std::size_t
threadsUsed(int jobs, int calls)
{
    std::mutex mutex;
    std::set<std::thread::id> ids;
    for (int c = 0; c < calls; ++c) {
        exp::parallelFor(32, jobs, [&](std::size_t) {
            std::lock_guard<std::mutex> lock(mutex);
            ids.insert(std::this_thread::get_id());
        });
    }
    return ids.size();
}

} // namespace

TEST(Pool, ReusesAtMostJobsThreads)
{
    // Grow the pool to its largest size first: smaller calls must
    // still stay on the caller plus their own share of helpers.
    EXPECT_LE(threadsUsed(8, 1), 8u);
    for (int jobs : {2, 4, 8})
        EXPECT_LE(threadsUsed(jobs, 100), static_cast<std::size_t>(jobs))
            << "jobs " << jobs;
}

TEST(Pool, SerialCallsRunOnTheCaller)
{
    EXPECT_EQ(threadsUsed(1, 10), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    exp::parallelFor(4, 1, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(Pool, DrainAndLowestRethrowHoldOnAReusedPool)
{
    constexpr std::size_t kTasks = 24;
    for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<bool>> done(kTasks);
        const std::size_t low = 3 + static_cast<std::size_t>(round) % 7;
        try {
            exp::parallelFor(kTasks, 4, [&](std::size_t i) {
                if (i == low || i == low + 9)
                    throw std::runtime_error("boom " + std::to_string(i));
                done[i].store(true);
            });
            FAIL() << "parallelFor swallowed the task exceptions";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()),
                      "boom " + std::to_string(low));
        }
        for (std::size_t i = 0; i < kTasks; ++i) {
            if (i != low && i != low + 9) {
                EXPECT_TRUE(done[i].load())
                    << "round " << round << " task " << i << " abandoned";
            }
        }
    }
}

TEST(Pool, NestedCallCompletes)
{
    std::vector<std::atomic<int>> hits(8 * 8);
    exp::parallelFor(8, 4, [&](std::size_t outer) {
        exp::parallelFor(8, 4, [&](std::size_t inner) {
            hits[outer * 8 + inner].fetch_add(1);
        });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
}

TEST(Pool, ConcurrentCallersBothComplete)
{
    constexpr std::size_t kTasks = 200;
    std::vector<std::atomic<int>> a(kTasks), b(kTasks);
    auto caller = [](std::vector<std::atomic<int>> &hits) {
        for (int round = 0; round < 20; ++round) {
            exp::parallelFor(hits.size(), 4, [&](std::size_t i) {
                hits[i].fetch_add(1);
            });
        }
    };
    std::thread first(caller, std::ref(a));
    std::thread second(caller, std::ref(b));
    first.join();
    second.join();
    for (std::size_t i = 0; i < kTasks; ++i) {
        EXPECT_EQ(a[i].load(), 20) << "first caller, task " << i;
        EXPECT_EQ(b[i].load(), 20) << "second caller, task " << i;
    }
}

TEST(Pool, EveryTaskStartsAtTheDefaultContexts)
{
    // Leaked contexts a throwing task leaves installed, and mutations
    // of whatever was installed, must not reach the next task on that
    // thread.
    static TraceContext leakedTrace;
    static LogContext leakedLog;
    leakedTrace.mask = TraceCat::All;
    leakedLog.level = LogLevel::Debug;
    for (int jobs : {2, 4}) {
        std::atomic<int> dirty{0};
        try {
            exp::parallelFor(64, jobs, [&](std::size_t i) {
                if (traceMask() != TraceCat::None || traceContext().sink ||
                    logLevel() != LogLevel::Quiet)
                    dirty.fetch_add(1);
                if (i % 2 == 0) {
                    traceSetContext(&leakedTrace);
                    logSetContext(&leakedLog);
                } else {
                    traceEnable(TraceCat::Sched);
                    setLogLevel(LogLevel::Info);
                }
                throw std::runtime_error("leave it dirty");
            });
        } catch (const std::runtime_error &) {
        }
        EXPECT_EQ(dirty.load(), 0) << "jobs " << jobs;
    }
    // The caller's own contexts are untouched by the tasks it drained.
    EXPECT_EQ(traceMask(), TraceCat::None);
    EXPECT_EQ(logLevel(), LogLevel::Quiet);
}
