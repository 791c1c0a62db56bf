#include "src/exp/pool.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>

#include "src/sim/trace.hh"
#include "src/util/log.hh"

namespace piso::exp {

namespace {

/** One parallelFor() call's tasks, shared by the threads that
 *  drain them. */
struct Batch
{
    std::size_t n;
    const std::function<void(std::size_t)> &fn;
    std::vector<std::exception_ptr> &errors;
    std::atomic<std::size_t> next{0};
};

/** Run fn(i) for every index the batch still hands out, recording
 *  each task's exception at its index. Every task starts at a default
 *  trace and log context, whatever the task before it installed or
 *  changed; the thread's own contexts are back in place on return. */
void
drain(Batch &b)
{
    TraceContext trace;
    LogContext log;
    TraceContext *const prevTrace = traceSetContext(&trace);
    LogContext *const prevLog = logSetContext(&log);
    for (std::size_t i; (i = b.next.fetch_add(1)) < b.n;) {
        trace = TraceContext{};
        log = LogContext{};
        traceSetContext(&trace);
        logSetContext(&log);
        try {
            b.fn(i);
        } catch (...) {
            b.errors[i] = std::current_exception();
        }
    }
    traceSetContext(prevTrace);
    logSetContext(prevLog);
}

/**
 * The process-wide helper threads. Helper h takes part in a batch
 * only when h < the batch's seat count, so a call with `jobs` workers
 * runs on the caller plus helpers 0 .. jobs-2, however large the pool
 * has grown. One batch runs at a time; a call that finds the pool
 * busy (a nested call, or one from another thread) runs inline.
 */
class Pool
{
  public:
    Pool() = default;
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        wake_.notify_all();
        for (std::thread &t : helpers_)
            t.join();
    }

    /** Drain @p b on the caller and up to @p workers - 1 helpers.
     *  False (nothing ran) when another batch holds the pool. */
    bool
    run(Batch &b, int workers)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (batch_)
                return false;
            grow(static_cast<std::size_t>(workers - 1));
            batch_ = &b;
            seats_ = std::min(helpers_.size(),
                              static_cast<std::size_t>(workers - 1));
            ++generation_;
        }
        wake_.notify_all();
        drain(b);

        // Close the batch: a helper that has not taken its seat yet
        // stays parked, and the caller waits out the ones that did.
        std::unique_lock<std::mutex> lock(mutex_);
        seats_ = 0;
        done_.wait(lock, [this] { return active_ == 0; });
        batch_ = nullptr;
        return true;
    }

  private:
    /** Start helpers up to @p want; a host that refuses more threads
     *  leaves the batch with the helpers it already has. */
    void
    grow(std::size_t want)
    {
        try {
            while (helpers_.size() < want)
                helpers_.emplace_back(&Pool::helperLoop, this,
                                      helpers_.size());
        } catch (const std::system_error &) {
        }
    }

    void
    helperLoop(std::size_t id)
    {
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            wake_.wait(lock, [&] {
                return stopping_ || (generation_ != seen && id < seats_);
            });
            if (stopping_)
                return;
            seen = generation_;
            ++active_;
            Batch &b = *batch_;
            lock.unlock();
            drain(b);
            lock.lock();
            if (--active_ == 0)
                done_.notify_one();
        }
    }

    std::mutex mutex_;              //!< guards every member below
    std::condition_variable wake_;  //!< helpers: a batch or shutdown
    std::condition_variable done_;  //!< caller: the last helper left
    bool stopping_ = false;
    Batch *batch_ = nullptr;       //!< the batch holding the pool
    std::uint64_t generation_ = 0; //!< batches started so far
    std::size_t seats_ = 0;        //!< helpers [0, seats_) may join
    std::size_t active_ = 0;       //!< helpers draining batch_
    std::vector<std::thread> helpers_;
};

Pool &
pool()
{
    static Pool instance;
    return instance;
}

} // namespace

int
effectiveJobs(int jobs, std::size_t tasks)
{
    if (jobs <= 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs = hw > 0 ? static_cast<int>(hw) : 1;
    }
    if (tasks < 1)
        tasks = 1;
    if (static_cast<std::size_t>(jobs) > tasks)
        jobs = static_cast<int>(tasks);
    return jobs;
}

void
parallelFor(std::size_t n, int jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;

    // Full-drain semantics: one task throwing must not cost any other
    // task its run (the execution-layer mirror of the paper's
    // isolation property). Every index executes; every exception is
    // collected; the lowest-indexed one is rethrown once the pool
    // drained, so the error a caller sees is independent of worker
    // count and scheduling.
    std::vector<std::exception_ptr> errors(n);

    const int workers = effectiveJobs(jobs, n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    } else {
        Batch batch{n, fn, errors};
        // A pool busy with an enclosing or concurrent batch leaves
        // this caller to drain its own batch alone.
        if (!pool().run(batch, workers))
            drain(batch);
    }

    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
}

} // namespace piso::exp
