#ifndef PISO_EXP_POOL_HH
#define PISO_EXP_POOL_HH

/**
 * @file
 * A small batch-parallel executor for independent simulations.
 *
 * Each Simulation is a self-contained deterministic DES, so a
 * parameter sweep is embarrassingly parallel: parallelFor() runs
 * `fn(0) .. fn(n-1)` on the calling thread plus up to `jobs - 1`
 * helper threads, claiming indices dynamically (good load balance
 * when task runtimes differ) and blocking until every task finished.
 * Results keyed by index are therefore deterministic regardless of
 * the worker count — the property the determinism test battery
 * enforces end to end.
 *
 * The helpers are made once per process: the first call with
 * `jobs > 1` starts them, the pool grows to the largest `jobs - 1`
 * ever asked for, idle helpers park on a condition variable, and the
 * pool joins them at static destruction. A call with `jobs` workers
 * uses the lowest `jobs - 1` helpers only. One batch holds the pool
 * at a time: a nested call, or a concurrent one from another thread,
 * runs inline on its own caller. With `jobs > 1` every task starts at
 * a default trace and log context wherever it runs, so what a task
 * installs never reaches the next task on that thread.
 */

#include <cstddef>
#include <functional>
#include <vector>

namespace piso::exp {

/**
 * Resolve a worker-count request against the task count and the host.
 * @param jobs  Requested workers; <= 0 means "one per hardware thread".
 * @param tasks Number of tasks (the pool never exceeds it).
 * @return a count in [1, max(1, tasks)].
 */
int effectiveJobs(int jobs, std::size_t tasks);

/**
 * Run @p fn(i) for every i in [0, n) on @p jobs worker threads.
 *
 * Blocks until all tasks completed. With jobs <= 1 everything runs
 * inline on the calling thread (no threads are created), which makes
 * `--jobs 1` a pure serial baseline. Throwing tasks never cost other
 * tasks their run: every index executes to completion regardless of
 * failures elsewhere, and the exception of the lowest-indexed failed
 * task is rethrown once the pool drained — so both the work done and
 * the error reported are independent of worker count.
 */
void parallelFor(std::size_t n, int jobs,
                 const std::function<void(std::size_t)> &fn);

/**
 * parallelFor() collecting one result per index. @p fn maps an index
 * to a value; the returned vector is ordered by index (deterministic
 * for any worker count). T must be default-constructible.
 */
template <typename T, typename Fn>
std::vector<T>
parallelMap(std::size_t n, int jobs, Fn fn)
{
    std::vector<T> out(n);
    parallelFor(n, jobs, [&](std::size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace piso::exp

#endif // PISO_EXP_POOL_HH
