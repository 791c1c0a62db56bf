#ifndef PISO_METRICS_RESULTS_HH
#define PISO_METRICS_RESULTS_HH

/**
 * @file
 * Results of one simulation run, shaped for the paper's evaluation:
 * per-job response times, per-SPU resource usage, per-disk request
 * statistics.
 */

#include <string>
#include <vector>

#include "src/core/scheme_profile.hh"
#include "src/core/spu_table.hh"
#include "src/os/kernel.hh"
#include "src/sim/ids.hh"
#include "src/util/time.hh"

namespace piso {

/** One job's outcome. */
struct JobResult
{
    JobId id = kNoJob;
    std::string name;
    SpuId spu = kNoSpu;
    Time start = 0;
    Time end = 0;
    bool completed = false;

    /** A constituent process was killed by a permanent I/O failure;
     *  the job finished but did not do its work. */
    bool failed = false;

    /** Response time (start of job to last process exit). */
    Time response() const { return completed ? end - start : 0; }
    double responseSec() const { return toSeconds(response()); }
};

/** One SPU's aggregate usage. */
struct SpuResult
{
    SpuId id = kNoSpu;
    std::string name;

    /** Enclosing group in the SPU tree (kNoSpu when top-level — the
     *  only case in a flat configuration). */
    SpuId parent = kNoSpu;
    Time cpuTime = 0;
    std::uint64_t memUsedPages = 0;  //!< at end of run
    std::uint64_t memEntitledPages = 0;

    /** @name Fault/recovery counters (I/O path) */
    /// @{
    std::uint64_t diskErrors = 0;  //!< failed completions observed
    std::uint64_t ioRetries = 0;   //!< requests reissued
    std::uint64_t ioTimeouts = 0;  //!< requests declared lost
    std::uint64_t failedOps = 0;   //!< I/Os abandoned after retries
    /// @}
};

/** One SPU's view of one disk. */
struct SpuDiskResult
{
    std::uint64_t requests = 0;
    std::uint64_t sectors = 0;
    std::uint64_t errors = 0;   //!< requests completed failed
    double avgWaitMs = 0.0;     //!< mean queue wait per request
    double avgServiceMs = 0.0;  //!< mean service time per request
};

/** One disk's aggregate behaviour. */
struct DiskResult
{
    std::string name;
    std::uint64_t requests = 0;
    std::uint64_t sectors = 0;
    std::uint64_t errors = 0;    //!< requests completed failed
    double avgWaitMs = 0.0;
    double avgPositionMs = 0.0;  //!< mean seek+rotation ("disk latency")
    double avgSeekMs = 0.0;
    double busyFraction = 0.0;
    SpuTable<SpuDiskResult> perSpu;
};

/**
 * Host-side performance of the simulator itself for one run: how many
 * events the queue executed and how long the host took. This measures
 * the *simulator*, not the simulated machine, so it is reported out of
 * band (never in deterministic outputs such as sweep JSONL streams or
 * golden fixtures).
 */
struct RunPerf
{
    std::uint64_t events = 0;  //!< events executed by the run loop
    double wallSec = 0.0;      //!< host wall-clock for run()'s event loop

    /** Host wall-clock of the set-up replay (file layout, job builds,
     *  policy start), done by run() on a cold start or by restore();
     *  not part of wallSec. */
    double setupSec = 0.0;

    /** @name Policy-loop iteration counters
     *  Work performed by the periodic resource policies: entries
     *  examined by CPU scheduler scans, leaf SPUs visited by memory
     *  recomputes, and queue entries examined by disk/network picks.
     *  The O(active) loops of this layer keep these near-flat as the
     *  configured SPU count grows; bench/ext_scale asserts that. */
    /// @{
    std::uint64_t policyItersCpu = 0;
    std::uint64_t policyItersMem = 0;
    std::uint64_t policyItersDisk = 0;
    std::uint64_t policyItersNet = 0;
    /// @}

    double eventsPerSec() const
    {
        return wallSec > 0.0 ? static_cast<double>(events) / wallSec : 0.0;
    }
};

/** NUMA/bus behaviour of one run (absent unless the machine model is
 *  configured with memory domains; see src/machine/numa.hh). */
struct NumaResult
{
    bool enabled = false;
    int domains = 1;
    std::uint64_t localTouches = 0;
    std::uint64_t remoteTouches = 0;
    std::uint64_t busBytes = 0;

    /** Bus utilisation estimate at end of run, in [0, 1]. */
    double busUtilization = 0.0;
};

/** Everything measured in one run. */
struct SimResults
{
    /** The per-resource policies the run executed under. */
    SchemeProfile profile{};

    Time simulatedTime = 0;
    bool completed = false;  //!< all jobs finished before maxTime
    std::vector<JobResult> jobs;
    SpuTable<SpuResult> spus;
    std::vector<DiskResult> disks;
    KernelStats kernel;

    /** Simulator (host) performance; see RunPerf for the out-of-band
     *  reporting contract. */
    RunPerf perf;

    /** NUMA/bus counters (enabled = false on uniform machines, which
     *  keeps every small-machine report byte-identical). */
    NumaResult numa;

    /** Result of the job named @p name (fatal if absent). */
    const JobResult &job(const std::string &name) const;

    /** Mean response (seconds) over jobs belonging to @p spuIds. */
    double meanResponseSec(const std::vector<SpuId> &spuIds) const;

    /** Mean response (seconds) over jobs whose name starts with
     *  @p prefix. */
    double meanResponseSecByPrefix(const std::string &prefix) const;
};

} // namespace piso

#endif // PISO_METRICS_RESULTS_HH
