#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

/**
 * @file
 * The benchmark's four workloads. Each one runs "units": one point of
 * the workload (a scheme or disk policy) at one simulation seed,
 * driven only through the library's public entry points and timed
 * from outside them.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** One simulation (or, for fault_sweep, one sweep plan). */
struct Unit
{
    std::string point;
    std::uint64_t seed = 1;
};

/** What one unit produced. */
struct UnitResult
{
    /** The output bytes the digest is taken of: formatResultsJson
     *  without its perf block, or the sweep's JSONL. */
    std::string output;

    /** Every simulation ran to its end (or horizon) without a failed
     *  task, and any in-run cross-check held. */
    bool completed = false;

    double setupSec = 0.0;  //!< parse + construct + addSpu/addJob
    double runSec = 0.0;    //!< Simulation::run() or exp::runPlan
    std::uint64_t sims = 0; //!< simulations (grid points) completed
    std::uint64_t events = 0;
    double simSec = 0.0;    //!< simulated seconds advanced

    /** Traced units only: per-layer counts, summed over a round (all
     *  deterministic), and per-unit host timings (summarised as
     *  medians). */
    std::map<std::string, double> counts;
    std::map<std::string, double> hostTimes;
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** The workload's points, in reference-file order. */
    virtual std::vector<std::string> points() const = 0;

    /** Simulation seeds 1..poolSize() have recorded digests. */
    virtual std::uint64_t poolSize() const = 0;

    /** Seeds one run draws from 2..poolSize(), besides seed 1 (the
     *  golden fixtures' seed), so runs with different seeds measure
     *  different inputs of the same mix. */
    virtual std::size_t seedsPerRun() const = 0;

    /**
     * Share of a run's rounds its run times and rates come from: the
     * fastest ones. 1 for single-threaded workloads, whose contention
     * the calibration adjustment removes. A pool workload's wall time
     * also holds its workers' wake-ups, which host scheduling stretches
     * in bursts the calibration kernel cannot see; its fastest rounds
     * show the program's own hand-offs. The trimmed percentiles do not
     * measure the tail, so the traced pass also reports them over
     * every round. Set-up always uses every round.
     */
    virtual double timedShare() const { return 1.0; }

    /** Run one unit. @p traced adds the per-layer detail. Library
     *  errors propagate as exceptions. */
    virtual UnitResult run(const Unit &unit, bool traced) = 0;

    /** The output of @p unit computed the reference way (recording
     *  the digests): the same run, except that fault_sweep runs its
     *  plan cold so the warm runs are checked against cold output. */
    virtual std::string referenceOutput(const Unit &unit)
    {
        return run(unit, false).output;
    }
};

/** nullptr for an unknown name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

/** Names accepted by makeWorkload(). */
std::vector<std::string> workloadNames();

/** 64-bit FNV-1a of @p bytes as 16 hex digits. */
std::string digest(const std::string &bytes);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
