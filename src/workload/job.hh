#ifndef PISO_WORKLOAD_JOB_HH
#define PISO_WORKLOAD_JOB_HH

/**
 * @file
 * Job: a named group of processes whose collective response time is
 * what the paper's figures report.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/os/behavior.hh"
#include "src/os/filesystem.hh"
#include "src/sim/ids.hh"
#include "src/sim/random.hh"
#include "src/util/time.hh"

namespace piso {

class Kernel;

/** Environment handed to a JobSpec build function. */
struct WorkloadEnv
{
    FileSystem &fs;     //!< for laying out the job's files
    Rng rng;            //!< private stream for layout/jitter choices
    DiskId disk = 0;    //!< the owning SPU's home disk
    std::uint32_t pageBytes = 4096;
};

/** One process to create for a job. */
struct ProcessSpec
{
    std::string name;
    std::unique_ptr<Behavior> behavior;

    /** Override for Process::touchInterval (0 = keep the default).
     *  Larger values model better memory locality: fewer refaults
     *  per second of compute under a given residency deficit. */
    Time touchInterval = 0;

    /** Override for Process::dirtyFraction (< 0 = keep default). */
    double dirtyFraction = -1.0;
};

/**
 * A deferred job description: the build function runs at simulation
 * setup (it may create files, barriers, and locks) and returns the
 * job's processes.
 */
struct JobSpec
{
    std::string name;
    Time startAt = 0;
    std::function<std::vector<ProcessSpec>(Kernel &, WorkloadEnv &)> build;
    /** How build was made, for the config digest: the FNV-1a of a
     *  workload file's job kind and options (see populateWorkloadSpec);
     *  0 for a job built through the API. */
    std::uint64_t recipe = 0;
};

/** Run-time tracking of one job. */
class Job
{
  public:
    Job(JobId id, std::string name, SpuId spu, Time startAt)
        : id_(id), name_(std::move(name)), spu_(spu), startAt_(startAt)
    {
    }

    JobId id() const { return id_; }
    const std::string &name() const { return name_; }
    SpuId spu() const { return spu_; }
    Time startAt() const { return startAt_; }

    /** Register one more constituent process. */
    void addProcess() { ++remaining_; }

    /** One constituent exited at @p now. @return true when this
     *  completes the job. */
    bool processExited(Time now);

    /** A constituent died on a permanently failed I/O. */
    void markFailed() { failed_ = true; }

    bool completed() const { return remaining_ == 0 && started_; }

    /** True when any constituent was killed by an I/O failure; the
     *  job still "completes" (all processes exit) but its result is
     *  reported failed. */
    bool failed() const { return failed_; }

    Time endTime() const { return endTime_; }

    /** Wall-clock from job start to last process exit. */
    Time response() const
    {
        return completed() ? endTime_ - startAt_ : 0;
    }

    /** @name Checkpoint */
    /// @{
    void
    ckpt(CkptIo &io)
    {
        io.i64(remaining_);
        io.boolean(started_);
        io.boolean(failed_);
        io.time(endTime_);
    }
    /// @}

  private:
    JobId id_;
    std::string name_;
    SpuId spu_;
    Time startAt_;
    int remaining_ = 0;
    bool started_ = false;
    bool failed_ = false;
    Time endTime_ = 0;
};

} // namespace piso

#endif // PISO_WORKLOAD_JOB_HH
