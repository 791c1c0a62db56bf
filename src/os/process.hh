#ifndef PISO_OS_PROCESS_HH
#define PISO_OS_PROCESS_HH

/**
 * @file
 * The simulated process: scheduling state, memory footprint, accounting.
 *
 * A Process is pure state; the Kernel and CpuScheduler drive it. Its
 * Behavior supplies what it does next.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/os/action.hh"
#include "src/os/behavior.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/ids.hh"
#include "src/util/time.hh"

namespace piso {

/** Life-cycle states. */
enum class ProcState : std::uint8_t
{
    Embryo,   //!< created, not yet started
    Ready,    //!< runnable, waiting for a CPU
    Running,  //!< on a CPU
    Blocked,  //!< waiting for I/O, memory, a barrier, a lock, or sleep
    Exited,   //!< done
};

/** Human-readable state name (for logs and tests). */
const char *procStateName(ProcState s);

/**
 * One schedulable process.
 *
 * Memory is modelled by counts: @ref workingSet is how many distinct
 * pages the process touches; @ref resident how many frames it holds;
 * @ref everTouched the high-water mark distinguishing first-touch
 * (zero-fill) faults from refaults that need a disk read.
 */
class Process
{
  public:
    Process(Pid pid, SpuId spu, JobId job, std::string name,
            std::unique_ptr<Behavior> behavior, Rng rng);

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    Pid pid() const { return pid_; }
    SpuId spu() const { return spu_; }
    JobId job() const { return job_; }
    const std::string &name() const { return name_; }

    ProcState state() const { return state_; }
    void setState(ProcState s) { state_ = s; }

    Behavior &behavior() { return *behavior_; }
    Rng &rng() { return rng_; }

    /** @name Scheduling state (owned by the CpuScheduler) */
    /// @{
    /** Static priority bias added to recentCpu. */
    double nice = 0.0;
    /** CPU currently running this process (kNoCpu when not running). */
    CpuId runningOn = kNoCpu;
    /** CPU this process last executed on (cache affinity). */
    CpuId lastRanOn = kNoCpu;
    /** Time used in the current 30 ms slice. */
    Time sliceUsed = 0;
    /** When the process entered the ready queue (FIFO tie-break). */
    Time readySince = 0;
    /// @}

    /** @name Execution state (owned by the Kernel) */
    /// @{
    /** Remaining compute in the current ComputeAction. */
    Time computeRemaining = 0;
    /** Wall-clock start of the segment currently running on a CPU. */
    Time segmentStart = 0;
    /** Pending segment-end event while Running. */
    // Not imaged: Kernel::relinkEvent re-links it on restore.
    EventId segmentEvent = kNoEvent;
    /** Pending process-start event while Embryo. */
    // Not imaged: Kernel::relinkEvent re-links it on restore.
    EventId startEvent = kNoEvent;
    /** Pending wake event while Blocked in a SleepAction. */
    // Not imaged: Kernel::relinkEvent re-links it on restore.
    EventId wakeEvent = kNoEvent;
    /** True when the current segment will end in a page fault. */
    bool segmentFaults = false;
    /** Outstanding I/O operations this process is blocked on. */
    int pendingIo = 0;
    /** Lock to release when the current hold-compute finishes. */
    int lockHeld = -1;
    /** Action to retry on next advance (set when an action had to
     *  block before it could execute, e.g. write throttling). */
    std::optional<Action> pendingAction;
    /** Busy-waiting at a spin barrier (burning CPU until release). */
    bool spinning = false;
    /** An I/O this process depends on failed permanently (retries
     *  exhausted or disk dead); the kernel terminates the process at
     *  its next dispatch. */
    bool ioFailed = false;
    /// @}

    /** @name Memory model */
    /// @{
    std::uint64_t workingSet = 0;   //!< pages the process wants resident
    std::uint64_t resident = 0;     //!< frames currently held
    std::uint64_t everTouched = 0;  //!< first-touch high-water mark
    /** Probability an evicted page is dirty (needs writeback). */
    double dirtyFraction = 0.5;
    /** Mean compute time between page touches (refault-rate scale). */
    Time touchInterval = 3 * kMs;
    /** Mean compute time between first-touch (zero-fill) faults while
     *  the working set is still growing. */
    Time growInterval = 200 * kUs;
    /// @}

    /** @name Accounting */
    /// @{
    Time startTime = 0;       //!< when the process became runnable
    Time endTime = 0;         //!< when it exited
    Time cpuTime = 0;         //!< total CPU consumed
    Time blockedTime = 0;     //!< total time spent Blocked
    Time lastBlockStart = 0;
    std::uint64_t zeroFillFaults = 0;
    std::uint64_t refaults = 0;
    std::uint64_t diskReads = 0;
    std::uint64_t diskWrites = 0;
    /// @}

    /** @name Decayed recent CPU usage (lower means higher priority)
     *
     * The scheduler halves every process's usage once per decay
     * period. Rather than sweeping all processes, it bumps a shared
     * epoch counter and each process folds the missed halvings in on
     * first read (foldDecay). The multiply sequence is identical to a
     * sweep's, so the values are bit-exact with one; a process bound
     * to no scheduler never folds.
     */
    /// @{
    /** Attach this process to the scheduler's decay epoch. The
     *  process starts current: only future epoch bumps apply. */
    void
    bindDecayEpoch(const std::uint32_t *epoch)
    {
        decayEpochSrc_ = epoch;
        decayEpoch_ = epoch != nullptr ? *epoch : 0;
    }

    /** Apply any decay halvings this process has not seen yet. */
    void
    foldDecay() const
    {
        if (decayEpochSrc_ == nullptr ||
            decayEpoch_ == *decayEpochSrc_)
            return;
        if (recentCpu_ == 0.0) {
            decayEpoch_ = *decayEpochSrc_;
            return;
        }
        while (decayEpoch_ != *decayEpochSrc_) {
            recentCpu_ *= 0.5;
            ++decayEpoch_;
        }
    }

    /** Current (fully decayed) recent-usage value. */
    double
    recentCpu() const
    {
        foldDecay();
        return recentCpu_;
    }

    /** Overwrite the usage value (tests, checkpoint load). */
    void
    setRecentCpu(double v)
    {
        recentCpu_ = v;
        if (decayEpochSrc_ != nullptr)
            decayEpoch_ = *decayEpochSrc_;
    }

    /** Add one tick's worth of usage. */
    void
    chargeCpu(double seconds)
    {
        foldDecay();
        recentCpu_ += seconds;
    }

    /// @}

    /** Effective scheduling priority; smaller is better. */
    double priority() const { return nice + recentCpu(); }

    /** Image every mutable field except the pending EventIds
     *  (segmentEvent/startEvent/wakeEvent), which are re-established
     *  when the restore path re-schedules the pending events. */
    void ckpt(CkptIo &io);

  private:
    Pid pid_;
    SpuId spu_;
    JobId job_;
    std::string name_;
    std::unique_ptr<Behavior> behavior_;
    Rng rng_;
    ProcState state_ = ProcState::Embryo;

    // Lazily decayed usage: mutable so const readers (priority()
    // comparisons) can fold pending halvings in. Imaged through
    // recentCpu()/setRecentCpu(), which fold the pending decay in.
    mutable double recentCpu_ = 0.0;
    // Lazy-decay epoch tag; setRecentCpu() resyncs it on load.
    mutable std::uint32_t decayEpoch_ = 0;
    const std::uint32_t *decayEpochSrc_ = nullptr;
};

/** Resolves a pid read from a checkpoint image to the replayed
 *  process; throws ConfigError for a pid the replay never created. */
using ProcessByPid = std::function<Process *(Pid)>;

/** Image the process @p p (never null) as its pid; loading resolves
 *  the pid through @p byPid. */
void ckptProcess(CkptIo &io, Process *&p, const ProcessByPid &byPid);

/** Image a sequence of processes as pids (see ckptProcess). */
template <typename C>
void
ckptProcesses(CkptIo &io, C &procs, const ProcessByPid &byPid)
{
    io.seq(procs, [&io, &byPid](Process *&p) { ckptProcess(io, p, byPid); });
}

} // namespace piso

#endif // PISO_OS_PROCESS_HH
