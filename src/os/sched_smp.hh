#ifndef PISO_OS_SCHED_SMP_HH
#define PISO_OS_SCHED_SMP_HH

/**
 * @file
 * The baseline "SMP" scheduling policy (Table 2): one global run queue,
 * every CPU picks the highest-priority runnable process, no notion of
 * SPUs. This models unmodified IRIX 5.3 and provides unconstrained
 * sharing with no isolation.
 */

#include <vector>

#include "src/os/scheduler.hh"

namespace piso {

/** Global-queue, priority-based scheduler (the paper's SMP scheme). */
class SmpScheduler : public CpuScheduler
{
  public:
    using CpuScheduler::CpuScheduler;

    /** Number of processes waiting in the global ready queue. */
    std::size_t readyCount() const { return ready_.size(); }

  protected:
    Process *selectNext(Cpu &cpu) override;
    void enqueueReady(Process *p) override;
    bool eligibleIdle(const Cpu &cpu, const Process *p) const override;
    bool anyReady() const override { return !ready_.empty(); }

    void ckptReady(CkptIo &io, const ProcessByPid &byPid,
                   std::size_t) override
    {
        ckptProcesses(io, ready_, byPid);
    }

  private:
    /** The global queue in arrival order; a pick erases in place, so
     *  the order of the rest is kept, and the vector keeps its
     *  capacity: a warm queue allocates nothing. */
    std::vector<Process *> ready_;
};

} // namespace piso

#endif // PISO_OS_SCHED_SMP_HH
