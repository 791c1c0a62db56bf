#ifndef PISO_OS_LOCKS_HH
#define PISO_OS_LOCKS_HH

/**
 * @file
 * Kernel lock model (Section 3.4 "Shared Kernel Resources").
 *
 * The paper found two semaphores whose contention could break
 * isolation: the inode lock (fixed by making it multiple-readers/
 * one-writer) and the page-insert lock (granularity reduced). This
 * model lets workloads contend on named kernel locks in either mutex
 * or readers-writer mode so the ablation bench can reproduce the
 * 20-30% base-system response-time effect.
 */

#include <cstdint>
#include <deque>
#include <vector>

#include "src/os/process.hh"
#include "src/sim/ids.hh"
#include "src/sim/stats.hh"

namespace piso {

/** Contention statistics for one lock. */
struct LockStats
{
    Counter acquisitions;
    Counter contended;  //!< acquisitions that had to wait

    void
    ckpt(CkptIo &io)
    {
        acquisitions.ckpt(io);
        contended.ckpt(io);
    }
};

/** Table of kernel locks usable from LockActions. */
class LockTable
{
  public:
    /**
     * Create a lock.
     * @param readersWriter true: shared acquisitions may overlap
     *                      (multiple-readers/one-writer semaphore);
     *                      false: plain mutual exclusion.
     * @return the lock id.
     */
    int create(bool readersWriter);

    /**
     * Attempt to acquire lock @p id for @p p.
     * @param exclusive writer-side acquisition (always effectively true
     *                  for mutex-mode locks).
     * @return true if granted immediately; false if @p p was queued
     *         (the caller must block it).
     */
    bool acquire(int id, Process *p, bool exclusive);

    /**
     * Release @p p's hold on lock @p id.
     * @return processes granted the lock by this release, in FIFO
     *         order (readers are granted in batches); the caller must
     *         wake them.
     */
    std::vector<Process *> release(int id, Process *p);

    /** True if @p p currently holds lock @p id. */
    bool holds(int id, const Process *p) const;

    /** Current holders of lock @p id (readers, or the one writer). */
    std::vector<Process *> holdersOf(int id) const;

    const LockStats &stats(int id) const;

    std::size_t count() const { return locks_.size(); }

    /** Checkpoint: holders and waiters are imaged as pids; loading
     *  resolves them back to processes through @p byPid. */
    void ckpt(CkptIo &io, const ProcessByPid &byPid);

  private:
    struct Waiter
    {
        Process *proc;
        bool exclusive;
    };

    struct Lock
    {
        bool readersWriter = false;
        std::vector<Process *> holders;  //!< readers, or the one
                                         //!< exclusive holder
        bool heldExclusive = false;
        std::deque<Waiter> queue;
        LockStats stats;
    };

    Lock &lock(int id);
    const Lock &lock(int id) const;

    /** Grant to as many queued waiters as the mode allows. */
    void grantWaiters(Lock &l, std::vector<Process *> &granted);

    std::vector<Lock> locks_;
};

} // namespace piso

#endif // PISO_OS_LOCKS_HH
