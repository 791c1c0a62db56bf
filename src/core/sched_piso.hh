#ifndef PISO_CORE_SCHED_PISO_HH
#define PISO_CORE_SCHED_PISO_HH

/**
 * @file
 * Performance-isolation CPU scheduling (Section 3.1).
 *
 * Like QuotaScheduler, CPUs are space/time-partitioned to home SPUs
 * and always prefer home processes. The difference is sharing: an
 * idle CPU with no home work is *loaned* — it picks the highest-
 * priority process from any other SPU. When a home process becomes
 * runnable and no home CPU is free, the loan is revoked at the next
 * clock tick (<= 10 ms), or immediately when configured to model an
 * inter-processor interrupt.
 */

#include "src/core/sched_quota.hh"

namespace piso {

/** Home-SPU scheduling with idle-CPU loans and bounded revocation. */
class PisoScheduler : public QuotaScheduler
{
  public:
    using QuotaScheduler::QuotaScheduler;

    /**
     * Revoke loans immediately (IPI model) instead of waiting for the
     * next tick. The paper's default is tick-based (<= 10 ms).
     */
    void setIpiRevocation(bool on) { ipiRevoke_ = on; }

    /**
     * After a revocation, keep the CPU home-only for this long —
     * Section 3.1's suggested refinement "preventing frequent
     * reallocation of CPUs for sharing, if the algorithm detects that
     * the allocation is being revoked frequently". 0 (default)
     * re-loans immediately.
     */
    void setLoanHoldoff(Time holdoff) { loanHoldoff_ = holdoff; }

    /** Number of CPUs currently loaned out. */
    int loanedCount() const;

    /** Cumulative count of loan revocations. */
    std::uint64_t revocations() const { return revocations_; }

    /** SPU tree parent links: loans prefer the most closely related
     *  SPU (deepest common ancestor with the CPU's owner), so idle
     *  capacity circulates inside a group before leaving it. With no
     *  links (a flat tree) the pick order is exactly the priority
     *  order of popBestForeign. */
    void setSpuParents(const SpuTable<SpuId> &parents) override;

    /** Length of the common root-down path prefix of @p a and @p b in
     *  the tree @p parents: the depth of their deepest common ancestor
     *  (0 when none). Allocation-free. */
    static std::size_t kinship(const SpuTable<SpuId> &parents, SpuId a,
                               SpuId b);

  protected:
    Process *selectNext(Cpu &cpu) override;
    bool eligibleIdle(const Cpu &cpu, const Process *p) const override;
    void onReadyNoIdle(Process *p) override;
    void policyTick() override;
    bool confinedToOwnCpus() const override { return false; }

    /** A lending CPU can pick from any SPU's queue: the full pass. */
    void idlePass() override { CpuScheduler::idlePass(); }

    /** Claim back the loaned CPU @p cpu for its owner: revoke now
     *  under the IPI model, else mark it for the next tick. */
    void reclaim(Cpu &cpu);

    void ckptReady(CkptIo &io, const ProcessByPid &byPid,
                   std::size_t spuBound) override
    {
        QuotaScheduler::ckptReady(io, byPid, spuBound);
        io.u64(revocations_);
    }

    /** Best foreign ready process, preferring higher kinship with
     *  @p owner; equals popBestForeign when no parent links exist. */
    Process *popBestKin(SpuId owner);

  private:
    void revoke(Cpu &cpu);

    SpuTable<SpuId> parents_;
    bool ipiRevoke_ = false;
    Time loanHoldoff_ = 0;
    std::uint64_t revocations_ = 0;
};

} // namespace piso

#endif // PISO_CORE_SCHED_PISO_HH
