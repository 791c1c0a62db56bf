#ifndef PISO_CORE_SCHED_QUOTA_HH
#define PISO_CORE_SCHED_QUOTA_HH

/**
 * @file
 * Fixed-quota CPU scheduling (the paper's "Quo" scheme).
 *
 * CPUs are space-partitioned to SPUs (with fractional shares
 * time-multiplexed, Section 3.1); a CPU only ever runs processes of
 * the SPU that owns it *right now*. Perfect isolation, no sharing: an
 * idle CPU stays idle even when other SPUs starve.
 *
 * Under a hierarchical SPU tree the quotas are the *effective* leaf
 * shares (the product of sibling-normalised shares down the tree, via
 * SpuManager::cpuShares); with no lending there is nothing further
 * for the hierarchy to do here — group-affine sharing is the PIso
 * scheduler's business.
 */

#include <vector>

// piso-lint: allow(layering) -- the policy/mechanism seam: the quota
// policy implements the OS scheduler's SchedClient interface one layer
// up; see docs/static-analysis.md (layering).
#include "src/os/scheduler.hh"

namespace piso {

/** Space/time-partitioned scheduler with no lending. */
class QuotaScheduler : public CpuScheduler
{
  public:
    using CpuScheduler::CpuScheduler;

    /** Ready processes of @p spu. */
    std::size_t readyCount(SpuId spu) const;

  protected:
    Process *selectNext(Cpu &cpu) override;
    void enqueueReady(Process *p) override;
    bool eligibleIdle(const Cpu &cpu, const Process *p) const override;
    void policyTick() override;
    bool anyReady() const override { return !nonEmpty_.empty(); }
    bool confinedToOwnCpus() const override { return true; }
    void idlePass() override;

    /** Pop the highest-priority ready process of @p spu (nullptr if
     *  none). */
    Process *popBest(SpuId spu);

    /** Best ready process across all SPUs except @p exclude. */
    Process *popBestForeign(SpuId exclude);

    /** Take the process at position @p at off @p spu's queue,
     *  keeping the order of the rest, and drop @p spu from nonEmpty_
     *  if that drained it. Every pick leaves the queues through here.
     *  @return the process taken. */
    Process *takeReady(SpuId spu, std::size_t at);

    void ckptReady(CkptIo &io, const ProcessByPid &byPid,
                   std::size_t spuBound) override;

    /**
     * Per-SPU ready queues in arrival order. A pick erases in place,
     * so the order of the rest is kept, and an SPU's entry (and the
     * vector's capacity) outlives its queue draining: a warm queue
     * allocates nothing. Imaged as pids, in queue order.
     */
    SpuTable<std::vector<Process *>> ready_;

    /**
     * SPUs whose ready queue is currently non-empty, ascending and
     * without duplicates. Cross-SPU scans (popBestForeign, PIso's
     * popBestKin) and Quo's idle pass walk this instead of the whole
     * table, making them O(SPUs with waiting work): on a 512-SPU
     * machine where a handful are runnable a dispatch stays a handful
     * of comparisons. The order is the one DenseTable iteration
     * yields, so pick order (and with it every golden) is that of a
     * full scan. A sorted vector: once warm, marking and draining move
     * ids in place and allocate nothing.
     */
    std::vector<SpuId> nonEmpty_;

  private:
    /** PISO_HARDENED probe after every queue mutation: nonEmpty_ is
     *  sorted, has no duplicates and names exactly the SPUs whose
     *  queue is non-empty. */
    bool readyIndexHolds() const;

    /** idlePass's merge buffer, kept to stay allocation-free; empty
     *  between calls. */
    std::vector<CpuId> idleScan_;
};

} // namespace piso

#endif // PISO_CORE_SCHED_QUOTA_HH
