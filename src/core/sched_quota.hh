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

#include <list>
#include <set>

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

    /** Drop @p spu from the active set if its queue drained. */
    void
    noteQueueDrained(SpuId spu)
    {
        const auto *q = ready_.find(spu);
        if (q == nullptr || q->empty())
            nonEmpty_.erase(spu);
    }

    void ckptReady(CkptIo &io, const ProcessByPid &byPid,
                   std::size_t spuBound) override
    {
        ready_.table(io, spuBound,
                     [&io, &byPid](std::list<Process *> &q) {
                         ckptProcesses(io, q, byPid);
                     });
        if (!io.loading())
            return;
        nonEmpty_.clear();
        // piso-lint: allow(hot-path-full-scan) -- restore-time rebuild
        // of the active set, not an event callback.
        for (auto [spu, queue] : ready_) {
            if (!queue.empty())
                nonEmpty_.insert(spu);
        }
    }

    SpuTable<std::list<Process *>> ready_;

    /**
     * SPUs whose ready queue is currently non-empty. Cross-SPU scans
     * (popBestForeign, PIso's popBestKin) walk this set instead of the
     * whole table, making them O(SPUs with waiting work): on a
     * 512-SPU machine where a handful are runnable a dispatch stays a
     * handful of comparisons. std::set iterates in ascending SpuId
     * order — the same order DenseTable iteration yields — so pick
     * order (and with it every golden) is unchanged.
     */
    std::set<SpuId> nonEmpty_;

  private:
    /** idlePass's merge buffer, kept to stay allocation-free; empty
     *  between calls. */
    std::vector<CpuId> idleScan_;
};

} // namespace piso

#endif // PISO_CORE_SCHED_QUOTA_HH
