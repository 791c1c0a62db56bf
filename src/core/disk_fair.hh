#ifndef PISO_CORE_DISK_FAIR_HH
#define PISO_CORE_DISK_FAIR_HH

/**
 * @file
 * Disk-bandwidth isolation (Section 3.3).
 *
 * Bandwidth is approximated by a per-SPU count of sectors transferred
 * that decays by half every 500 ms. The PIso policy schedules by head
 * position (C-SCAN) *among the SPUs passing a fairness criterion*: an
 * SPU fails when its usage-to-share ratio exceeds the average of all
 * active SPUs by the BW difference threshold. Threshold 0 degenerates
 * to round-robin; a huge threshold degenerates to pure C-SCAN. The
 * blind "Iso" policy applies only the fairness ordering and ignores
 * the head. Shared-SPU requests (batched delayed writes) get the
 * lowest priority; their sectors are charged to the owning user SPUs
 * on completion.
 */

#include <cstdint>

#include "src/core/ledger.hh"
#include "src/core/spu_table.hh"
// piso-lint: allow(layering) -- the policy/mechanism seam: fair disk
// policies plug into the DiskDevice mechanism one layer up; inverting
// the edge would move the paper's Section 3.3 policies out of core.
#include "src/machine/disk.hh"
#include "src/util/time.hh"

namespace piso {

/** Decayed per-SPU sector counts approximating bandwidth use. */
class DiskBandwidthTracker
{
  public:
    /** @param halfLife Decay half-life (paper: 500 ms). */
    explicit DiskBandwidthTracker(Time halfLife = 500 * kMs);

    /** Relative bandwidth share of @p spu (default 1). */
    void setShare(SpuId spu, double share);

    /** Record @p spu's enclosing group (kNoSpu detaches). Usage then
     *  also accrues to the group, whose own ratio bounds its whole
     *  subtree via hierarchicalRatio(). */
    void setParent(SpuId spu, SpuId parent);

    /** Charge @p sectors transferred at @p now to @p spu and every
     *  group above it. */
    void addSectors(SpuId spu, std::uint64_t sectors, Time now);

    /** Decayed sector count of @p spu at @p now. */
    double usage(SpuId spu, Time now) const;

    /** usage / share — the fairness metric. */
    double ratio(SpuId spu, Time now) const;

    /** Worst ratio along @p spu's path to the top level: a leaf is as
     *  unfair as its most over-consuming group, so groups compete at
     *  the group boundary. Without parent links this is ratio(). */
    double hierarchicalRatio(SpuId spu, Time now) const;

    Time halfLife() const { return halfLife_; }

    /** @name Checkpoint — only the decayed counts; shares and parent
     *  links are replayed by the deterministic setup phase. */
    /// @{
    void
    ckpt(CkptIo &io, std::size_t spuBound)
    {
        entries_.table(io, spuBound, [&io](Entry &e) {
            io.f64(e.count);
            io.time(e.last);
        });
    }
    /// @}

  private:
    /** Decay state of one SPU's count; shares live in the ledger. */
    struct Entry
    {
        double count = 0.0;
        Time last = 0;
    };

    double decayed(const Entry &e, Time now) const;

    Time halfLife_;
    SpuTable<Entry> entries_;
    SpuTable<SpuId> parents_;
    ResourceLedger shares_{"bandwidth"};
};

/**
 * Common base for the fair disk policies: owns the tracker, charges
 * completions (honouring per-SPU charge breakdowns of shared writes),
 * and evaluates the fairness criterion.
 */
class FairDiskScheduler : public DiskScheduler
{
  public:
    /**
     * @param halfLife   Decay half-life of the bandwidth counts.
     * @param sharedWait Max time a shared-SPU request may be bypassed
     *                   by user requests before it is serviced anyway
     *                   (starvation guard for delayed writes).
     */
    explicit FairDiskScheduler(Time halfLife = 500 * kMs,
                               Time sharedWait = 300 * kMs);

    void onComplete(const DiskRequest &req, Time now) override;

    DiskBandwidthTracker &tracker() { return tracker_; }
    const DiskBandwidthTracker &tracker() const { return tracker_; }

    /** Queue entries examined by pick() calls — the policy_iters_disk
     *  perf counter. Out of band: never serialised, never in JSONL. */
    std::uint64_t policyIters() const { return policyIters_; }

  protected:
    /** True when only shared-SPU requests are queued, or a shared
     *  request has waited past the starvation guard. */
    bool sharedEligible(const std::deque<DiskRequest> &queue,
                        Time now) const;

    DiskBandwidthTracker tracker_;
    Time sharedWait_;
    std::uint64_t policyIters_ = 0;
};

/**
 * The blind "Iso" policy: service the SPU with the lowest
 * usage-to-share ratio, FIFO within the SPU, head position ignored.
 */
class IsoDiskScheduler : public FairDiskScheduler
{
  public:
    using FairDiskScheduler::FairDiskScheduler;

    std::size_t pick(const std::deque<DiskRequest> &queue,
                     std::uint64_t headSector, Time now) override;
};

/**
 * The "PIso" policy: C-SCAN over the requests of SPUs that pass the
 * fairness criterion (ratio <= average + threshold).
 */
class PisoDiskScheduler : public FairDiskScheduler
{
  public:
    /**
     * @param bwThresholdSectors The BW difference threshold, in
     *        decayed sectors per unit share. 0 -> round-robin-like;
     *        very large -> pure head-position scheduling.
     */
    explicit PisoDiskScheduler(double bwThresholdSectors = 256.0,
                               Time halfLife = 500 * kMs,
                               Time sharedWait = 300 * kMs);

    std::size_t pick(const std::deque<DiskRequest> &queue,
                     std::uint64_t headSector, Time now) override;

    double threshold() const { return threshold_; }

  private:
    double threshold_;
    /** pick()'s per-SPU ratios; scratch, reused across picks. */
    SpuTable<double> ratios_;
};

} // namespace piso

#endif // PISO_CORE_DISK_FAIR_HH
