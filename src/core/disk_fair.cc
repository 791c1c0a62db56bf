#include "src/core/disk_fair.hh"

#include <algorithm>
#include <cmath>
#include <set>

// piso-lint: allow(layering) -- the PIso disk policy deliberately
// reuses the OS C-SCAN ordering helper as its within-pass order; see
// docs/static-analysis.md (layering) for the policy/mechanism seam.
#include "src/os/cscan.hh"
#include "src/util/log.hh"

namespace piso {

DiskBandwidthTracker::DiskBandwidthTracker(Time halfLife)
    : halfLife_(halfLife)
{
    if (halfLife_ == 0)
        PISO_FATAL("bandwidth decay half-life must be non-zero");
}

double
DiskBandwidthTracker::decayed(const Entry &e, Time now) const
{
    if (now <= e.last || e.count == 0.0)
        return e.count;
    const double halves = static_cast<double>(now - e.last) /
                          static_cast<double>(halfLife_);
    return e.count * std::exp2(-halves);
}

void
DiskBandwidthTracker::setShare(SpuId spu, double share)
{
    if (share <= 0.0)
        PISO_FATAL("bandwidth share must be positive, got ", share);
    entries_.tryEmplace(spu);
    shares_.setShare(spu, share);
}

void
DiskBandwidthTracker::setParent(SpuId spu, SpuId parent)
{
    if (parent == kNoSpu) {
        parents_.erase(spu);
        return;
    }
    entries_.tryEmplace(spu);
    entries_.tryEmplace(parent);
    parents_[spu] = parent;
}

void
DiskBandwidthTracker::addSectors(SpuId spu, std::uint64_t sectors,
                                 Time now)
{
    for (SpuId n = spu; n != kNoSpu;) {
        Entry &e = entries_[n];
        e.count = decayed(e, now) + static_cast<double>(sectors);
        e.last = now;
        const SpuId *p = parents_.find(n);
        n = p ? *p : kNoSpu;
    }
}

double
DiskBandwidthTracker::usage(SpuId spu, Time now) const
{
    const Entry *e = entries_.find(spu);
    return e ? decayed(*e, now) : 0.0;
}

double
DiskBandwidthTracker::ratio(SpuId spu, Time now) const
{
    const Entry *e = entries_.find(spu);
    if (!e)
        return 0.0;
    // shares_.share() defaults to 1 for SPUs never given a share.
    return decayed(*e, now) / shares_.share(spu);
}

double
DiskBandwidthTracker::hierarchicalRatio(SpuId spu, Time now) const
{
    double worst = ratio(spu, now);
    for (const SpuId *p = parents_.find(spu); p && *p != kNoSpu;
         p = parents_.find(*p)) {
        worst = std::max(worst, ratio(*p, now));
    }
    return worst;
}

FairDiskScheduler::FairDiskScheduler(Time halfLife, Time sharedWait)
    : tracker_(halfLife), sharedWait_(sharedWait)
{
}

void
FairDiskScheduler::onComplete(const DiskRequest &req, Time now)
{
    // Shared writes are charged to the user SPUs whose pages they
    // carried (Section 3.3); everything else to the request's SPU.
    if (!req.charges.empty()) {
        // piso-lint: allow(hot-path-full-scan) -- bounded by the SPUs
        // charged for this one request, not the SPU population.
        for (const auto &[spu, sectors] : req.charges)
            tracker_.addSectors(spu, sectors, now);
    } else {
        tracker_.addSectors(req.spu, req.sectors, now);
    }
}

bool
FairDiskScheduler::sharedEligible(const std::deque<DiskRequest> &queue,
                                  Time now) const
{
    bool userQueued = false;
    Time oldestShared = kTimeNever;
    for (const DiskRequest &r : queue) {
        if (r.spu == kSharedSpu || r.spu == kKernelSpu)
            oldestShared = std::min(oldestShared, r.issueTime);
        else
            userQueued = true;
    }
    if (oldestShared == kTimeNever)
        return false;
    if (!userQueued)
        return true;
    return now - oldestShared > sharedWait_;
}

std::size_t
IsoDiskScheduler::pick(const std::deque<DiskRequest> &queue,
                       std::uint64_t /* headSector */, Time now)
{
    if (queue.empty())
        PISO_PANIC("Iso disk policy asked to pick from an empty queue");
    policyIters_ += queue.size();

    const bool shared_ok = sharedEligible(queue, now);

    // Lowest usage-to-share ratio among user SPUs with queued
    // requests; FIFO within the SPU.
    SpuId bestSpu = kNoSpu;
    double bestRatio = 0.0;
    for (const DiskRequest &r : queue) {
        if (r.spu == kSharedSpu || r.spu == kKernelSpu)
            continue;
        const double ratio = tracker_.hierarchicalRatio(r.spu, now);
        if (bestSpu == kNoSpu || ratio < bestRatio) {
            bestSpu = r.spu;
            bestRatio = ratio;
        }
    }
    if (bestSpu == kNoSpu || shared_ok) {
        // Only shared requests, or shared starvation guard fired:
        // oldest shared request first.
        std::size_t pick = queue.size();
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const DiskRequest &r = queue[i];
            if (r.spu != kSharedSpu && r.spu != kKernelSpu)
                continue;
            if (pick == queue.size() ||
                r.issueTime < queue[pick].issueTime)
                pick = i;
        }
        if (pick != queue.size())
            return pick;
    }

    for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i].spu == bestSpu)
            return i; // deque preserves FIFO order per SPU
    }
    PISO_PANIC("Iso disk policy lost its chosen SPU");
}

PisoDiskScheduler::PisoDiskScheduler(double bwThresholdSectors,
                                     Time halfLife, Time sharedWait)
    : FairDiskScheduler(halfLife, sharedWait),
      threshold_(bwThresholdSectors)
{
    if (threshold_ < 0.0)
        PISO_FATAL("BW difference threshold must be >= 0");
}

std::size_t
PisoDiskScheduler::pick(const std::deque<DiskRequest> &queue,
                        std::uint64_t headSector, Time now)
{
    if (queue.empty())
        PISO_PANIC("PIso disk policy asked to pick from an empty queue");
    policyIters_ += queue.size();

    // Ratios of the user SPUs with active requests (a member table,
    // cleared per pick, so a pick allocates nothing once warm).
    ratios_.clear();
    for (const DiskRequest &r : queue) {
        if (r.spu == kSharedSpu || r.spu == kKernelSpu)
            continue;
        if (!ratios_.contains(r.spu))
            ratios_[r.spu] = tracker_.hierarchicalRatio(r.spu, now);
    }

    if (ratios_.empty() || sharedEligible(queue, now)) {
        // Service shared/kernel requests by head position among
        // themselves.
        const std::size_t idx = CScanScheduler::pickAmong(
            queue, headSector, [](const DiskRequest &r) {
                return r.spu == kSharedSpu || r.spu == kKernelSpu;
            });
        if (idx != queue.size())
            return idx;
    }

    double avg = 0.0;
    // piso-lint: allow(hot-path-full-scan) -- 'ratios_' holds only the
    // SPUs with queued requests on this disk: already O(active).
    for (const auto &[spu, ratio] : ratios_)
        avg += ratio;
    avg /= static_cast<double>(ratios_.size());

    // Fairness criterion (Section 3.3): an SPU fails when its ratio
    // exceeds the average by more than the BW difference threshold.
    // The minimum-ratio SPU always passes, so a pick always exists.
    const double cutoff = avg + threshold_;
    std::size_t idx = CScanScheduler::pickAmong(
        queue, headSector, [&](const DiskRequest &r) {
            const double *ratio = ratios_.find(r.spu);
            return ratio && *ratio <= cutoff;
        });
    if (idx == queue.size()) {
        // Numerical corner (all user SPUs above cutoff): fall back to
        // plain C-SCAN over user requests.
        idx = CScanScheduler::pickAmong(
            queue, headSector, [&](const DiskRequest &r) {
                return ratios_.contains(r.spu);
            });
    }
    if (idx == queue.size()) {
        // Only shared requests remain.
        idx = CScanScheduler::pickAmong(queue, headSector,
                                        CScanScheduler::anyRequest);
    }
    return idx;
}

} // namespace piso
