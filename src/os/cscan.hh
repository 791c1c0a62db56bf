#ifndef PISO_OS_CSCAN_HH
#define PISO_OS_CSCAN_HH

/**
 * @file
 * The C-SCAN disk scheduler — IRIX 5.3's head-position-only policy,
 * called "Pos" in the paper's disk experiments (Section 3.3).
 *
 * Requests are serviced in ascending sector order as the head sweeps
 * from the first to the last sector; past the last queued request the
 * head returns to the beginning. The requesting process (and SPU) play
 * no part, which is exactly the lack of isolation the paper attacks:
 * a large contiguous stream parks the head and locks everyone else
 * out.
 */

#include "src/machine/disk.hh"

namespace piso {

/** Head-position-only (C-SCAN) scheduling. */
class CScanScheduler : public DiskScheduler
{
  public:
    std::size_t pick(const std::deque<DiskRequest> &queue,
                     std::uint64_t headSector, Time now) override;

    /**
     * Shared helper: index of the C-SCAN choice among @p queue
     * restricted to requests for which @p eligible(const DiskRequest &)
     * returns true (used by the PIso policy to apply C-SCAN over the
     * fair subset).
     * @return queue.size() if no eligible request exists.
     */
    template <typename Eligible>
    static std::size_t
    pickAmong(const std::deque<DiskRequest> &queue, std::uint64_t headSector,
              Eligible &&eligible)
    {
        // The next request in the upward sweep: smallest startSector
        // >= head. If none, wrap to the smallest startSector overall.
        std::size_t best = queue.size();
        std::size_t bestWrap = queue.size();
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const DiskRequest &r = queue[i];
            if (!eligible(r))
                continue;
            if (r.startSector >= headSector) {
                if (best == queue.size() ||
                    r.startSector < queue[best].startSector) {
                    best = i;
                }
            }
            if (bestWrap == queue.size() ||
                r.startSector < queue[bestWrap].startSector) {
                bestWrap = i;
            }
        }
        return best != queue.size() ? best : bestWrap;
    }

    /** pickAmong's predicate admitting every request. */
    static bool anyRequest(const DiskRequest &) { return true; }
};

} // namespace piso

#endif // PISO_OS_CSCAN_HH
