#ifndef PISO_MACHINE_MEMORY_HH
#define PISO_MACHINE_MEMORY_HH

/**
 * @file
 * Physical memory as a pool of page frames.
 *
 * Identity of individual frames is irrelevant to the paper's policies —
 * only *counts* matter (how many frames each SPU holds against its
 * entitled/allowed levels) — so this is a counted pool. Per-SPU
 * accounting lives in the VM layer (src/os/vm) and the memory sharing
 * policy (src/core/mem_policy).
 */

#include <cstdint>

#include "src/sim/checkpoint.hh"

namespace piso {

/** A counted pool of equal-sized page frames. */
class PhysicalMemory
{
  public:
    /**
     * @param totalBytes Capacity of the machine's RAM.
     * @param pageBytes  Frame size (default 4 KB).
     */
    explicit PhysicalMemory(std::uint64_t totalBytes,
                            std::uint32_t pageBytes = 4096);

    /** Frame size in bytes. */
    std::uint32_t pageBytes() const { return pageBytes_; }

    /** Usable frame capacity. Frames owed to an in-progress shrink()
     *  are already excluded, so policies sizing against this value
     *  immediately target the degraded pool. */
    std::uint64_t totalPages() const { return totalPages_ - pendingRetire_; }

    /** Frames currently unallocated. */
    std::uint64_t freePages() const { return freePages_; }

    /** Frames currently allocated. During a shrink this may exceed
     *  totalPages() until pageout returns the owed frames. */
    std::uint64_t usedPages() const { return totalPages_ - freePages_; }

    /**
     * Take @p n frames from the free pool.
     * @return true on success; false (and no change) if fewer than
     *         @p n frames are free.
     */
    bool allocate(std::uint64_t n = 1);

    /** Return @p n frames to the free pool. Frames owed to a pending
     *  shrink() are retired instead of freed. */
    void release(std::uint64_t n = 1);

    /**
     * Retire @p n frames (fault injection: memory going away).
     * Free frames leave immediately; the remainder is recorded as a
     * pending retirement that release() absorbs, so totalPages()
     * shrinks as the allocated frames actually come back. Capacity
     * never drops below one frame.
     * @return frames retired immediately.
     */
    std::uint64_t shrink(std::uint64_t n);

    /** Add @p n frames (memory coming back). Cancels pending
     *  retirements first, then grows the free pool. */
    void grow(std::uint64_t n);

    /** Frames still owed to a shrink (retired as they are freed). */
    std::uint64_t pendingRetire() const { return pendingRetire_; }

    void
    ckpt(CkptIo &io)
    {
        io.u64(totalPages_);
        io.u64(freePages_);
        io.u64(pendingRetire_);
    }

  private:
    std::uint32_t pageBytes_;
    std::uint64_t totalPages_;
    std::uint64_t freePages_;
    std::uint64_t pendingRetire_ = 0;
};

} // namespace piso

#endif // PISO_MACHINE_MEMORY_HH
