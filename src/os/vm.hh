#ifndef PISO_OS_VM_HH
#define PISO_OS_VM_HH

/**
 * @file
 * Per-SPU physical-memory accounting: the entitled / allowed / used
 * triple of Section 2.3.
 *
 * This layer is pure bookkeeping — which SPU holds how many frames
 * against which limits, and who should lose a frame when someone needs
 * one. The level accounting itself lives in a ResourceLedger
 * (src/core/ledger.hh); this class adds the frame pool, the victim
 * policies, and the pressure signal. The Kernel performs the actual
 * evictions and I/O; the MemorySharingPolicy (src/core) moves the
 * *allowed* levels around.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/ledger.hh"
#include "src/machine/memory.hh"
#include "src/sim/ids.hh"
#include "src/sim/random.hh"

namespace piso {

/** The three per-resource levels of the SPU abstraction, counted in
 *  page frames. */
using MemLevels = ResourceLevels;

/** Per-SPU frame accounting against entitled/allowed/used levels. */
class VirtualMemory
{
  public:
    explicit VirtualMemory(PhysicalMemory &phys);

    /** Make @p spu known with zero levels (idempotent). */
    void registerSpu(SpuId spu);

    /** @name Level management */
    /// @{
    void setEntitled(SpuId spu, std::uint64_t pages);
    void setAllowed(SpuId spu, std::uint64_t pages);
    const MemLevels &levels(SpuId spu) const;
    /// @}

    /** Frames kept free to hide revocation cost (Reserve Threshold,
     *  Section 3.2). Consulted by the sharing policy and the pageout
     *  daemon, not enforced on individual allocations. */
    void
    setReservePages(std::uint64_t pages)
    {
        reservePages_ = pages;
        ++version_;
    }
    std::uint64_t reservePages() const { return reservePages_; }

    /**
     * Mutation counter: bumped by every state change a sharing-policy
     * pass can observe (registrations, level moves, charges, pressure
     * notes, reserve changes). The MemorySharingPolicy skips a
     * periodic pass in O(1) when this and the SPU-registry version
     * are unchanged since its last pass. Never serialised: both sides
     * of a checkpoint agree on "unknown", which only costs one
     * (idempotent) recompute after restore.
     */
    std::uint64_t version() const { return version_; }

    std::uint64_t totalPages() const { return phys_.totalPages(); }
    std::uint64_t freePages() const { return phys_.freePages(); }
    std::uint32_t pageBytes() const { return phys_.pageBytes(); }

    /**
     * Try to take one free frame charged to @p spu. Fails (false) when
     * the SPU is at its allowed level or no frame is free; the caller
     * then reclaims via victimSpu()/transferCharge().
     */
    bool tryCharge(SpuId spu);

    /** Return one of @p spu's frames to the free pool. */
    void uncharge(SpuId spu);

    /** Move one frame's charge from @p from to @p to (reclaim: the
     *  frame is reused without passing through the free pool). */
    void transferCharge(SpuId from, SpuId to);

    /** True when used >= allowed. */
    bool atLimit(SpuId spu) const;

    /** Frames @p spu holds beyond its allowed level (0 if within). */
    std::uint64_t overAllowed(SpuId spu) const;

    /**
     * Choose the SPU that should lose a frame so @p requester can have
     * one. If the requester is at its own allowed level, isolation
     * demands it reclaims from itself. Otherwise (global exhaustion,
     * e.g. the SMP scheme) pick the most-over-allowed SPU, falling back
     * to the largest non-kernel user.
     * @return kNoSpu only if no SPU holds any reclaimable frame.
     */
    SpuId victimSpu(SpuId requester) const;

    /**
     * Global-replacement victim: a non-kernel SPU picked with
     * probability proportional to its used pages (approximates global
     * LRU, where every SPU loses pages in proportion to its
     * footprint — the SMP scheme's defining non-isolation).
     * @return kNoSpu when no non-kernel SPU holds pages.
     */
    SpuId weightedVictim(Rng &rng) const;

    /** @name Memory-pressure signal for the sharing policy */
    /// @{
    /** Record that @p spu had to reclaim from itself (hit its cap). */
    void notePressure(SpuId spu);

    /** Read and clear @p spu's pressure count. */
    std::uint64_t takePressure(SpuId spu);

    /** Read without clearing. */
    std::uint64_t pressure(SpuId spu) const;
    /// @}

    /** @name Active set for the sharing policy
     *
     * The SPUs a sharing-policy pass must visit: every SPU whose used
     * level went from 0 to 1, whose allowed level was set away from
     * its entitlement, or that had pressure noted, since the policy
     * last retired it. Callers that move an entitlement write the
     * allowed level after it, as the policy and the set-up do. So an
     * SPU outside the set holds no frame, has no pending pressure and
     * has allowed == entitled, unless the policy retired it while it
     * was not a leaf it manages. Marking is O(1) and allocates nothing
     * (registration reserves room for every SPU); the set is derived
     * state, never imaged: loading rebuilds it. */
    /// @{
    /** Marked SPUs, in marking order (compacted by retainActive). */
    const std::vector<SpuId> &activeSpus() const { return active_; }
    bool isActive(SpuId spu) const { return perSpu(spu).active; }

    /** Add @p spu to the active set (no-op when already there). */
    void markActive(SpuId spu) { mark(spu, perSpu(spu)); }

    /** Keep only the active SPUs for which @p keep(spu) holds; the
     *  rest leave the set. Order is preserved. */
    template <typename Keep>
    void
    retainActive(Keep &&keep)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < active_.size(); ++i) {
            const SpuId spu = active_[i];
            if (keep(spu))
                active_[kept++] = spu;
            else
                perSpu(spu).active = false;
        }
        active_.resize(kept);
    }
    /// @}

    /** All registered SPU ids, ascending, walked in place. */
    ResourceLedger::SpuIds spus() const { return ledger_.spus(); }

    /** @name Checkpoint */
    /// @{
    void
    ckpt(CkptIo &io, std::size_t spuBound)
    {
        ledger_.ckpt(io, spuBound);
        perSpu_.table(io, spuBound,
                      [&io](SpuEntry &e) { io.u64(e.pressure); });
        io.u64(reservePages_);
        if (io.loading()) {
            rebuildActive();
            // Restored state replaced everything a policy pass
            // observes; invalidate any version captured during setup
            // replay.
            ++version_;
        }
    }
    /// @}

  private:
    /** Per-SPU state beside the ledger's levels. */
    struct SpuEntry
    {
        std::uint64_t pressure = 0;  //!< imaged
        bool active = false;         //!< listed in active_; derived
    };

    /** Fatal-checked access to a registered SPU's entry. */
    SpuEntry &perSpu(SpuId spu);
    const SpuEntry &perSpu(SpuId spu) const;

    void
    mark(SpuId spu, SpuEntry &e)
    {
        if (e.active)
            return;
        e.active = true;
        active_.push_back(spu);
    }

    /** Mark afresh every SPU that holds frames, has allowed !=
     *  entitled or has pressure pending (after a load). */
    void rebuildActive();

    PhysicalMemory &phys_;
    ResourceLedger ledger_{"memory"};
    SpuTable<SpuEntry> perSpu_;
    std::vector<SpuId> active_;
    std::uint64_t reservePages_ = 0;
    // Monotonic change counter; loading bumps it rather than
    // restoring it.
    std::uint64_t version_ = 0;
};

} // namespace piso

#endif // PISO_OS_VM_HH
