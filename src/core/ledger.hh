#ifndef PISO_CORE_LEDGER_HH
#define PISO_CORE_LEDGER_HH

/**
 * @file
 * Per-SPU resource accounting — the entitled / allowed / used triple
 * of Section 2.3 generalised to any countable resource.
 *
 * Every resource policy in the system needs the same three pieces of
 * bookkeeping: a relative *share* per SPU (normalised over the
 * registered SPUs), integer *levels* charged against a capacity, and
 * the entitlement formula `share x divisible`. Before this class the
 * bookkeeping was duplicated in the SPU registry (share
 * normalisation), the VM layer (memory levels), and the
 * bandwidth trackers (per-SPU shares); they now all account through
 * one ResourceLedger each.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/share_tree.hh"
#include "src/core/spu_table.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/ids.hh"

namespace piso {

/** The three per-resource levels of the SPU abstraction (§2.3). */
struct ResourceLevels
{
    std::uint64_t entitled = 0;  //!< initial share from the contract
    std::uint64_t allowed = 0;   //!< current cap (moves with sharing)
    std::uint64_t used = 0;      //!< units currently held
};

/**
 * Shares and entitled/allowed/used levels of one resource, keyed by
 * SPU. Pure bookkeeping: the ledger never decides policy, it only
 * keeps the counts honest (a charge beyond `allowed` is refused, a
 * release below zero is a panic).
 */
class ResourceLedger
{
  public:
    /** @param resource Name used in panic messages ("memory", ...). */
    explicit ResourceLedger(std::string resource = "resource");

    /** @name Capacity */
    /// @{
    void setCapacity(std::uint64_t units) { capacity_ = units; }
    std::uint64_t capacity() const { return capacity_; }
    /// @}

    /** @name SPU registry */
    /// @{
    /** Make @p spu known with zero levels and share 1 (idempotent). */
    void registerSpu(SpuId spu);

    /** Drop @p spu from the ledger entirely. */
    void forget(SpuId spu);

    bool knows(SpuId spu) const;

    /** All registered SPU ids, ascending. */
    std::vector<SpuId> spus() const;
    /// @}

    /** @name Shares */
    /// @{
    /** Relative share of @p spu (>= 0; registers the SPU if new). */
    void setShare(SpuId spu, double share);

    /** Raw share of @p spu (1 if unregistered — the neutral weight). */
    double share(SpuId spu) const;

    /** Sum of raw shares over registered SPUs (ascending id order, so
     *  the floating-point sum is reproducible). */
    double totalShare() const;

    /** share / totalShare, or 0 when the total is zero. */
    double normalizedShare(SpuId spu) const;
    /// @}

    /** @name Levels */
    /// @{
    void setEntitled(SpuId spu, std::uint64_t units);
    void setAllowed(SpuId spu, std::uint64_t units);
    const ResourceLevels &levels(SpuId spu) const;

    /** True when used >= allowed. */
    bool atLimit(SpuId spu) const;

    /** Units held beyond the allowed level (0 if within). */
    std::uint64_t overAllowed(SpuId spu) const;

    /** Charge one unit iff used < allowed; false otherwise. */
    bool tryUse(SpuId spu);

    /** Unconditional charge (caller already holds the units). */
    void use(SpuId spu, std::uint64_t units = 1);

    /** Return units; panics below zero. */
    void release(SpuId spu, std::uint64_t units = 1);

    /** Move units from one SPU's account to another's. */
    void transfer(SpuId from, SpuId to, std::uint64_t units = 1);

    /** Sum of used over registered SPUs. */
    std::uint64_t usedTotal() const;

    /** Sum of entitled over registered SPUs. */
    std::uint64_t entitledTotal() const;
    /// @}

    /** @name Entitlement arithmetic */
    /// @{
    /**
     * floor(share x divisible) — the entitlement formula shared by the
     * Quota memory split and the PIso sharing policy (each SPU rounds
     * down; the remainder stays unassigned).
     */
    static std::uint64_t entitledFloor(double share,
                                       std::uint64_t divisible);

    /**
     * Split @p divisible among @p shares so the parts sum *exactly*
     * to it: floor allocation first, then the remainder distributed
     * one unit at a time by largest fractional part (ties to the
     * lower index). Zero shares receive nothing; an all-zero (or
     * empty) share vector returns all zeros — never a division by
     * zero, even when every SPU at a level is suspended.
     *
     * This is the one largest-remainder implementation in the system;
     * entitleByShare (flat and tree) and the per-level hierarchy
     * policies all stand on it.
     */
    static std::vector<std::uint64_t>
    apportion(const std::vector<double> &shares,
              std::uint64_t divisible);

    /**
     * Recompute every entitlement from the registered shares so the
     * entitlements sum *exactly* to @p divisible: floor allocation
     * first, then the remainder distributed one unit at a time by
     * largest fractional part (ties to the lower SPU id). SPUs with
     * zero share receive nothing.
     */
    void entitleByShare(std::uint64_t divisible);

    /**
     * Hierarchical entitlement: walk @p tree from the root, splitting
     * each node's amount exactly among its children by their
     * sibling-normalised shares (the same largest-remainder rule as
     * the flat overload, ties to the earlier sibling). Every SPU node
     * — internal and leaf — is registered and receives its subtree's
     * entitlement, so the exact-sum guarantee holds at *every* level:
     * a node's entitlement equals the sum of its children's whenever
     * any child has positive share. A depth-1 tree reproduces the
     * flat overload bit for bit.
     */
    void entitleByShare(const ShareTree &tree, std::uint64_t divisible);
    /// @}

    /** @name Checkpoint */
    /// @{
    void
    ckpt(CkptIo &io, std::size_t spuBound)
    {
        io.u64(capacity_);
        spus_.table(io, spuBound, [&io](Entry &e) {
            io.u64(e.levels.entitled);
            io.u64(e.levels.allowed);
            io.u64(e.levels.used);
            io.f64(e.share);
        });
    }
    /// @}

  private:
    struct Entry
    {
        ResourceLevels levels;
        double share = 1.0;
    };

    const Entry &entry(SpuId spu) const;
    Entry &entry(SpuId spu);

    std::string resource_;
    SpuTable<Entry> spus_;
    std::uint64_t capacity_ = 0;
};

} // namespace piso

#endif // PISO_CORE_LEDGER_HH
