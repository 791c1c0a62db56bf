#ifndef PISO_CORE_SPU_HH
#define PISO_CORE_SPU_HH

/**
 * @file
 * The Software Performance Unit (SPU) — the paper's central kernel
 * abstraction (Section 2.1).
 *
 * An SPU groups processes and associates them with a share of the
 * machine. The SpuManager maintains the registry, including the two
 * default SPUs of Section 2.2: `kernel` (kernel processes and memory;
 * unrestricted) and `shared` (resources referenced by multiple SPUs;
 * lowest disk priority).
 *
 * SPUs form a *tree*: a user SPU may be created under another user SPU
 * (a "group"), and its share is then normalised against its siblings
 * only — the effective machine share is the product of the
 * sibling-normalised shares along the path to the top level, the model
 * of hierarchical fair-share managers (Solaris SRM and kin). A flat
 * configuration is the degenerate depth-1 tree and behaves exactly as
 * the original flat registry did, bit for bit.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/share_tree.hh"
#include "src/core/spu_table.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/ids.hh"

namespace piso {

/** Life-cycle state of an SPU (Section 2.1: SPUs can be created,
 *  destroyed, suspended and awakened dynamically). A suspended group
 *  suspends its whole subtree for share purposes. */
enum class SpuState
{
    Active,
    Suspended,
};

/** Creation-time description of a user SPU. */
struct SpuSpec
{
    std::string name;

    /** Relative share of every resource (CPU, memory, disk BW);
     *  normalised over the SPU's *siblings* (for a top-level SPU,
     *  the other top-level SPUs). */
    double share = 1.0;

    /** Disk that holds this SPU's files and swap space. */
    DiskId homeDisk = 0;

    /** Enclosing group, or kNoSpu for a top-level SPU. */
    SpuId parent = kNoSpu;
};

/** One SPU's registry entry. */
struct Spu
{
    SpuId id = kNoSpu;
    std::string name;
    double share = 1.0;
    DiskId homeDisk = 0;
    SpuState state = SpuState::Active;

    /** Enclosing group (kNoSpu when top-level). */
    SpuId parent = kNoSpu;

    /** Child SPUs, ascending by id (ids are handed out
     *  monotonically, so creation order is id order). */
    std::vector<SpuId> children;
};

/** Registry of SPUs, their configured shares and their hierarchy. */
class SpuManager
{
  public:
    /** Creates the default `kernel` and `shared` SPUs. */
    SpuManager();

    /** Create a user SPU, optionally under spec.parent. */
    SpuId create(const SpuSpec &spec);

    /** Remove a user SPU (it must have no processes and no child
     *  SPUs left; processes are the caller's invariant, children are
     *  checked here). */
    void destroy(SpuId spu);

    /** Suspend / resume participation in share normalisation.
     *  Suspending a group zeroes the effective share of its whole
     *  subtree. */
    void suspend(SpuId spu);
    void resume(SpuId spu);

    const Spu &spu(SpuId id) const;
    bool exists(SpuId id) const;

    /** @name Hierarchy */
    /// @{
    /** Enclosing group of @p spu (kNoSpu when top-level). */
    SpuId parentOf(SpuId spu) const;

    /** Children of @p parent ascending by id; pass kNoSpu for the
     *  top-level user SPUs. */
    const std::vector<SpuId> &childrenOf(SpuId parent) const;

    /** True when @p spu has child SPUs (jobs cannot run on groups). */
    bool isGroup(SpuId spu) const;

    /** Path from the top level down to @p spu, inclusive. */
    std::vector<SpuId> pathOf(SpuId spu) const;

    /** True when any user SPU sits inside a group — i.e. the tree is
     *  deeper than the flat, depth-1 degenerate case. */
    bool hierarchical() const;

    /** The user-SPU share hierarchy as a value (suspended nodes carry
     *  share 0), for ResourceLedger::entitleByShare(tree, ...). */
    ShareTree shareTree() const;
    /// @}

    /** User SPUs whose whole path to the top level is active,
     *  ascending by id; includes groups. Cached: rebuilt only after a
     *  topology change (see version()). */
    const std::vector<SpuId> &userSpus() const;

    /** Leaf user SPUs (no children) whose whole path is active,
     *  ascending by id — the SPUs that hold processes and receive
     *  resources. Equals userSpus() for a flat configuration.
     *  Cached like userSpus(). */
    const std::vector<SpuId> &leafSpus() const;

    /** Topology version: bumped by create/destroy/suspend/resume (and
     *  checkpoint load). Keys the user/leaf caches and lets periodic
     *  policies skip recomputation when the tree is unchanged. */
    std::uint64_t version() const { return version_; }

    /** Count of active user SPUs (groups included). */
    std::size_t userCount() const { return userSpus().size(); }

    /** @p spu's effective share of the whole machine: the product of
     *  sibling-normalised shares along the path to the top level
     *  (0 when any node on the path is suspended). Depth-1 trees
     *  reproduce the flat share / Σ shares rule bit for bit. */
    double shareOf(SpuId spu) const;

    /** Normalised CPU shares of the active leaf SPUs, for
     *  CpuScheduler::partitionCpus(). */
    SpuTable<double> cpuShares() const;

    /**
     * Per-leaf entitlement by per-level floors: each node takes
     * floor(sibling-normalised share x parent amount) of its parent's
     * amount, top level from @p divisible. The remainder at every
     * level stays unassigned — the same rounding-down contract as
     * ResourceLedger::entitledFloor, which this reproduces exactly for
     * depth-1 trees. Suspended subtrees receive no entry.
     */
    SpuTable<std::uint64_t> entitleLeaves(std::uint64_t divisible) const;

    /** entitleLeaves() into @p out, which is cleared first; reuses
     *  @p out's storage, so a refill of the same population allocates
     *  nothing. */
    void entitleLeaves(std::uint64_t divisible,
                       SpuTable<std::uint64_t> &out) const;

    /** Checkpoint: the tree structure itself (names, shares,
     *  parent/child edges) is replayed by the deterministic setup
     *  phase; only the mutable run-state — per-SPU life-cycle state
     *  and the id allocator — is imaged. Loading validates the
     *  replayed tree covers exactly the SPUs present at save time. */
    void ckpt(CkptIo &io);

    /** One past the largest SPU id created: the bound on every SPU id
     *  a checkpoint image may name. */
    std::size_t idBound() const { return static_cast<std::size_t>(next_); }

  private:
    /** Σ shares over @p parent's children, ascending by id, counting
     *  suspended children as +0.0 — the float-sum order the flat
     *  share ledger used, preserved for bit-compatibility. Served
     *  from the caches refreshCaches() keeps. */
    double siblingTotal(SpuId parent) const;

    /** The sum siblingTotal() caches, over @p children in order. */
    double shareSum(const std::vector<SpuId> &children) const;

    bool pathActive(SpuId spu) const;

    void entitleUnder(SpuId parent, std::uint64_t amount,
                      SpuTable<std::uint64_t> &out) const;
    void buildSubtree(SpuId parent, std::size_t node,
                      ShareTree &tree) const;

    /** Rebuild the user/leaf and sibling-total caches if version_
     *  moved. */
    void refreshCaches() const;

    SpuTable<Spu> spus_;

    /** Top-level user SPUs, ascending by id (the synthetic root's
     *  children). */
    std::vector<SpuId> topLevel_;

    SpuId next_ = kFirstUserSpu;

    // Monotonic cache invalidation counter; loading bumps it
    // rather than restoring it.
    std::uint64_t version_ = 0;

    /** Cached userSpus()/leafSpus(), valid while
     *  cacheVersion_ == version_. */
    mutable std::uint64_t cacheVersion_ = ~std::uint64_t{0};
    mutable std::vector<SpuId> userCache_;
    mutable std::vector<SpuId> leafCache_;

    /** Cached siblingTotal(): of the top level, and of each group's
     *  children keyed by the group; valid like the caches above. */
    mutable double topTotalCache_ = 0.0;
    mutable SpuTable<double> groupTotalCache_;
};

} // namespace piso

#endif // PISO_CORE_SPU_HH
