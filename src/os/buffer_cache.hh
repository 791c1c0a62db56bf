#ifndef PISO_OS_BUFFER_CACHE_HH
#define PISO_OS_BUFFER_CACHE_HH

/**
 * @file
 * File buffer cache bookkeeping.
 *
 * Tracks which file blocks are resident, their dirty/flushing state,
 * the owning SPU of each page (pages touched by a second SPU get
 * reclassified to the `shared` SPU by the Kernel, per Section 2.2),
 * and LRU order for stealing. The cache holds *no* frames itself — the
 * Kernel charges/uncharges frames through VirtualMemory and tells the
 * cache what happened; this keeps all memory policy in one place.
 *
 * Storage is an open-addressed hash index (linear probing with
 * backward-shift deletion) over a pointer-stable block slab, with the
 * LRU order kept as an intrusive doubly-linked list of slab indices —
 * lookup and eviction cost no red-black-tree rebalances and no
 * per-node allocations.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/core/spu_table.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/ids.hh"

namespace piso {

/** Identifies one file block. */
struct BlockKey
{
    FileId file = kNoFile;
    std::uint64_t block = 0;

    friend auto operator<=>(const BlockKey &, const BlockKey &) = default;
};

/** State of a cached block. */
struct CacheBlock
{
    BlockKey key;
    bool valid = false;     //!< data present (false: read in flight)
    bool dirty = false;
    bool flushing = false;  //!< write in flight; not stealable
    SpuId owner = kNoSpu;   //!< SPU charged for the page

    /** Callbacks run when an in-flight read completes. */
    std::vector<std::function<void()>> waiters;

    /** @name BufferCache internals (slab index and LRU links). */
    /// @{
    std::uint32_t slabIndex = 0;
    std::uint32_t lruPrev = 0;
    std::uint32_t lruNext = 0;
    /// @}
};

/** Buffer-cache block table with LRU stealing. */
class BufferCache
{
  public:
    BufferCache() = default;
    BufferCache(const BufferCache &) = delete;
    BufferCache &operator=(const BufferCache &) = delete;

    /** Look up a block; nullptr on miss. Does not touch LRU. */
    CacheBlock *find(const BlockKey &key);

    /**
     * Insert a block whose frame the caller has already charged to
     * @p owner. @p valid=false marks a read in flight. The returned
     * reference (like every CacheBlock pointer) stays valid until the
     * block is removed: the slab never relocates blocks.
     */
    CacheBlock &insert(const BlockKey &key, SpuId owner, bool valid);

    /** Move @p blk to the front of the LRU list. */
    void touch(CacheBlock &blk);

    /** Remove a block (the caller uncharges the frame). */
    void remove(const BlockKey &key);

    /** Change the charged owner of @p blk (shared-page reclassification;
     *  the caller moves the frame charge in VirtualMemory). */
    void setOwner(CacheBlock &blk, SpuId owner);

    /**
     * Steal the least-recently-used *clean, valid, non-flushing* block
     * owned by @p victim (or by anyone if @p victim == kNoSpu).
     * The block is removed; its owner is returned through @p owner so
     * the caller can transfer the frame charge.
     * @return true if a block was stolen.
     */
    bool stealClean(SpuId victim, SpuId &owner);

    /** Mark @p blk valid and run (and clear) its waiters. */
    void markValid(CacheBlock &blk);

    /** Dirty/clean transitions keep the dirty count exact. */
    void markDirty(CacheBlock &blk);
    void markClean(CacheBlock &blk);

    /** Total cached blocks. */
    std::size_t size() const { return size_; }

    /** Dirty (unflushed) blocks. */
    std::size_t dirtyCount() const { return dirty_; }

    /** Blocks charged to @p spu. */
    std::size_t pagesOf(SpuId spu) const;

    /** Invoke @p fn on every dirty, valid, non-flushing block, in
     *  ascending key order (the order the old std::map walk produced,
     *  which downstream flush clustering depends on). */
    void forEachDirty(const std::function<void(CacheBlock &)> &fn);

    /** Checkpoint: raw structural imaging. Slab slots, free list, hash
     *  index and LRU links are written verbatim so that probe order
     *  and LRU iteration order — both observable through steal and
     *  flush decisions — restore bit-identically. Only legal when no
     *  block is invalid or flushing and no waiters are registered
     *  (I/O quiescence); saving throws InvariantError otherwise. */
    void ckpt(CkptIo &io);

  private:
    /** Slab index meaning "none" (end of an LRU chain, free entry). */
    static constexpr std::uint32_t kNullSlot = 0xffffffffu;

    /** One hash-table entry; key.file == kNoFile marks it empty. */
    struct IndexEntry
    {
        BlockKey key;
        std::uint32_t slot = kNullSlot;
    };

    static std::uint64_t hashKey(const BlockKey &key);

    /** Grow (or create) the index so one more insert keeps the load
     *  factor at or below 3/4. */
    void ensureIndexCapacity();

    /** Probe for @p key. @return the index position holding it, or the
     *  first empty position when absent. */
    std::size_t probe(const BlockKey &key) const;

    /** Backward-shift deletion at index position @p pos. */
    void eraseIndexAt(std::size_t pos);

    void lruUnlink(CacheBlock &blk);
    void lruPushFront(CacheBlock &blk);

    std::deque<CacheBlock> slab_;
    std::vector<std::uint32_t> freeSlab_;
    std::vector<IndexEntry> index_;
    std::size_t indexMask_ = 0;
    std::uint32_t lruHead_ = kNullSlot;
    std::uint32_t lruTail_ = kNullSlot;
    std::size_t size_ = 0;
    std::size_t dirty_ = 0;
    SpuTable<std::size_t> perSpu_;
};

} // namespace piso

#endif // PISO_OS_BUFFER_CACHE_HH
