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
 * Blocks live in a pointer-stable slab (fixed chunks that never move).
 * They are found by run: a run is 16 consecutive blocks of one file,
 * `(file, block >> 4)`, and a pooled Run record maps each of its
 * blocks to a slab slot. An open-addressed hash index (linear probing,
 * backward-shift deletion, load factor at most 1/2 of live runs) maps
 * a run key to its record, so a lookup is one probe plus one array
 * read. A run lives while it holds a cached block; its record and
 * index entry are freed with its last block. Files read or written
 * front to back fill whole runs, so the index holds about one entry
 * per 16 blocks of them. Each block sits on up to three intrusive
 * doubly-linked lists of slab indices:
 *
 *  - the global LRU list (front = most recently used);
 *  - its owner SPU's LRU list, holding *all* of that owner's blocks,
 *    so a victim-filtered steal walks only the victim's blocks;
 *  - the dirty list (unordered), so a flush visits only dirty blocks.
 *
 * Invariant: each owner's list is the global LRU order filtered by
 * owner. insert() and touch() put a block at the front of both lists,
 * and setOwner() moves it to the front of the new owner's list, which
 * is only right because the Kernel reclassifies a block right after
 * touch(), when it is the global most-recently-used block. setOwner()
 * checks that under PISO_HARDENED.
 *
 * Processes waiting for an in-flight block sit on a FIFO list of
 * nodes in a pool the cache owns; markValid() releases them in arrival
 * order.
 *
 * A checkpoint images the slab, the free list and the global LRU
 * links, so steal order survives a restore. The runs, the index, the
 * owner lists and the dirty list are derived state: loading validates
 * the imaged links and rebuilds them from the slab.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/spu_table.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/ids.hh"

namespace piso {

class Process;

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

    /** @name BufferCache internals (slab index, list links, and the
     *  ends of the waiter list in the cache's node pool). */
    /// @{
    std::uint32_t slabIndex = 0;
    std::uint32_t lruPrev = 0;
    std::uint32_t lruNext = 0;
    std::uint32_t ownPrev = 0;
    std::uint32_t ownNext = 0;
    std::uint32_t dirtyPrev = 0;
    std::uint32_t dirtyNext = 0;
    std::uint32_t waitHead = 0xffffffffu;
    std::uint32_t waitTail = 0xffffffffu;
    /// @}
};
static_assert(sizeof(CacheBlock) == 64);

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
     * @p owner. @p valid=false marks a read in flight. The file must
     * not be negative (kNoFile marks an empty index entry). The returned
     * reference (like every CacheBlock pointer) stays valid until the
     * block is removed: the slab never relocates blocks.
     */
    CacheBlock &insert(const BlockKey &key, SpuId owner, bool valid);

    /** Move @p blk to the front of the LRU list (and of its owner's). */
    void touch(CacheBlock &blk);

    /** Remove a block (the caller uncharges the frame). */
    void remove(const BlockKey &key);

    /** Change the charged owner of @p blk (shared-page reclassification;
     *  the caller moves the frame charge in VirtualMemory). @p blk must
     *  be the most recently used block: call it right after touch(). */
    void setOwner(CacheBlock &blk, SpuId owner);

    /**
     * Steal the least-recently-used *clean, valid, non-flushing* block
     * owned by @p victim (or by anyone if @p victim == kNoSpu).
     * The block is removed; its owner is returned through @p owner so
     * the caller can transfer the frame charge. A named victim costs
     * a walk of that victim's blocks only.
     * @return true if a block was stolen.
     */
    bool stealClean(SpuId victim, SpuId &owner);

    /** Queue @p p behind the in-flight read of @p blk. */
    void addWaiter(CacheBlock &blk, Process &p);

    /** True when a process waits for @p blk. */
    bool
    hasWaiters(const CacheBlock &blk) const
    {
        return blk.waitHead != kNullSlot;
    }

    /**
     * Mark @p blk valid and release its waiters: the list is detached
     * first, then @p wake(Process &) runs for each waiter in arrival
     * order. A wake may queue new waiters (on any block).
     */
    template <typename Wake>
    void
    markValid(CacheBlock &blk, Wake &&wake)
    {
        blk.valid = true;
        std::uint32_t n = blk.waitHead;
        blk.waitHead = blk.waitTail = kNullSlot;
        while (n != kNullSlot) {
            WaitNode &node = waitNodes_[n];
            Process *p = node.proc;
            const std::uint32_t next = node.next;
            node.next = freeWait_;
            freeWait_ = n;
            wake(*p);
            n = next;
        }
    }

    /** Dirty/clean transitions keep the dirty list and count exact. */
    void markDirty(CacheBlock &blk);
    void markClean(CacheBlock &blk);

    /** Total cached blocks. */
    std::size_t size() const { return size_; }

    /** Dirty (unflushed) blocks. */
    std::size_t dirtyCount() const { return dirty_; }

    /** Blocks charged to @p spu. */
    std::size_t pagesOf(SpuId spu) const;

    /** Blocks stealClean() has examined so far (a work counter). */
    std::uint64_t stealVisits() const { return stealVisits_; }

    /** Run records in the pool, live or free. */
    std::size_t runRecords() const { return runs_.size(); }

    /** Runs holding at least one cached block. */
    std::size_t liveRuns() const { return runs_.size() - freeRuns_.size(); }

    /** Invoke @p fn on every dirty, valid, non-flushing block, in
     *  ascending key order (the order the old std::map walk produced,
     *  which downstream flush clustering depends on). @p fn must not
     *  insert or remove blocks. */
    template <typename Fn>
    void
    forEachDirty(Fn &&fn)
    {
        collectDirty();
        for (const DirtyEntry &e : dirtyScratch_)
            fn(slab_[e.slot]);
    }

    /** Checkpoint: the slab, free list, global LRU links and per-SPU
     *  page counts are imaged verbatim so that LRU order — observable
     *  through steal decisions — restores bit-identically; loading
     *  validates them (ConfigError) and rebuilds the index, the owner
     *  lists and the dirty list. SPU ids must be below @p spuBound.
     *  Only legal when no block is invalid or flushing and no waiters
     *  are registered (I/O quiescence); saving throws InvariantError
     *  otherwise. */
    void ckpt(CkptIo &io, std::size_t spuBound);

  private:
    /** Slab index meaning "none" (end of a list, free entry). */
    static constexpr std::uint32_t kNullSlot = 0xffffffffu;

    /** Block storage indexed by slot, in fixed chunks that never move,
     *  so a CacheBlock reference stays valid while the slab grows. */
    class Slab
    {
      public:
        CacheBlock &
        operator[](std::uint32_t slot)
        {
            return chunks_[slot >> kChunkShift][slot & (kChunk - 1)];
        }

        std::size_t size() const { return size_; }

        /** Append a default-constructed block; @return its slot. */
        std::uint32_t grow();

        void
        clear()
        {
            chunks_.clear();
            size_ = 0;
        }

      private:
        static constexpr unsigned kChunkShift = 8;
        static constexpr std::uint32_t kChunk = 1u << kChunkShift;

        std::vector<std::unique_ptr<CacheBlock[]>> chunks_;
        std::size_t size_ = 0;
    };

    /** A run is 16 consecutive blocks of one file. */
    static constexpr unsigned kRunShift = 4;
    static constexpr std::uint32_t kRunBlocks = 1u << kRunShift;

    /** The slab slots of one run's blocks (kNullSlot: not cached) and
     *  how many of them are cached. */
    struct Run
    {
        std::uint32_t slots[kRunBlocks];
        std::uint32_t live = 0;
    };

    /** One hash-table entry, keyed by (file, run number); file ==
     *  kNoFile marks it empty. */
    struct IndexEntry
    {
        std::uint64_t run = 0;
        FileId file = kNoFile;
        std::uint32_t rec = kNullSlot; //!< index into runs_
    };
    static_assert(sizeof(IndexEntry) == 16);

    /** The sort record of forEachDirty. */
    struct DirtyEntry
    {
        std::uint64_t block = 0;
        FileId file = kNoFile;
        std::uint32_t slot = kNullSlot;
    };

    /** One waiter in the pool: a process and the next node. */
    struct WaitNode
    {
        Process *proc = nullptr;
        std::uint32_t next = kNullSlot;
    };

    /** Head and tail slab indices of one intrusive list. */
    struct ListEnds
    {
        std::uint32_t head = kNullSlot;
        std::uint32_t tail = kNullSlot;
    };

    /** Per-owner state: page count and the owner's LRU list. */
    struct Owner
    {
        std::size_t pages = 0;
        ListEnds lru;
    };

    /** The three lists a block can be on, as link-member pairs. */
    using Link = std::uint32_t CacheBlock::*;
    struct LruLinks
    {
        static constexpr Link prev = &CacheBlock::lruPrev;
        static constexpr Link next = &CacheBlock::lruNext;
    };
    struct OwnLinks
    {
        static constexpr Link prev = &CacheBlock::ownPrev;
        static constexpr Link next = &CacheBlock::ownNext;
    };
    struct DirtyLinks
    {
        static constexpr Link prev = &CacheBlock::dirtyPrev;
        static constexpr Link next = &CacheBlock::dirtyNext;
    };

    template <typename L> void unlink(ListEnds &list, CacheBlock &blk);
    template <typename L> void pushFront(ListEnds &list, CacheBlock &blk);

    static std::uint64_t hashKey(FileId file, std::uint64_t run);

    /** Double (or create) the index; out of line, off the insert path. */
    void growIndex();

    /** Rebuild the runs and the index from every block whose load-time
     *  @p state is live. */
    void rebuildIndex(const std::vector<char> &state);

    /** Probe for run @p run of @p file. @return the index position
     *  holding it, or the first empty position when absent. The index
     *  must not be empty. */
    std::size_t probe(FileId file, std::uint64_t run) const;

    /** The run holding @p key's block, made (empty) if missing. */
    Run &runFor(const BlockKey &key);

    /** Slots of @p r that name a block (PISO_HARDENED probes compare
     *  it with the live count). */
    static std::uint32_t cachedBlocks(const Run &r);

    /** Backward-shift deletion at index position @p pos. */
    void eraseIndexAt(std::size_t pos);

    /** Fill dirtyScratch_ with the flushable blocks, sorted by key. */
    void collectDirty();

    /** Owner entry of @p spu, which must have a block. */
    Owner &ownerOf(SpuId spu);

    Slab slab_;
    std::vector<std::uint32_t> freeSlab_;
    std::vector<Run> runs_;
    std::vector<std::uint32_t> freeRuns_;
    std::vector<IndexEntry> index_;
    std::size_t indexMask_ = 0;
    ListEnds lru_;
    ListEnds dirtyList_;
    std::size_t size_ = 0;
    std::size_t dirty_ = 0;
    SpuTable<Owner> owners_;
    std::vector<DirtyEntry> dirtyScratch_;
    std::vector<WaitNode> waitNodes_;
    std::uint32_t freeWait_ = kNullSlot;  //!< free-node list head
    std::uint64_t stealVisits_ = 0;
};

} // namespace piso

#endif // PISO_OS_BUFFER_CACHE_HH
