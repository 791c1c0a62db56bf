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
 * per 16 blocks of them, and most lookups name the run the previous
 * one reached: a one-entry lookaside remembers that run's record, and
 * find() and insert() consult it before they probe. It is forgotten
 * when its run is freed and when a checkpoint load rebuilds the runs.
 * Each block sits on up to three intrusive doubly-linked lists of slab
 * indices:
 *
 *  - the global LRU list (front = most recently used);
 *  - its owner SPU's LRU list, holding *all* of that owner's blocks,
 *    so a victim-filtered steal walks only the victim's blocks;
 *  - the dirty list, so a flush visits only dirty blocks. It has no
 *    order: the Kernel sorts each flush's blocks once, per disk by
 *    (sector, file, block), and finds a victim's dirty block by a
 *    min-key scan (firstDirtyOf).
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
 * links, so steal order survives a restore, and the waiter pool with
 * each block's waiter list, so blocks with reads or writes in flight
 * restore with their waiters. The runs, the index, the lookaside, the
 * owner lists and the dirty list are derived state: loading validates
 * the imaged links and rebuilds them from the slab.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/spu_table.hh"
#include "src/os/process.hh"
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
            node.proc = nullptr;
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

    /** Index positions probe() has examined so far, for find(),
     *  insert() and remove() (a work counter); a lookaside hit probes
     *  nothing. The PISO_CHECK that verifies a hit does not count, so
     *  hardened builds count the same. */
    std::uint64_t probeVisits() const { return probeVisits_; }

    /** Run records in the pool, live or free. */
    std::size_t runRecords() const { return runs_.size(); }

    /** Runs holding at least one cached block. */
    std::size_t liveRuns() const { return runs_.size() - freeRuns_.size(); }

    /** Invoke @p fn(const CacheBlock &) on every cached block, most
     *  recently used first. */
    template <typename Fn>
    void
    forEachBlock(Fn &&fn) const
    {
        for (std::uint32_t idx = lru_.head; idx != kNullSlot;
             idx = slab_[idx].lruNext)
            fn(slab_[idx]);
    }

    /** Invoke @p fn(CacheBlock &) on every dirty, valid, non-flushing
     *  block, in dirty-list order (no key order). @p fn must not
     *  insert or remove blocks, or change whether one is dirty. */
    template <typename Fn>
    void
    forEachFlushable(Fn &&fn)
    {
        for (std::uint32_t idx = dirtyList_.head; idx != kNullSlot;
             idx = slab_[idx].dirtyNext) {
            CacheBlock &blk = slab_[idx];
            if (blk.valid && !blk.flushing)
                fn(blk);
        }
    }

    /** The dirty, valid, non-flushing block of @p owner with the
     *  lowest key and no waiters; nullptr when there is none. */
    CacheBlock *firstDirtyOf(SpuId owner);

    /** Checkpoint: the slab, free list, global LRU links, per-SPU
     *  page counts and the waiter pool are imaged verbatim so that LRU
     *  order — observable through steal decisions — and the release
     *  order of waiters restore bit-identically; loading validates them
     *  (ConfigError) and rebuilds the index, the owner lists and the
     *  dirty list. SPU ids must be below @p spuBound; a waiter's pid
     *  is resolved through @p byPid. */
    void ckpt(CkptIo &io, const ProcessByPid &byPid, std::size_t spuBound);

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

        const CacheBlock &
        operator[](std::uint32_t slot) const
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

    /** One waiter in the pool: a process (none while on the free
     *  list) and the next node. */
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

    /** Probe for run @p run of @p file, adding each position examined
     *  to @p visits. @return the index position holding it, or the
     *  first empty position when absent. The index must not be
     *  empty. */
    std::size_t probe(FileId file, std::uint64_t run,
                      std::uint64_t &visits) const;

    /** True when the lookaside holds run @p run of @p file. Under
     *  PISO_HARDENED a hit is checked against the index, by a probe
     *  that probeVisits() does not count. */
    bool lookasideHolds(FileId file, std::uint64_t run) const;

    /** The run holding @p key's block, made (empty) if missing. */
    Run &runFor(const BlockKey &key);

    /** Slots of @p r that name a block (PISO_HARDENED probes compare
     *  it with the live count). */
    static std::uint32_t cachedBlocks(const Run &r);

    /** Backward-shift deletion at index position @p pos. */
    void eraseIndexAt(std::size_t pos);

    /** Validate the loaded waiter pool against the slab's live blocks
     *  (@p state as rebuildIndex takes it): every node on exactly one
     *  list, in range, with a process exactly when it waits. */
    void checkWaiters(const std::vector<char> &state) const;

    /** Owner entry of @p spu, which must have a block. */
    Owner &ownerOf(SpuId spu);

    Slab slab_;
    std::vector<std::uint32_t> freeSlab_;
    std::vector<Run> runs_;
    std::vector<std::uint32_t> freeRuns_;
    std::vector<IndexEntry> index_;
    std::size_t indexMask_ = 0;
    /** The run the last find() or insert() reached (rec kNullSlot:
     *  none); a copy of its index entry. */
    IndexEntry lookaside_;
    ListEnds lru_;
    ListEnds dirtyList_;
    std::size_t size_ = 0;
    std::size_t dirty_ = 0;
    SpuTable<Owner> owners_;
    std::vector<WaitNode> waitNodes_;
    std::uint32_t freeWait_ = kNullSlot;  //!< free-node list head
    std::uint64_t stealVisits_ = 0;
    std::uint64_t probeVisits_ = 0;
};

} // namespace piso

#endif // PISO_OS_BUFFER_CACHE_HH
