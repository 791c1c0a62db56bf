#include "src/os/buffer_cache.hh"

#include <algorithm>
#include <iterator>
#include <string>

#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

namespace {

/** What a checkpoint load found at each slab slot. */
enum SlotState : char
{
    kUnreached,
    kLive, //!< on the LRU list
    kFree, //!< on the free list
};

[[noreturn]] void
badImage(const std::string &why)
{
    throw ConfigError("checkpoint image rejected: buffer-cache " + why);
}

} // namespace

std::uint64_t
BufferCache::hashKey(FileId file, std::uint64_t run)
{
    // Mix file and run, then a splitmix64-style finalizer; the low
    // bits must be well distributed because the table is a power of
    // two and probing is linear.
    std::uint64_t x =
        run * 0x9e3779b97f4a7c15ull +
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(file)) *
         0xc2b2ae3d27d4eb4full);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

std::size_t
BufferCache::probe(FileId file, std::uint64_t run,
                   std::uint64_t &visits) const
{
    std::size_t pos = hashKey(file, run) & indexMask_;
    for (;;) {
        ++visits;
        const IndexEntry &e = index_[pos];
        if (e.file == kNoFile || (e.file == file && e.run == run))
            return pos;
        pos = (pos + 1) & indexMask_;
    }
}

bool
BufferCache::lookasideHolds(FileId file, std::uint64_t run) const
{
    if (lookaside_.run != run || lookaside_.file != file ||
        lookaside_.rec == kNullSlot)
        return false;
    [[maybe_unused]] std::uint64_t uncounted = 0;
    PISO_CHECK(!index_.empty() &&
                   index_[probe(file, run, uncounted)].rec == lookaside_.rec,
               "cache lookaside names record ", lookaside_.rec,
               " for file ", file, " run ", run,
               ", which the index does not hold");
    return true;
}

void
BufferCache::growIndex()
{
    const std::size_t newCap = index_.empty() ? 64 : index_.size() * 2;
    std::vector<IndexEntry> old = std::move(index_);
    index_.assign(newCap, IndexEntry{});
    indexMask_ = newCap - 1;
    for (const IndexEntry &e : old) {
        if (e.file == kNoFile)
            continue;
        std::size_t pos = hashKey(e.file, e.run) & indexMask_;
        while (index_[pos].file != kNoFile)
            pos = (pos + 1) & indexMask_;
        index_[pos] = e;
    }
}

void
BufferCache::eraseIndexAt(std::size_t pos)
{
    // Backward-shift deletion: pull displaced entries into the hole so
    // probe chains never need tombstones.
    std::size_t hole = pos;
    std::size_t next = (hole + 1) & indexMask_;
    while (index_[next].file != kNoFile) {
        const std::size_t home =
            hashKey(index_[next].file, index_[next].run) & indexMask_;
        // Movable iff its home slot is outside the cyclic range
        // (hole, next] — i.e. probing from home reaches the hole
        // before (or at) its current position.
        if (((next - home) & indexMask_) >= ((next - hole) & indexMask_)) {
            index_[hole] = index_[next];
            hole = next;
        }
        next = (next + 1) & indexMask_;
    }
    index_[hole] = IndexEntry{};
}

BufferCache::Run &
BufferCache::runFor(const BlockKey &key)
{
    const std::uint64_t run = key.block >> kRunShift;
    if (lookasideHolds(key.file, run))
        return runs_[lookaside_.rec];
    std::size_t pos =
        index_.empty() ? 0 : probe(key.file, run, probeVisits_);
    if (index_.empty() || index_[pos].file == kNoFile) {
        // Keep the load factor at or below 1/2: most probes are
        // misses, and a miss walks the whole chain.
        if ((liveRuns() + 1) * 2 > index_.size()) {
            growIndex();
            pos = probe(key.file, run, probeVisits_);
        }
        std::uint32_t rec;
        if (!freeRuns_.empty()) {
            rec = freeRuns_.back(); // emptied, so every slot is null
            freeRuns_.pop_back();
        } else {
            rec = static_cast<std::uint32_t>(runs_.size());
            Run &fresh = runs_.emplace_back();
            std::fill(std::begin(fresh.slots), std::end(fresh.slots),
                      kNullSlot);
        }
        index_[pos] = IndexEntry{run, key.file, rec};
    }
    lookaside_ = index_[pos];
    return runs_[lookaside_.rec];
}

std::uint32_t
BufferCache::cachedBlocks(const Run &r)
{
    return static_cast<std::uint32_t>(
        std::count_if(std::begin(r.slots), std::end(r.slots),
                      [](std::uint32_t s) { return s != kNullSlot; }));
}

template <typename L>
void
BufferCache::unlink(ListEnds &list, CacheBlock &blk)
{
    const std::uint32_t prev = blk.*L::prev;
    const std::uint32_t next = blk.*L::next;
    PISO_CHECK(prev != kNullSlot || list.head == blk.slabIndex,
               "list unlink of a block that is not on the list (slot ",
               blk.slabIndex, ")");
    if (prev != kNullSlot)
        slab_[prev].*L::next = next;
    else
        list.head = next;
    if (next != kNullSlot)
        slab_[next].*L::prev = prev;
    else
        list.tail = prev;
}

template <typename L>
void
BufferCache::pushFront(ListEnds &list, CacheBlock &blk)
{
    blk.*L::prev = kNullSlot;
    blk.*L::next = list.head;
    if (list.head != kNullSlot)
        slab_[list.head].*L::prev = blk.slabIndex;
    else
        list.tail = blk.slabIndex;
    list.head = blk.slabIndex;
}

std::uint32_t
BufferCache::Slab::grow()
{
    if (size_ == chunks_.size() * kChunk)
        chunks_.push_back(std::make_unique<CacheBlock[]>(kChunk));
    return static_cast<std::uint32_t>(size_++);
}

BufferCache::Owner &
BufferCache::ownerOf(SpuId spu)
{
    Owner *o = owners_.find(spu);
    PISO_CHECK(o != nullptr, "cache block owned by unknown SPU ", spu);
    return *o;
}

CacheBlock *
BufferCache::find(const BlockKey &key)
{
    const std::uint64_t run = key.block >> kRunShift;
    if (!lookasideHolds(key.file, run)) {
        if (index_.empty())
            return nullptr;
        const IndexEntry &e = index_[probe(key.file, run, probeVisits_)];
        if (e.file == kNoFile)
            return nullptr;
        lookaside_ = e;
    }
    const std::uint32_t slot =
        runs_[lookaside_.rec].slots[key.block & (kRunBlocks - 1)];
    return slot == kNullSlot ? nullptr : &slab_[slot];
}

CacheBlock &
BufferCache::insert(const BlockKey &key, SpuId owner, bool valid)
{
    PISO_INVARIANT(key.file >= 0, "cache insert for file ", key.file,
                   " block ", key.block, " (a file id is never negative)");
    Run &run = runFor(key);
    std::uint32_t &entry = run.slots[key.block & (kRunBlocks - 1)];
    PISO_INVARIANT(entry == kNullSlot, "duplicate cache insert for file ",
                   key.file, " block ", key.block);

    std::uint32_t slot;
    if (!freeSlab_.empty()) {
        slot = freeSlab_.back();
        freeSlab_.pop_back();
    } else {
        slot = slab_.grow();
    }
    entry = slot;
    ++run.live;

    CacheBlock &blk = slab_[slot];
    blk.key = key;
    blk.valid = valid;
    blk.dirty = false;
    blk.flushing = false;
    blk.owner = owner;
    blk.slabIndex = slot;
    pushFront<LruLinks>(lru_, blk);
    Owner &o = owners_[owner];
    pushFront<OwnLinks>(o.lru, blk);
    ++o.pages;
    ++size_;
    return blk;
}

void
BufferCache::touch(CacheBlock &blk)
{
    if (lru_.head == blk.slabIndex)
        return; // already most recent, so also first in its owner list
    unlink<LruLinks>(lru_, blk);
    pushFront<LruLinks>(lru_, blk);
    Owner &o = ownerOf(blk.owner);
    unlink<OwnLinks>(o.lru, blk);
    pushFront<OwnLinks>(o.lru, blk);
}

void
BufferCache::setOwner(CacheBlock &blk, SpuId owner)
{
    if (blk.owner == owner)
        return;
    // Pushing to the front of the new owner's list keeps it in global
    // LRU order only for the globally most recent block.
    PISO_CHECK(lru_.head == blk.slabIndex,
               "setOwner on a block that is not most recently used (slot ",
               blk.slabIndex, ")");
    Owner &from = ownerOf(blk.owner);
    unlink<OwnLinks>(from.lru, blk);
    --from.pages;
    blk.owner = owner;
    Owner &to = owners_[owner]; // may grow the table: after `from`
    pushFront<OwnLinks>(to.lru, blk);
    ++to.pages;
}

void
BufferCache::remove(const BlockKey &key)
{
    PISO_INVARIANT(!index_.empty(), "removing uncached block");
    const std::size_t pos =
        probe(key.file, key.block >> kRunShift, probeVisits_);
    PISO_INVARIANT(index_[pos].file != kNoFile, "removing uncached block");
    Run &run = runs_[index_[pos].rec];
    std::uint32_t &entry = run.slots[key.block & (kRunBlocks - 1)];
    PISO_INVARIANT(entry != kNullSlot, "removing uncached block");

    CacheBlock &blk = slab_[entry];
    PISO_INVARIANT(!hasWaiters(blk), "removing a block with waiters");
    PISO_CHECK(blk.key == key,
               "cache index slot disagrees with its slab block (file ",
               key.file, " block ", key.block, ")");
    if (blk.dirty) {
        unlink<DirtyLinks>(dirtyList_, blk);
        --dirty_;
    }
    Owner &o = ownerOf(blk.owner);
    unlink<OwnLinks>(o.lru, blk);
    --o.pages;
    unlink<LruLinks>(lru_, blk);
    freeSlab_.push_back(blk.slabIndex);
    entry = kNullSlot;
    if (--run.live == 0) {
        PISO_CHECK(cachedBlocks(run) == 0, "emptied cache run of file ",
                   key.file, " still names ", cachedBlocks(run), " blocks");
        if (lookaside_.rec == index_[pos].rec)
            lookaside_ = IndexEntry{};
        freeRuns_.push_back(index_[pos].rec);
        eraseIndexAt(pos);
    }
    --size_;
    // Scrub the freed block so a saved image carries no stale state.
    blk.key = BlockKey{};
    blk.valid = false;
    blk.dirty = false;
    blk.flushing = false;
    blk.owner = kNoSpu;
}

bool
BufferCache::stealClean(SpuId victim, SpuId &owner)
{
    // Walk from least-recently-used towards the front: the global list
    // for any owner, else the victim's own list.
    const Owner *o = nullptr;
    if (victim != kNoSpu) {
        o = owners_.find(victim);
        if (!o)
            return false;
    }
    std::uint32_t idx = o ? o->lru.tail : lru_.tail;
    const Link prev = o ? OwnLinks::prev : LruLinks::prev;
    for (; idx != kNullSlot; idx = slab_[idx].*prev) {
        ++stealVisits_;
        CacheBlock &blk = slab_[idx];
        if (!blk.valid || blk.dirty || blk.flushing)
            continue;
        owner = blk.owner;
        const BlockKey key = blk.key; // remove() scrubs blk.key
        remove(key);
        return true;
    }
    return false;
}

void
BufferCache::addWaiter(CacheBlock &blk, Process &p)
{
    std::uint32_t n = freeWait_;
    if (n != kNullSlot) {
        freeWait_ = waitNodes_[n].next;
    } else {
        n = static_cast<std::uint32_t>(waitNodes_.size());
        waitNodes_.emplace_back();
    }
    waitNodes_[n] = WaitNode{&p, kNullSlot};
    if (blk.waitTail == kNullSlot)
        blk.waitHead = n;
    else
        waitNodes_[blk.waitTail].next = n;
    blk.waitTail = n;
}

void
BufferCache::markDirty(CacheBlock &blk)
{
    if (!blk.dirty) {
        blk.dirty = true;
        pushFront<DirtyLinks>(dirtyList_, blk);
        ++dirty_;
    }
}

void
BufferCache::markClean(CacheBlock &blk)
{
    if (blk.dirty) {
        blk.dirty = false;
        unlink<DirtyLinks>(dirtyList_, blk);
        --dirty_;
    }
    blk.flushing = false;
}

std::size_t
BufferCache::pagesOf(SpuId spu) const
{
    const Owner *o = owners_.find(spu);
    return o ? o->pages : 0;
}

CacheBlock *
BufferCache::firstDirtyOf(SpuId owner)
{
    CacheBlock *first = nullptr;
    forEachFlushable([&](CacheBlock &blk) {
        if (blk.owner == owner && !hasWaiters(blk) &&
            (!first || blk.key < first->key))
            first = &blk;
    });
    return first;
}

void
BufferCache::rebuildIndex(const std::vector<char> &state)
{
    runs_.clear();
    freeRuns_.clear();
    index_.clear();
    indexMask_ = 0;
    lookaside_ = IndexEntry{};
    for (std::size_t i = 0; i < slab_.size(); ++i) {
        if (state[i] != kLive)
            continue;
        const BlockKey &key = slab_[i].key;
        Run &run = runFor(key);
        std::uint32_t &entry = run.slots[key.block & (kRunBlocks - 1)];
        if (entry != kNullSlot)
            badImage("holds file " + std::to_string(key.file) +
                     " block " + std::to_string(key.block) + " twice");
        entry = static_cast<std::uint32_t>(i);
        ++run.live;
    }
    for ([[maybe_unused]] const Run &run : runs_)
        PISO_CHECK(cachedBlocks(run) == run.live, "rebuilt cache run counts ",
                   run.live, " blocks but names ", cachedBlocks(run));
}

void
BufferCache::checkWaiters(const std::vector<char> &state) const
{
    std::vector<char> listed(waitNodes_.size(), 0);
    // Walk one list from @p head; @return its last node.
    const auto walk = [&](std::uint32_t head, bool waiting) {
        std::uint32_t last = kNullSlot;
        for (std::uint32_t n = head; n != kNullSlot;
             n = waitNodes_[n].next) {
            if (n >= waitNodes_.size() || listed[n])
                badImage("waiter node " + std::to_string(n) +
                         " out of range or on two lists");
            listed[n] = 1;
            if ((waitNodes_[n].proc != nullptr) != waiting)
                badImage("waiter node " + std::to_string(n) +
                         (waiting ? " names no process"
                                  : " is free but names a process"));
            PISO_CHECK(!waiting || waitNodes_[n].proc->state() ==
                                       ProcState::Blocked,
                       "restored cache waiter pid ",
                       waitNodes_[n].proc->pid(), " is not blocked");
            last = n;
        }
        return last;
    };
    walk(freeWait_, false);
    for (std::size_t i = 0; i < state.size(); ++i) {
        const CacheBlock &blk = slab_[static_cast<std::uint32_t>(i)];
        if (!hasWaiters(blk) && blk.waitTail == kNullSlot)
            continue;
        if (state[i] != kLive || blk.valid ||
            walk(blk.waitHead, true) != blk.waitTail)
            badImage("block " + std::to_string(i) +
                     " has a malformed waiter list");
    }
    if (std::find(listed.begin(), listed.end(), 0) != listed.end())
        badImage("waiter pool has a node on no list");
}

void
BufferCache::ckpt(CkptIo &io, const ProcessByPid &byPid,
                  std::size_t spuBound)
{
    const std::size_t slots = io.count(slab_.size());
    if (io.loading()) {
        if (slots >= kNullSlot)
            badImage("slab has more slots than a slab index can name");
        slab_.clear();
        for (std::size_t i = 0; i < slots; ++i)
            slab_.grow();
    }
    for (std::uint32_t i = 0; i < slots; ++i) {
        CacheBlock &blk = slab_[i];
        io.i64(blk.key.file);
        io.u64(blk.key.block);
        io.boolean(blk.valid);
        io.boolean(blk.dirty);
        io.boolean(blk.flushing);
        io.i64(blk.owner);
        io.u32(blk.slabIndex);
        io.u32(blk.lruPrev);
        io.u32(blk.lruNext);
        io.u32(blk.waitHead);
        io.u32(blk.waitTail);
    }
    io.seq(freeSlab_, [&io](std::uint32_t &slot) { io.u32(slot); });
    io.u32(lru_.head);
    io.u32(lru_.tail);
    io.u64(size_);
    io.u64(dirty_);
    owners_.table(io, spuBound,
                  [&io](Owner &o) { io.u64(o.pages); });
    io.seq(waitNodes_, [&io, &byPid](WaitNode &node) {
        Pid pid = node.proc ? node.proc->pid() : kNoPid;
        io.i64(pid);
        io.u32(node.next);
        if (io.loading())
            node.proc = pid == kNoPid ? nullptr : byPid(pid);
    });
    io.u32(freeWait_);
    if (!io.loading())
        return;

    // Validate every imaged link before anything follows one: walk the
    // LRU list from the tail, checking range, prev/next agreement and
    // termination, and count the blocks it reaches.
    const std::size_t n = slab_.size();
    const auto inRange = [n](std::uint32_t slot) {
        return slot == kNullSlot || slot < n;
    };
    std::vector<char> state(n, kUnreached);
    for (std::size_t i = 0; i < n; ++i) {
        if (slab_[i].slabIndex != i)
            badImage("block " + std::to_string(i) +
                     " records slab index " +
                     std::to_string(slab_[i].slabIndex));
    }
    if (!inRange(lru_.head) || !inRange(lru_.tail))
        badImage("LRU head or tail out of range");
    std::size_t reached = 0;
    std::uint32_t after = kNullSlot;
    for (std::uint32_t idx = lru_.tail; idx != kNullSlot;) {
        if (state[idx] != kUnreached)
            badImage("LRU list has a cycle");
        const CacheBlock &blk = slab_[idx];
        if (blk.lruNext != after)
            badImage("LRU links disagree at slot " + std::to_string(idx));
        if (!inRange(blk.lruPrev))
            badImage("LRU link out of range at slot " +
                     std::to_string(idx));
        state[idx] = kLive;
        ++reached;
        after = idx;
        idx = blk.lruPrev;
    }
    if (after != lru_.head)
        badImage("LRU head disagrees with the list");
    if (reached != size_)
        badImage("LRU list holds " + std::to_string(reached) +
                 " blocks, size says " + std::to_string(size_));

    if (freeSlab_.size() != n - size_)
        badImage("free list does not cover the unused slab slots");
    for (std::uint32_t slot : freeSlab_) {
        if (slot >= n || state[slot] != kUnreached)
            badImage("free-slab slot " + std::to_string(slot) +
                     " out of range or in use");
        state[slot] = kFree;
    }

    std::vector<std::size_t> pages(spuBound, 0);
    std::size_t dirty = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const CacheBlock &blk = slab_[i];
        if (state[i] != kLive)
            continue;
        if (blk.key.file < 0)
            badImage("live block " + std::to_string(i) +
                     " has no file");
        if (blk.owner < 0 || static_cast<std::size_t>(blk.owner) >= spuBound)
            badImage("block owner SPU " + std::to_string(blk.owner) +
                     " is not in the configuration");
        ++pages[static_cast<std::size_t>(blk.owner)];
        dirty += blk.dirty ? 1 : 0;
    }
    if (dirty != dirty_)
        badImage("dirty count disagrees with the blocks");
    for (std::size_t spu = 0; spu < spuBound; ++spu) {
        const Owner *o = owners_.find(static_cast<SpuId>(spu));
        if ((o ? o->pages : 0) != pages[spu])
            badImage("page count of SPU " + std::to_string(spu) +
                     " disagrees with the blocks");
    }

    checkWaiters(state);

    // Rebuild the derived structures. Owner lists are filled from the
    // LRU tail so each is the global order filtered by owner.
    rebuildIndex(state);
    for (std::uint32_t idx = lru_.tail; idx != kNullSlot;
         idx = slab_[idx].lruPrev) {
        CacheBlock &blk = slab_[idx];
        pushFront<OwnLinks>(owners_[blk.owner].lru, blk);
    }
    dirtyList_ = ListEnds{};
    for (std::size_t i = 0; i < n; ++i) {
        if (state[i] == kLive && slab_[i].dirty)
            pushFront<DirtyLinks>(dirtyList_, slab_[i]);
    }
}

} // namespace piso
