#include "src/os/buffer_cache.hh"

#include <algorithm>

#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

std::uint64_t
BufferCache::hashKey(const BlockKey &key)
{
    // Mix file and block, then a splitmix64-style finalizer; the low
    // bits must be well distributed because the table is a power of
    // two and probing is linear.
    std::uint64_t x =
        key.block * 0x9e3779b97f4a7c15ull +
        (static_cast<std::uint64_t>(
             static_cast<std::uint32_t>(key.file)) *
         0xc2b2ae3d27d4eb4full);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

std::size_t
BufferCache::probe(const BlockKey &key) const
{
    std::size_t pos = hashKey(key) & indexMask_;
    while (index_[pos].key.file != kNoFile) {
        if (index_[pos].key == key)
            return pos;
        pos = (pos + 1) & indexMask_;
    }
    return pos;
}

void
BufferCache::ensureIndexCapacity()
{
    if (!index_.empty() && (size_ + 1) * 4 <= index_.size() * 3)
        return;

    const std::size_t newCap = index_.empty() ? 64 : index_.size() * 2;
    std::vector<IndexEntry> old = std::move(index_);
    index_.assign(newCap, IndexEntry{});
    indexMask_ = newCap - 1;
    for (const IndexEntry &e : old) {
        if (e.key.file == kNoFile)
            continue;
        std::size_t pos = hashKey(e.key) & indexMask_;
        while (index_[pos].key.file != kNoFile)
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
    while (index_[next].key.file != kNoFile) {
        const std::size_t home = hashKey(index_[next].key) & indexMask_;
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

void
BufferCache::lruUnlink(CacheBlock &blk)
{
    PISO_CHECK(blk.lruPrev != kNullSlot || lruHead_ == blk.slabIndex,
               "LRU unlink of a block that is not on the list (slot ",
               blk.slabIndex, ")");
    if (blk.lruPrev != kNullSlot)
        slab_[blk.lruPrev].lruNext = blk.lruNext;
    else
        lruHead_ = blk.lruNext;
    if (blk.lruNext != kNullSlot)
        slab_[blk.lruNext].lruPrev = blk.lruPrev;
    else
        lruTail_ = blk.lruPrev;
}

void
BufferCache::lruPushFront(CacheBlock &blk)
{
    blk.lruPrev = kNullSlot;
    blk.lruNext = lruHead_;
    if (lruHead_ != kNullSlot)
        slab_[lruHead_].lruPrev = blk.slabIndex;
    else
        lruTail_ = blk.slabIndex;
    lruHead_ = blk.slabIndex;
}

CacheBlock *
BufferCache::find(const BlockKey &key)
{
    if (index_.empty())
        return nullptr;
    const std::size_t pos = probe(key);
    if (index_[pos].key.file == kNoFile)
        return nullptr;
    return &slab_[index_[pos].slot];
}

CacheBlock &
BufferCache::insert(const BlockKey &key, SpuId owner, bool valid)
{
    ensureIndexCapacity();
    const std::size_t pos = probe(key);
    PISO_INVARIANT(index_[pos].key.file == kNoFile,
                   "duplicate cache insert for file ", key.file,
                   " block ", key.block);

    std::uint32_t slot;
    if (!freeSlab_.empty()) {
        slot = freeSlab_.back();
        freeSlab_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slab_.size());
        slab_.emplace_back();
    }
    index_[pos] = IndexEntry{key, slot};

    CacheBlock &blk = slab_[slot];
    blk.key = key;
    blk.valid = valid;
    blk.dirty = false;
    blk.flushing = false;
    blk.owner = owner;
    blk.waiters.clear();
    blk.slabIndex = slot;
    lruPushFront(blk);
    ++perSpu_[owner];
    ++size_;
    return blk;
}

void
BufferCache::touch(CacheBlock &blk)
{
    lruUnlink(blk);
    lruPushFront(blk);
}

void
BufferCache::setOwner(CacheBlock &blk, SpuId owner)
{
    if (blk.owner == owner)
        return;
    --perSpu_[blk.owner];
    blk.owner = owner;
    ++perSpu_[owner];
}

void
BufferCache::remove(const BlockKey &key)
{
    PISO_INVARIANT(!index_.empty(), "removing uncached block");
    const std::size_t pos = probe(key);
    PISO_INVARIANT(index_[pos].key.file != kNoFile,
                   "removing uncached block");

    CacheBlock &blk = slab_[index_[pos].slot];
    PISO_INVARIANT(blk.waiters.empty(),
                   "removing a block with waiters");
    PISO_CHECK(blk.key == key,
               "cache index slot disagrees with its slab block (file ",
               key.file, " block ", key.block, ")");
    if (blk.dirty)
        --dirty_;
    --perSpu_[blk.owner];
    lruUnlink(blk);
    freeSlab_.push_back(blk.slabIndex);
    eraseIndexAt(pos);
    --size_;
    // Scrub the freed block so slab scans (forEachDirty) skip it.
    blk.key = BlockKey{};
    blk.valid = false;
    blk.dirty = false;
    blk.flushing = false;
    blk.owner = kNoSpu;
}

bool
BufferCache::stealClean(SpuId victim, SpuId &owner)
{
    // Walk from least-recently-used towards the front.
    for (std::uint32_t idx = lruTail_; idx != kNullSlot;
         idx = slab_[idx].lruPrev) {
        CacheBlock &blk = slab_[idx];
        if (!blk.valid || blk.dirty || blk.flushing)
            continue;
        if (victim != kNoSpu && blk.owner != victim)
            continue;
        owner = blk.owner;
        const BlockKey key = blk.key; // remove() scrubs blk.key
        remove(key);
        return true;
    }
    return false;
}

void
BufferCache::markValid(CacheBlock &blk)
{
    blk.valid = true;
    auto waiters = std::move(blk.waiters);
    blk.waiters.clear();
    for (auto &fn : waiters)
        fn();
}

void
BufferCache::markDirty(CacheBlock &blk)
{
    if (!blk.dirty) {
        blk.dirty = true;
        ++dirty_;
    }
}

void
BufferCache::markClean(CacheBlock &blk)
{
    if (blk.dirty) {
        blk.dirty = false;
        --dirty_;
    }
    blk.flushing = false;
}

std::size_t
BufferCache::pagesOf(SpuId spu) const
{
    const std::size_t *count = perSpu_.find(spu);
    return count ? *count : 0;
}

void
BufferCache::forEachDirty(const std::function<void(CacheBlock &)> &fn)
{
    // Collect and sort so callers see ascending key order — flush
    // clustering and first-dirty-victim selection depend on it.
    std::vector<std::pair<BlockKey, std::uint32_t>> dirty;
    dirty.reserve(dirty_);
    for (const CacheBlock &blk : slab_) {
        if (blk.valid && blk.dirty && !blk.flushing)
            dirty.emplace_back(blk.key, blk.slabIndex);
    }
    std::sort(dirty.begin(), dirty.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    for (const auto &[key, slot] : dirty)
        fn(slab_[slot]);
}

void
BufferCache::ckpt(CkptIo &io)
{
    if (!io.loading()) {
        for (const CacheBlock &blk : slab_) {
            if (!blk.waiters.empty()) {
                throw InvariantError(
                    "buffer cache has a block with read waiters at "
                    "checkpoint time (not I/O-quiescent)");
            }
            if (blk.flushing) {
                throw InvariantError(
                    "buffer cache has a flushing block at checkpoint "
                    "time (not I/O-quiescent)");
            }
        }
    }

    io.seq(slab_, [&io](CacheBlock &blk) {
        io.i64(blk.key.file);
        io.u64(blk.key.block);
        io.boolean(blk.valid);
        io.boolean(blk.dirty);
        io.i64(blk.owner);
        io.u32(blk.slabIndex);
        io.u32(blk.lruPrev);
        io.u32(blk.lruNext);
    });
    io.seq(freeSlab_, [&io](std::uint32_t &slot) { io.u32(slot); });
    io.seq(index_, [&io](IndexEntry &e) {
        io.i64(e.key.file);
        io.u64(e.key.block);
        io.u32(e.slot);
    });
    io.u64(indexMask_);
    io.u32(lruHead_);
    io.u32(lruTail_);
    io.u64(size_);
    io.u64(dirty_);
    perSpu_.table(io, [&io](std::size_t &n) { io.u64(n); });
    if (!io.loading())
        return;

    for (std::uint32_t slot : freeSlab_) {
        if (slot >= slab_.size())
            throw ConfigError("checkpoint image rejected: buffer-cache "
                              "free-slab slot out of range");
    }
    for (const IndexEntry &e : index_) {
        if (e.slot != kNullSlot && e.slot >= slab_.size())
            throw ConfigError("checkpoint image rejected: buffer-cache "
                              "index slot out of range");
    }
    if (index_.empty() ? indexMask_ != 0
                       : indexMask_ + 1 != index_.size())
        throw ConfigError("checkpoint image rejected: buffer-cache "
                          "index mask disagrees with index size");
}

} // namespace piso
