/**
 * @file
 * Randomized BufferCache testing against a reference model.
 *
 * The cache's run-keyed index, intrusive LRU, per-owner and dirty
 * lists replaced a std::map + std::list pair; this fuzz harness
 * replays random insert / find+touch / dirty / clean / remove / steal
 * / touch+reown sequences against exactly that simple structure and
 * checks every observable after each step: lookup results, size and
 * dirty counts, per-SPU occupancy, LRU steal order (global and
 * victim-filtered), and forEachDirty's ascending key order (the
 * property flush clustering depends on), and how many 16-block runs
 * hold a block. Every 97 operations the cache is round-tripped through
 * a checkpoint into a fresh instance, so the runs, index and lists
 * rebuilt on load are checked against the same model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <vector>

#include "src/os/buffer_cache.hh"
#include "src/sim/random.hh"

using namespace piso;

namespace {

/** What the model remembers about one cached block. */
struct ModelBlock
{
    bool valid = false;
    bool dirty = false;
    bool flushing = false;
    SpuId owner = kNoSpu;
};

/** The reference: ordered map for state, list for LRU (front = MRU). */
struct ModelCache
{
    std::map<BlockKey, ModelBlock> blocks;
    std::list<BlockKey> lru;

    void touch(const BlockKey &key)
    {
        lru.remove(key);
        lru.push_front(key);
    }

    void remove(const BlockKey &key)
    {
        blocks.erase(key);
        lru.remove(key);
    }

    std::size_t dirtyCount() const
    {
        std::size_t n = 0;
        for (const auto &[k, b] : blocks)
            n += b.dirty ? 1 : 0;
        return n;
    }

    std::size_t pagesOf(SpuId spu) const
    {
        std::size_t n = 0;
        for (const auto &[k, b] : blocks)
            n += b.owner == spu ? 1 : 0;
        return n;
    }

    /** Distinct (file, block >> 4) runs among the cached blocks. */
    std::size_t liveRuns() const
    {
        std::size_t n = 0;
        const BlockKey *last = nullptr;
        for (const auto &[k, b] : blocks) {
            if (!last || last->file != k.file ||
                last->block >> 4 != k.block >> 4)
                ++n;
            last = &k;
        }
        return n;
    }

    /** LRU-most clean/valid/non-flushing block owned by @p victim
     *  (any owner when kNoSpu); nullptr when none qualifies. */
    const BlockKey *stealCandidate(SpuId victim) const
    {
        for (auto it = lru.rbegin(); it != lru.rend(); ++it) {
            const ModelBlock &b = blocks.at(*it);
            if (!b.valid || b.dirty || b.flushing)
                continue;
            if (victim != kNoSpu && b.owner != victim)
                continue;
            return &*it;
        }
        return nullptr;
    }
};

constexpr SpuId kSpus[] = {0, 1, 2, 3, 4};
constexpr std::size_t kSpuBound = 5;

/** A front-to-back pass over files 8 and 9 in turn. */
struct Stream
{
    static constexpr std::uint64_t kBlocks = 240;
    FileId file = 8;
    std::uint64_t next = 0;
};

BlockKey
randomKey(Rng &rng, Stream &stream)
{
    // A third of the keys stream through a file front to back, as a
    // copy reads and writes: runs fill, cross boundaries and empty
    // under steals and removes.
    if (rng.chance(1.0 / 3)) {
        const BlockKey key{stream.file, stream.next};
        if (++stream.next == Stream::kBlocks) {
            stream.next = 0;
            stream.file = stream.file == 8 ? 9 : 8;
        }
        return key;
    }
    // Of the rest, half come from a small universe so hits,
    // collisions, reinsertion after removal, and probe-chain shifts
    // all happen constantly; the other half from a wide one, so the
    // cache grows to hundreds of blocks and the index doubles.
    if (rng.chance(0.5))
        return BlockKey{static_cast<FileId>(rng.uniformInt(4)),
                        rng.uniformInt(32)};
    return BlockKey{static_cast<FileId>(4 + rng.uniformInt(4)),
                    rng.uniformInt(256)};
}

/** Save @p cache and load the image into a fresh cache. Ends every
 *  flush first: an image is only taken at I/O quiescence. */
std::unique_ptr<BufferCache>
roundTrip(BufferCache &cache, ModelCache &model)
{
    for (auto &[key, b] : model.blocks) {
        if (b.flushing) {
            cache.find(key)->flushing = false;
            b.flushing = false;
        }
    }
    CkptWriter w;
    CkptIo save(w);
    cache.ckpt(save, kSpuBound);
    CkptReader r(w.image(0));
    CkptIo load(r);
    auto fresh = std::make_unique<BufferCache>();
    fresh->ckpt(load, kSpuBound);
    r.expectEnd();
    return fresh;
}

} // namespace

TEST(BufferCacheProperty, FuzzAgainstReferenceModel)
{
    Rng rng(2024);
    for (int trial = 0; trial < 10; ++trial) {
        auto owned = std::make_unique<BufferCache>();
        ModelCache model;
        Stream stream;
        std::size_t peak = 0;
        std::size_t peakRuns = 0;

        for (int op = 0; op < 3000; ++op) {
            BufferCache &cache = *owned;
            const BlockKey key = randomKey(rng, stream);
            CacheBlock *blk = cache.find(key);
            const auto mit = model.blocks.find(key);
            ASSERT_EQ(blk != nullptr, mit != model.blocks.end());
            if (blk) {
                EXPECT_EQ(blk->key, key);
                EXPECT_EQ(blk->valid, mit->second.valid);
                EXPECT_EQ(blk->dirty, mit->second.dirty);
                EXPECT_EQ(blk->flushing, mit->second.flushing);
                EXPECT_EQ(blk->owner, mit->second.owner);
            }

            switch (rng.uniformInt(8)) {
            case 0:
            case 1: { // insert on miss, touch on hit
                if (!blk) {
                    const SpuId owner =
                        kSpus[rng.uniformInt(std::size(kSpus))];
                    const bool valid = rng.chance(0.8);
                    CacheBlock &nb = cache.insert(key, owner, valid);
                    EXPECT_EQ(nb.key, key);
                    EXPECT_EQ(nb.owner, owner);
                    EXPECT_EQ(nb.valid, valid);
                    EXPECT_FALSE(nb.dirty);
                    model.blocks[key] =
                        ModelBlock{valid, false, false, owner};
                    model.lru.push_front(key);
                } else {
                    cache.touch(*blk);
                    model.touch(key);
                }
                break;
            }
            case 2: { // dirty a valid block
                if (blk && blk->valid) {
                    cache.markDirty(*blk);
                    model.blocks[key].dirty = true;
                }
                break;
            }
            case 3: { // clean (also ends any flush)
                if (blk) {
                    cache.markClean(*blk);
                    model.blocks[key].dirty = false;
                    model.blocks[key].flushing = false;
                }
                break;
            }
            case 4: { // start or finish a flush; validate reads
                if (blk && rng.chance(0.5)) {
                    blk->flushing = !blk->flushing;
                    model.blocks[key].flushing = blk->flushing;
                } else if (blk && !blk->valid) {
                    cache.markValid(*blk, [](Process &) {});
                    model.blocks[key].valid = true;
                }
                break;
            }
            case 5: { // remove
                if (blk) {
                    cache.remove(key);
                    model.remove(key);
                }
                break;
            }
            case 6: { // touch+reown, the kernel's only reclassification
                if (blk) {
                    const SpuId owner =
                        kSpus[rng.uniformInt(std::size(kSpus))];
                    cache.touch(*blk);
                    model.touch(key);
                    cache.setOwner(*blk, owner);
                    model.blocks[key].owner = owner;
                }
                break;
            }
            default: { // stealClean, sometimes victim-filtered
                const SpuId victim =
                    rng.chance(0.5)
                        ? kNoSpu
                        : kSpus[rng.uniformInt(std::size(kSpus))];
                const BlockKey *want = model.stealCandidate(victim);
                SpuId owner = kNoSpu;
                const bool stole = cache.stealClean(victim, owner);
                ASSERT_EQ(stole, want != nullptr);
                if (stole) {
                    EXPECT_EQ(owner, model.blocks.at(*want).owner);
                    EXPECT_EQ(cache.find(*want), nullptr);
                    model.remove(*want);
                }
                break;
            }
            }

            // Aggregate observables agree after every operation.
            ASSERT_EQ(cache.size(), model.blocks.size());
            ASSERT_EQ(cache.dirtyCount(), model.dirtyCount());
            for (SpuId spu : kSpus)
                ASSERT_EQ(cache.pagesOf(spu), model.pagesOf(spu));

            // forEachDirty: ascending key order over exactly the
            // valid, dirty, non-flushing set.
            if ((op & 63) == 0) {
                std::vector<BlockKey> got;
                cache.forEachDirty([&](CacheBlock &b) {
                    EXPECT_TRUE(b.valid && b.dirty && !b.flushing);
                    got.push_back(b.key);
                });
                std::vector<BlockKey> want;
                for (const auto &[k, b] : model.blocks) {
                    if (b.valid && b.dirty && !b.flushing)
                        want.push_back(k);  // map order == ascending
                }
                ASSERT_EQ(got, want);
                ASSERT_EQ(cache.liveRuns(), model.liveRuns());
            }

            peak = std::max(peak, cache.size());
            peakRuns = std::max(peakRuns, cache.liveRuns());
            if (op % 97 == 96)
                owned = roundTrip(cache, model);
        }
        // 64 entries at load factor 1/2 hold 32 runs: beyond 64 the
        // index has doubled at least twice.
        EXPECT_GT(peak, 128u) << "trial " << trial;
        EXPECT_GT(peakRuns, 64u) << "trial " << trial;

        BufferCache &cache = *owned;

        // Drain with steals: eviction must proceed in exact LRU order
        // over the clean blocks, then stall on the dirty remainder.
        for (;;) {
            const BlockKey *want = model.stealCandidate(kNoSpu);
            SpuId owner = kNoSpu;
            const bool stole = cache.stealClean(kNoSpu, owner);
            ASSERT_EQ(stole, want != nullptr);
            if (!stole)
                break;
            model.remove(*want);
        }
        ASSERT_EQ(cache.size(), model.blocks.size());
    }
}

TEST(BufferCacheProperty, StealOrderIsExactLru)
{
    // Deterministic check: insert A..E, touch two of them, steal
    // everything — the eviction order must be the reverse touch order.
    BufferCache cache;
    std::vector<BlockKey> keys;
    for (std::uint64_t i = 0; i < 5; ++i) {
        keys.push_back(BlockKey{1, i});
        cache.insert(keys.back(), 0, true);
    }
    cache.touch(*cache.find(keys[1]));  // LRU now: 0,2,3,4,1 (old->new)
    cache.touch(*cache.find(keys[0]));  // LRU now: 2,3,4,1,0

    const std::uint64_t wantOrder[] = {2, 3, 4, 1, 0};
    for (std::uint64_t want : wantOrder) {
        SpuId owner = kNoSpu;
        ASSERT_TRUE(cache.stealClean(kNoSpu, owner));
        EXPECT_EQ(cache.find(BlockKey{1, want}), nullptr)
            << "expected block " << want << " stolen";
        // All later keys must still be resident.
        std::size_t resident = 0;
        for (const BlockKey &k : keys)
            resident += cache.find(k) != nullptr ? 1 : 0;
        EXPECT_EQ(resident, cache.size());
    }
    EXPECT_EQ(cache.size(), 0u);
}

TEST(BufferCacheProperty, PerSpuOccupancyTracksOwnershipChanges)
{
    BufferCache cache;
    for (std::uint64_t i = 0; i < 6; ++i)
        cache.insert(BlockKey{2, i}, static_cast<SpuId>(i % 2), true);
    EXPECT_EQ(cache.pagesOf(0), 3u);
    EXPECT_EQ(cache.pagesOf(1), 3u);
    EXPECT_EQ(cache.pagesOf(7), 0u);  // never-seen SPU

    // The kernel reclassifies a block right after touching it.
    CacheBlock &reowned = *cache.find(BlockKey{2, 0});
    cache.touch(reowned);
    cache.setOwner(reowned, 1);
    EXPECT_EQ(cache.pagesOf(0), 2u);
    EXPECT_EQ(cache.pagesOf(1), 4u);

    // Victim-filtered steal only ever takes the victim's blocks.
    SpuId owner = kNoSpu;
    ASSERT_TRUE(cache.stealClean(0, owner));
    EXPECT_EQ(owner, 0);
    EXPECT_EQ(cache.pagesOf(0), 1u);
    EXPECT_EQ(cache.pagesOf(1), 4u);
}

TEST(BufferCacheProperty, VictimStealWalksOnlyTheVictimsBlocks)
{
    // 10,000 clean blocks of SPU 2 are less recently used than SPU 3's
    // one block: the global walk would pass all of them, SPU 3's own
    // list holds just its block.
    BufferCache cache;
    for (std::uint64_t i = 0; i < 10000; ++i)
        cache.insert(BlockKey{1, i}, 2, true);
    cache.insert(BlockKey{2, 0}, 3, true);

    const std::uint64_t before = cache.stealVisits();
    SpuId owner = kNoSpu;
    ASSERT_TRUE(cache.stealClean(3, owner));
    EXPECT_EQ(owner, 3);
    EXPECT_EQ(cache.stealVisits() - before, 1u);
    EXPECT_EQ(cache.find(BlockKey{2, 0}), nullptr);
    EXPECT_EQ(cache.pagesOf(2), 10000u);
}
