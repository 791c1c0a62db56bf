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
 * victim-filtered), that the unordered dirty walk visits exactly the
 * flushable set, each SPU's first dirty block (the key-ordered walk's,
 * tests/flush_ref_util.hh), and how many 16-block runs hold a block.
 * Every insert follows a lookup of its own key and a third of the
 * keys stream through a file, so lookups keep reaching the run the one
 * before reached (the lookaside's case) while removes and steals free
 * runs under it. Every 97 operations the cache is round-tripped
 * through a checkpoint, alternately into a fresh instance and into the
 * instance the previous round trip left behind, whose lookaside still
 * names a run of the old state; the runs, index and lists rebuilt on
 * load are checked against the same model. The states it saves hold
 * flushing blocks and in-flight blocks with queued waiters, whose
 * release order after a round trip must still be arrival order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/os/buffer_cache.hh"
#include "src/sim/random.hh"
#include "src/workload/synthetic.hh"
#include "tests/flush_ref_util.hh"

using namespace piso;

namespace {

/** What the model remembers about one cached block. */
struct ModelBlock
{
    bool valid = false;
    bool dirty = false;
    bool flushing = false;
    SpuId owner = kNoSpu;
    std::vector<Pid> waiters;  //!< in arrival order
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

/** The processes that wait on in-flight blocks, by pid 1..n. They
 *  are blocked, as a waiter always is. */
struct Waiters
{
    std::vector<std::unique_ptr<Process>> procs;

    explicit Waiters(int n)
    {
        for (Pid pid = 1; pid <= n; ++pid) {
            procs.push_back(std::make_unique<Process>(
                pid, 2, kNoJob, "w" + std::to_string(pid),
                std::make_unique<ScriptBehavior>(std::vector<Action>{}),
                Rng(static_cast<std::uint64_t>(pid))));
            procs.back()->setState(ProcState::Blocked);
        }
    }

    Process &
    pick(Rng &rng)
    {
        return *procs[rng.uniformInt(procs.size())];
    }

    ProcessByPid
    byPid()
    {
        return [this](Pid pid) {
            return procs.at(static_cast<std::size_t>(pid - 1)).get();
        };
    }
};

/** Save @p cache and load the image into @p into, flushing blocks
 *  and waiters included. */
void
roundTrip(BufferCache &cache, BufferCache &into, Waiters &waiters)
{
    CkptWriter w;
    CkptIo save(w);
    cache.ckpt(save, waiters.byPid(), kSpuBound);
    CkptReader r(w.image(0));
    CkptIo load(r);
    into.ckpt(load, waiters.byPid(), kSpuBound);
    r.expectEnd();
}

} // namespace

TEST(BufferCacheProperty, FuzzAgainstReferenceModel)
{
    Rng rng(2024);
    Waiters waiters(6);
    std::size_t savedFlushing = 0;
    std::size_t savedWaiters = 0;
    for (int trial = 0; trial < 10; ++trial) {
        auto owned = std::make_unique<BufferCache>();
        // The instance the last round trip loaded from: the next one
        // loads into it.
        auto spare = std::make_unique<BufferCache>();
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
                EXPECT_EQ(cache.hasWaiters(*blk),
                          !mit->second.waiters.empty());
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
                        ModelBlock{valid, false, false, owner, {}};
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
            case 4: { // start or finish a flush; wait on or validate reads
                if (blk && rng.chance(0.5)) {
                    blk->flushing = !blk->flushing;
                    model.blocks[key].flushing = blk->flushing;
                } else if (blk && !blk->valid && rng.chance(0.6)) {
                    Process &p = waiters.pick(rng);
                    cache.addWaiter(*blk, p);
                    model.blocks[key].waiters.push_back(p.pid());
                } else if (blk && !blk->valid) {
                    std::vector<Pid> woken;
                    cache.markValid(*blk, [&woken](Process &p) {
                        woken.push_back(p.pid());
                    });
                    ModelBlock &mb = model.blocks[key];
                    EXPECT_EQ(woken, mb.waiters);
                    mb.waiters.clear();
                    mb.valid = true;
                }
                break;
            }
            case 5: { // remove (never a block with waiters)
                if (blk && !cache.hasWaiters(*blk)) {
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

            ASSERT_EQ(cache.liveRuns(), model.liveRuns());

            // The unordered dirty walk visits exactly the valid,
            // dirty, non-flushing set, once each; each SPU's first
            // dirty block is the key-ordered walk's.
            if ((op & 63) == 0) {
                std::vector<BlockKey> got;
                cache.forEachFlushable([&](CacheBlock &b) {
                    EXPECT_TRUE(b.valid && b.dirty && !b.flushing);
                    got.push_back(b.key);
                });
                std::sort(got.begin(), got.end());
                std::vector<BlockKey> want;
                for (const auto &[k, b] : model.blocks) {
                    if (b.valid && b.dirty && !b.flushing)
                        want.push_back(k);  // map order == ascending
                }
                ASSERT_EQ(got, want);
                for (SpuId spu : kSpus) {
                    ASSERT_EQ(cache.firstDirtyOf(spu),
                              test::firstDirtyRef(cache, spu))
                        << "SPU " << spu;
                }
            }

            peak = std::max(peak, cache.size());
            peakRuns = std::max(peakRuns, cache.liveRuns());
            if (op % 97 == 96) {
                for (const auto &[k, b] : model.blocks) {
                    savedFlushing += b.flushing ? 1 : 0;
                    savedWaiters += b.waiters.size();
                }
                if (op % 194 == 96)
                    spare = std::make_unique<BufferCache>();
                roundTrip(cache, *spare, waiters);
                std::swap(owned, spare);
            }
        }
        // 64 entries at load factor 1/2 hold 32 runs: beyond 64 the
        // index has doubled at least twice.
        EXPECT_GT(peak, 128u) << "trial " << trial;
        EXPECT_GT(peakRuns, 64u) << "trial " << trial;

        BufferCache &cache = *owned;

        // Release every waiter: in arrival order, after any number of
        // round trips.
        for (auto &[key, b] : model.blocks) {
            if (b.waiters.empty())
                continue;
            std::vector<Pid> woken;
            cache.markValid(*cache.find(key), [&woken](Process &p) {
                woken.push_back(p.pid());
            });
            EXPECT_EQ(woken, b.waiters);
            b.waiters.clear();
            b.valid = true;
        }

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
    // The saved states really held I/O in flight.
    EXPECT_GT(savedFlushing, 100u);
    EXPECT_GT(savedWaiters, 100u);
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
