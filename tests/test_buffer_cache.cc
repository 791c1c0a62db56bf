/**
 * @file
 * Unit tests for buffer-cache bookkeeping.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "src/os/buffer_cache.hh"
#include "src/os/process.hh"
#include "src/workload/synthetic.hh"

using namespace piso;

namespace {
const BlockKey kA{1, 0};
const BlockKey kB{1, 1};
const BlockKey kC{2, 0};

/** A process for the waiter lists (the cache never runs it). */
std::unique_ptr<Process>
makeProc(Pid pid)
{
    return std::make_unique<Process>(
        pid, 2, kNoJob, "p" + std::to_string(pid),
        std::make_unique<ScriptBehavior>(std::vector<Action>{}), Rng(1));
}
} // namespace

TEST(BufferCache, FindMissReturnsNull)
{
    BufferCache c;
    EXPECT_EQ(c.find(kA), nullptr);
    EXPECT_EQ(c.size(), 0u);
}

TEST(BufferCache, InsertAndFind)
{
    BufferCache c;
    c.insert(kA, 2, true);
    CacheBlock *blk = c.find(kA);
    ASSERT_NE(blk, nullptr);
    EXPECT_TRUE(blk->valid);
    EXPECT_FALSE(blk->dirty);
    EXPECT_EQ(blk->owner, 2);
    EXPECT_EQ(c.size(), 1u);
    EXPECT_EQ(c.pagesOf(2), 1u);
}

TEST(BufferCache, RemoveUncounts)
{
    BufferCache c;
    c.insert(kA, 2, true);
    c.remove(kA);
    EXPECT_EQ(c.find(kA), nullptr);
    EXPECT_EQ(c.size(), 0u);
    EXPECT_EQ(c.pagesOf(2), 0u);
}

TEST(BufferCache, DirtyCountTransitions)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    CacheBlock &b = c.insert(kB, 2, true);
    c.markDirty(a);
    c.markDirty(a); // idempotent
    c.markDirty(b);
    EXPECT_EQ(c.dirtyCount(), 2u);
    c.markClean(a);
    EXPECT_EQ(c.dirtyCount(), 1u);
    c.markClean(a); // idempotent
    EXPECT_EQ(c.dirtyCount(), 1u);
}

TEST(BufferCache, RemoveDirtyAdjustsCount)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    c.markDirty(a);
    c.remove(kA);
    EXPECT_EQ(c.dirtyCount(), 0u);
}

TEST(BufferCache, StealCleanPicksLru)
{
    BufferCache c;
    c.insert(kA, 2, true);
    c.insert(kB, 2, true);
    c.touch(*c.find(kA)); // A is now most recent; B is LRU
    SpuId owner = kNoSpu;
    EXPECT_TRUE(c.stealClean(2, owner));
    EXPECT_EQ(owner, 2);
    EXPECT_EQ(c.find(kB), nullptr); // B was stolen
    EXPECT_NE(c.find(kA), nullptr);
}

TEST(BufferCache, StealCleanSkipsDirtyAndFlushing)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    CacheBlock &b = c.insert(kB, 2, true);
    c.markDirty(a);
    b.flushing = true;
    SpuId owner = kNoSpu;
    EXPECT_FALSE(c.stealClean(2, owner));
}

TEST(BufferCache, StealCleanSkipsInvalid)
{
    BufferCache c;
    c.insert(kA, 2, false); // in flight
    SpuId owner = kNoSpu;
    EXPECT_FALSE(c.stealClean(2, owner));
}

TEST(BufferCache, StealCleanRespectsVictimSpu)
{
    BufferCache c;
    c.insert(kA, 2, true);
    c.insert(kC, 3, true);
    SpuId owner = kNoSpu;
    EXPECT_TRUE(c.stealClean(3, owner));
    EXPECT_EQ(owner, 3);
    EXPECT_NE(c.find(kA), nullptr);
    EXPECT_EQ(c.find(kC), nullptr);
}

TEST(BufferCache, StealCleanAnySpu)
{
    BufferCache c;
    c.insert(kA, 2, true);
    SpuId owner = kNoSpu;
    EXPECT_TRUE(c.stealClean(kNoSpu, owner));
    EXPECT_EQ(owner, 2);
}

TEST(BufferCache, MarkValidRunsWaiters)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, false);
    const auto p = makeProc(1);
    c.addWaiter(a, *p);
    c.addWaiter(a, *p);
    EXPECT_TRUE(c.hasWaiters(a));
    int woken = 0;
    c.markValid(a, [&](Process &q) {
        EXPECT_EQ(&q, p.get());
        ++woken;
    });
    EXPECT_EQ(woken, 2);
    EXPECT_TRUE(a.valid);
    EXPECT_FALSE(c.hasWaiters(a));
}

TEST(BufferCache, WaitersWakeInArrivalOrder)
{
    // Two processes wait on one block: the first to arrive wakes
    // first. A second block's list is independent of the first's.
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, false);
    CacheBlock &b = c.insert(kB, 2, false);
    const auto p1 = makeProc(1);
    const auto p2 = makeProc(2);
    const auto p3 = makeProc(3);
    c.addWaiter(a, *p2);
    c.addWaiter(b, *p3);
    c.addWaiter(a, *p1);
    std::vector<Pid> order;
    c.markValid(a, [&](Process &q) { order.push_back(q.pid()); });
    EXPECT_EQ(order, (std::vector<Pid>{2, 1}));
    order.clear();
    c.markValid(b, [&](Process &q) { order.push_back(q.pid()); });
    EXPECT_EQ(order, (std::vector<Pid>{3}));
}

TEST(BufferCache, WakeMayQueueNewWaiters)
{
    // The first wake queues a waiter on another block (reusing the
    // pool node just released); the rest of the detached list still
    // wakes in order, and the new waiter stays on its own block.
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, false);
    CacheBlock &b = c.insert(kB, 2, false);
    const auto p1 = makeProc(1);
    const auto p2 = makeProc(2);
    const auto p3 = makeProc(3);
    c.addWaiter(a, *p1);
    c.addWaiter(a, *p2);
    std::vector<Pid> order;
    c.markValid(a, [&](Process &q) {
        order.push_back(q.pid());
        if (q.pid() == 1)
            c.addWaiter(b, *p3);
    });
    EXPECT_EQ(order, (std::vector<Pid>{1, 2}));
    EXPECT_FALSE(c.hasWaiters(a));
    order.clear();
    c.markValid(b, [&](Process &q) { order.push_back(q.pid()); });
    EXPECT_EQ(order, (std::vector<Pid>{3}));
}

TEST(BufferCache, SetOwnerMovesPerSpuCounts)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    c.setOwner(a, kSharedSpu);
    EXPECT_EQ(c.pagesOf(2), 0u);
    EXPECT_EQ(c.pagesOf(kSharedSpu), 1u);
    EXPECT_EQ(a.owner, kSharedSpu);
}

TEST(BufferCache, ForEachDirtyVisitsOnlyFlushable)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, true);
    CacheBlock &b = c.insert(kB, 2, true);
    CacheBlock &x = c.insert(kC, 3, false);
    c.markDirty(a);
    c.markDirty(b);
    b.flushing = true;
    c.markDirty(x); // dirty but invalid: not flushable
    int visited = 0;
    c.forEachDirty([&](CacheBlock &blk) {
        ++visited;
        EXPECT_EQ(blk.key, kA);
    });
    EXPECT_EQ(visited, 1);
}

TEST(BufferCache, DuplicateInsertPanics)
{
    BufferCache c;
    c.insert(kA, 2, true);
    EXPECT_DEATH(c.insert(kA, 2, true), "duplicate");
}

TEST(BufferCache, NegativeFileInsertPanics)
{
    // kNoFile marks an empty index entry: a block filed under it would
    // be silently lost.
    BufferCache c;
    EXPECT_DEATH(c.insert(BlockKey{kNoFile, 3}, 2, true), "never negative");
}

TEST(BufferCache, RemoveWithWaitersPanics)
{
    BufferCache c;
    CacheBlock &a = c.insert(kA, 2, false);
    const auto p = makeProc(1);
    c.addWaiter(a, *p);
    EXPECT_DEATH(c.remove(kA), "waiters");
}

// The index is keyed by runs of 16 blocks, (file, block >> 4).

TEST(BufferCache, BlocksAcrossRunBoundariesAreIndependent)
{
    BufferCache c;
    const std::uint64_t blocks[] = {15, 16, 31, 32};
    for (std::uint64_t b : blocks)
        c.insert(BlockKey{1, b}, 2, true);
    EXPECT_EQ(c.liveRuns(), 3u); // 16 and 31 share a run
    for (std::uint64_t b : blocks) {
        const CacheBlock *blk = c.find(BlockKey{1, b});
        ASSERT_NE(blk, nullptr) << "block " << b;
        EXPECT_EQ(blk->key, (BlockKey{1, b}));
    }
    c.remove(BlockKey{1, 16});
    EXPECT_EQ(c.find(BlockKey{1, 16}), nullptr);
    EXPECT_NE(c.find(BlockKey{1, 15}), nullptr);
    EXPECT_NE(c.find(BlockKey{1, 31}), nullptr);
    EXPECT_EQ(c.liveRuns(), 3u);
    c.remove(BlockKey{1, 31});
    EXPECT_EQ(c.liveRuns(), 2u);
    EXPECT_NE(c.find(BlockKey{1, 32}), nullptr);
}

TEST(BufferCache, UncachedBlockInLiveRunMisses)
{
    BufferCache c;
    c.insert(BlockKey{1, 3}, 2, true);
    EXPECT_EQ(c.find(BlockKey{1, 0}), nullptr);
    EXPECT_EQ(c.find(BlockKey{1, 4}), nullptr);
    EXPECT_EQ(c.find(BlockKey{1, 15}), nullptr);
    EXPECT_NE(c.find(BlockKey{1, 3}), nullptr);
}

TEST(BufferCache, EmptiedRunIsFreedAndReused)
{
    BufferCache c;
    c.insert(BlockKey{1, 0}, 2, true);
    c.insert(BlockKey{1, 1}, 2, true);
    c.remove(BlockKey{1, 0});
    EXPECT_EQ(c.liveRuns(), 1u);
    c.remove(BlockKey{1, 1});
    EXPECT_EQ(c.liveRuns(), 0u);
    EXPECT_EQ(c.find(BlockKey{1, 1}), nullptr);

    // A new run takes the freed record, which names no stale block.
    c.insert(BlockKey{7, 40}, 3, true);
    EXPECT_EQ(c.runRecords(), 1u);
    EXPECT_EQ(c.liveRuns(), 1u);
    EXPECT_EQ(c.find(BlockKey{1, 1}), nullptr);
    EXPECT_EQ(c.find(BlockKey{7, 33}), nullptr);
    ASSERT_NE(c.find(BlockKey{7, 40}), nullptr);
    EXPECT_EQ(c.find(BlockKey{7, 40})->owner, 3);
}

TEST(BufferCache, SameRunOfTwoFilesDoesNotCollide)
{
    BufferCache c;
    CacheBlock &a = c.insert(BlockKey{1, 5}, 2, true);
    CacheBlock &b = c.insert(BlockKey{2, 5}, 3, true);
    EXPECT_EQ(c.liveRuns(), 2u);
    EXPECT_EQ(c.find(BlockKey{1, 5}), &a);
    EXPECT_EQ(c.find(BlockKey{2, 5}), &b);
    EXPECT_EQ(c.find(BlockKey{2, 6}), nullptr);
    c.remove(BlockKey{1, 5});
    EXPECT_EQ(c.find(BlockKey{1, 5}), nullptr);
    EXPECT_EQ(c.find(BlockKey{2, 5}), &b);
}

TEST(BufferCache, BlocksNearTheTopOfTheRange)
{
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max();
    BufferCache c;
    c.insert(BlockKey{1, top}, 2, true);
    c.insert(BlockKey{1, top - 15}, 2, true); // same run as top
    c.insert(BlockKey{1, top - 16}, 2, true); // the run before
    EXPECT_EQ(c.liveRuns(), 2u);
    EXPECT_EQ(c.find(BlockKey{1, top - 1}), nullptr);
    c.remove(BlockKey{1, top});
    c.remove(BlockKey{1, top - 15});
    EXPECT_EQ(c.liveRuns(), 1u);
    EXPECT_EQ(c.find(BlockKey{1, top}), nullptr);
    ASSERT_NE(c.find(BlockKey{1, top - 16}), nullptr);
    EXPECT_EQ(c.find(BlockKey{1, top - 16})->key.block, top - 16);
}
