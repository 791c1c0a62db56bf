#ifndef PISO_TESTS_FLUSH_REF_UTIL_HH
#define PISO_TESTS_FLUSH_REF_UTIL_HH

/**
 * @file
 * The old dirty-block order, kept as a reference for twin tests.
 *
 * BufferCache::forEachDirty used to sort the flushable blocks by
 * (file, block) before every walk. bdflush then bucketed that walk by
 * disk and sorted each bucket again by sector alone, and reclaimPage
 * took the victim's first block in the key-ordered walk. The cache now
 * walks its dirty list unordered, bdflush sorts each disk's blocks
 * once by (sector, file, block), and the victim's block is a min-key
 * scan. These functions reproduce the old order so the tests can show
 * that the new code issues the same requests and picks the same
 * victims.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "src/os/buffer_cache.hh"
#include "src/os/filesystem.hh"

namespace piso::test {

/** The flushable blocks (dirty, valid, not flushing) in ascending key
 *  order: the walk forEachDirty made. */
inline std::vector<CacheBlock *>
sortedFlushable(BufferCache &cache)
{
    std::vector<CacheBlock *> blocks;
    cache.forEachFlushable([&](CacheBlock &b) { blocks.push_back(&b); });
    std::sort(blocks.begin(), blocks.end(),
              [](const CacheBlock *a, const CacheBlock *b) {
                  return a->key < b->key;
              });
    return blocks;
}

/** The victim's dirty block as reclaimPage found it: the first block
 *  of the key-ordered walk owned by @p victim with no waiters. */
inline CacheBlock *
firstDirtyRef(BufferCache &cache, SpuId victim)
{
    for (CacheBlock *b : sortedFlushable(cache)) {
        if (b->owner == victim && !cache.hasWaiters(*b))
            return b;
    }
    return nullptr;
}

/** One delayed-write request. */
struct FlushRequest
{
    DiskId disk = 0;
    std::uint64_t startSector = 0;
    std::uint32_t sectors = 0;
    std::vector<std::pair<SpuId, std::uint32_t>> charges; //!< by SPU

    friend bool operator==(const FlushRequest &,
                           const FlushRequest &) = default;
};

/** The requests the old bdflush made of the cache's flushable blocks
 *  on @p disks disks, in issue order: the key-ordered walk bucketed by
 *  disk, each bucket sorted by sector, contiguous sectors coalesced
 *  into requests of at most @p maxIoSectors. */
inline std::vector<FlushRequest>
flushPlanRef(BufferCache &cache, const FileSystem &fs, std::size_t disks,
             std::uint32_t maxIoSectors)
{
    struct Item
    {
        std::uint64_t sector;
        const CacheBlock *blk;
    };
    std::vector<std::vector<Item>> perDisk(disks);
    for (const CacheBlock *b : sortedFlushable(cache)) {
        const FileInfo &f = fs.file(b->key.file);
        perDisk.at(static_cast<std::size_t>(f.disk))
            .push_back(Item{fs.blockSector(b->key.file, b->key.block), b});
    }
    const std::uint32_t spb = fs.sectorsPerBlock();
    std::vector<FlushRequest> plan;
    for (std::size_t d = 0; d < disks; ++d) {
        std::vector<Item> &items = perDisk[d];
        std::sort(items.begin(), items.end(),
                  [](const Item &x, const Item &y) {
                      return x.sector < y.sector;
                  });
        std::size_t i = 0;
        while (i < items.size()) {
            std::size_t j = i + 1;
            while (j < items.size() &&
                   items[j].sector == items[j - 1].sector + spb &&
                   (j - i + 1) * spb <= maxIoSectors)
                ++j;
            std::map<SpuId, std::uint32_t> charges;
            for (std::size_t k = i; k < j; ++k)
                charges[items[k].blk->owner] += spb;
            plan.push_back(FlushRequest{
                static_cast<DiskId>(d), items[i].sector,
                static_cast<std::uint32_t>((j - i) * spb),
                {charges.begin(), charges.end()}});
            i = j;
        }
    }
    return plan;
}

} // namespace piso::test

#endif // PISO_TESTS_FLUSH_REF_UTIL_HH
