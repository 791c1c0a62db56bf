#ifndef PISO_OS_FILESYSTEM_HH
#define PISO_OS_FILESYSTEM_HH

/**
 * @file
 * A minimal extent-based file system layout.
 *
 * The disk experiments depend on *where* data sits: large files are
 * contiguous ("the sectors of a single file are often laid out
 * contiguously", Section 3.3), so a big copy can monopolise a C-SCAN
 * disk; pmake touches many small files scattered across the disk plus
 * one repeatedly-rewritten metadata sector. This module provides just
 * enough layout to reproduce those patterns: contiguous or scattered
 * extent allocation and a metadata sector per file. Files have ids,
 * not names: nothing in the model looks a file up by name.
 *
 * The file table is set-up state. The set-up replay creates the same
 * files in the same order from the configuration, so a checkpoint
 * images only what the replay cannot rebuild: the allocator cursors,
 * the placement RNG, the number of set-up files (checked on load) and
 * the files created after endSetup(), which today are the kernel's
 * swap extents.
 *
 * Scattered files are placed when something first asks where they
 * are. A pmake lays out thousands of sources and objects, and a run
 * touches a few percent of them. Creating a run of scattered files
 * hands out its ids, moves the metadata cursor and advances the
 * placement RNG past the run's draws (Rng::skipUniformInt), and
 * records the RNG's position at the run's first file. The first file()
 * call on an unplaced id replays the run's draws from where placement
 * stopped up to the id's batch. Every placement, and every later
 * draw, is what eager placement in creation order would have made. The placed prefix of
 * each run is derived state: it is not imaged, and a restore's replay
 * rebuilds it on demand.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "src/sim/checkpoint.hh"
#include "src/sim/ids.hh"
#include "src/sim/random.hh"

namespace piso {

/** Placement policy for a new file's extent. */
enum class FilePlacement
{
    Sequential,  //!< next-fit after the previous allocation (contiguous
                 //!< stream of allocations packs together)
    Scattered,   //!< pseudo-random position on the disk (small source
                 //!< files spread around, like an aged file system)
};

/** One file: a single contiguous extent plus a metadata sector. */
struct FileInfo
{
    FileId id = kNoFile;
    DiskId disk = 0;
    std::uint64_t startSector = 0;
    std::uint64_t sectors = 0;
    std::uint64_t metadataSector = 0;
    std::uint64_t bytes = 0;
};

/**
 * Extent allocator and file table for all disks in the machine.
 * Blocks are fixed-size (default 4 KB = 8 sectors of 512 B).
 */
class FileSystem
{
  public:
    /**
     * @param sectorBytes Disk sector size (must match the disk model).
     * @param blockBytes  File-system block size.
     * @param seed        Seed for scattered placement.
     */
    FileSystem(std::uint32_t sectorBytes = 512,
               std::uint32_t blockBytes = 4096,
               std::uint64_t seed = 12345);

    /** The table points into its own slabs: moved, never copied. */
    FileSystem(const FileSystem &) = delete;
    FileSystem &operator=(const FileSystem &) = delete;
    FileSystem(FileSystem &&) = default;
    FileSystem &operator=(FileSystem &&) = default;

    /** Declare a disk and its capacity; reserves a small metadata zone
     *  at the front. Must be called before creating files on it. */
    void addDisk(DiskId disk, std::uint64_t totalSectors);

    /**
     * Create a file of @p bytes on @p disk.
     * @return the new file's id.
     */
    FileId createFile(DiskId disk, std::uint64_t bytes,
                      FilePlacement placement = FilePlacement::Sequential);

    /**
     * Create @p count files on @p disk with consecutive ids, file k of
     * @p bytes[k % bytes.size()] bytes: the same files as @p count
     * createFile() calls in that order.
     * @return the first file's id.
     */
    FileId createFiles(DiskId disk, std::span<const std::uint64_t> bytes,
                       std::size_t count, FilePlacement placement);

    /**
     * Reserve a raw extent (e.g. per-SPU swap space) of @p bytes after
     * the next-fit frontier. Returned as a FileInfo with no metadata
     * sector semantics.
     */
    FileId createExtent(DiskId disk, std::uint64_t bytes);

    /** File @p id; the first call on a scattered file places it, with
     *  every unplaced file of its run before it and the rest of its
     *  batch (kPlaceBatch). Not safe to call from two threads at once,
     *  even on a const FileSystem. */
    const FileInfo &
    file(FileId id) const
    {
        const std::size_t i = static_cast<std::size_t>(id);
        if (id >= 0 && i < fileCount_) {
            if (const FileInfo *chunk = chunks_[i / kChunkFiles];
                chunk && chunk[i % kChunkFiles].id == id)
                return chunk[i % kChunkFiles];
        }
        return place(id);
    }

    /** Files in the table; ids run from 0 to fileCount() - 1. */
    std::size_t fileCount() const { return fileCount_; }

    /** A first touch of an unplaced scattered file places its run
     *  from where placement stopped up to the end of the file's batch:
     *  the run's files in groups of this many from its start. Workers
     *  ask for their files in order, so one slow-path call places the
     *  next several. */
    static constexpr std::size_t kPlaceBatch = 32;

    /** Files whose placement has been computed: every sequential file
     *  and extent, and the placed prefix of each scattered run. */
    std::size_t placedFiles() const { return placedFiles_; }

    std::uint32_t blockBytes() const { return blockBytes_; }
    std::uint32_t sectorsPerBlock() const { return sectorsPerBlock_; }

    /** Number of blocks spanned by [offset, offset+bytes) in @p id. */
    std::uint64_t blockCount(FileId id, std::uint64_t offset,
                             std::uint64_t bytes) const;

    /** Absolute disk sector of block @p blockNo of file @p id. */
    std::uint64_t blockSector(FileId id, std::uint64_t blockNo) const;

    /** Free sectors remaining on @p disk. */
    std::uint64_t freeSectors(DiskId disk) const;

    /** The set-up replay is over: the files made so far are rebuilt by
     *  every replay, so a checkpoint images only the later ones. */
    void endSetup() { setupFiles_ = fileCount(); }

    /** Checkpoint: the allocator cursors, the scattered-placement RNG
     *  and the files created after endSetup(). A load runs on a table
     *  the replay has just rebuilt: it checks the set-up file count
     *  against the image and appends the later files. */
    void ckpt(CkptIo &io);

  private:
    /** A declared disk; metadataEnd is 0 for an id never added. */
    struct DiskSpace
    {
        std::uint64_t totalSectors = 0;
        std::uint64_t nextFree = 0;       //!< next-fit pointer
        std::uint64_t nextMetadata = 0;   //!< metadata zone pointer
        std::uint64_t metadataEnd = 0;
    };

    /** A file size of a scattered run, and the placement draw's bound
     *  for it: 0 for a file filling the whole data zone (no draw). */
    struct RunSize
    {
        std::uint64_t bytes = 0;
        std::uint64_t sectors = 0;
        std::uint64_t bound = 0;
    };

    /**
     * Consecutive scattered files whose placements are computed on
     * first use. File first + k has size sizes[k % sizes.size()] and
     * metadata sector (metaStart + k) % metadataEnd, and its start is
     * the k-th placement draw after the RNG position the run was
     * created at.
     */
    struct ScatterRun
    {
        std::size_t first = 0;
        std::size_t count = 0;
        DiskId disk = 0;
        std::vector<RunSize> sizes;
        std::uint64_t metaStart = 0;
        Rng rng;                //!< position at file first + placed
        std::size_t placed = 0; //!< files placed so far
        Rng end;                //!< position after the run's draws
    };

    /** @p disk's space, or nullptr if it was never added. */
    const DiskSpace *findDisk(DiskId disk) const;

    /** @p disk's space; fatal if it was never added. */
    DiskSpace &diskSpace(DiskId disk);

    /** Sectors of a file of @p bytes: whole blocks, at least one. */
    std::uint64_t sectorsFor(std::uint64_t bytes) const;

    /** Place a file at the next-fit frontier now. */
    FileId allocate(DiskId disk, std::uint64_t bytes, bool withMetadata);

    /** Hand out the next @p n ids, unplaced. */
    void addIds(std::size_t n);

    /** Record @p info as file info.id. */
    void store(const FileInfo &info) const;

    /** file()'s slow path: panic on an unknown @p id, else place the
     *  run holding it up to the end of its batch. */
    const FileInfo &place(FileId id) const;

    std::uint32_t sectorBytes_;
    std::uint32_t blockBytes_;
    std::uint32_t sectorsPerBlock_;
    Rng rng_;
    std::vector<DiskSpace> disks_;  //!< indexed by DiskId

    /** Records per chunk of the file table. */
    static constexpr std::size_t kChunkFiles = 256;

    /** Chunks per slab of chunk storage. */
    static constexpr std::size_t kSlabChunks = 16;

    /** The file table in id order, kChunkFiles records per chunk, or
     *  nullptr for a chunk with no file placed yet; an unplaced record
     *  has id kNoFile. Growing the table never moves a record. */
    mutable std::vector<FileInfo *> chunks_;

    /** Storage for the chunks, kSlabChunks to a slab in the order the
     *  chunks are first written: each slab is reserved whole and grows
     *  by one chunk at a time within that capacity, so it never moves
     *  and a slab costs one allocation. A small run so allocates one
     *  160 KiB block, as the eager table did: freeing a block that size
     *  makes glibc consolidate its fast bins at teardown, where a run
     *  of 10 KiB chunks left that work to the next simulation's
     *  constructor (docs/performance.md, "Placement on first use"). */
    mutable std::vector<std::vector<FileInfo>> slabs_;
    std::size_t fileCount_ = 0;
    mutable std::size_t placedFiles_ = 0;

    /** Scattered runs in id order. */
    mutable std::vector<ScatterRun> runs_;

    /** Files the set-up replay made (see endSetup()). */
    std::size_t setupFiles_ = 0;
};

} // namespace piso

#endif // PISO_OS_FILESYSTEM_HH
