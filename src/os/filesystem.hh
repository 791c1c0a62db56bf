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
 */

#include <cstdint>
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
     * Reserve a raw extent (e.g. per-SPU swap space) of @p bytes.
     * Returned as a FileInfo with no metadata sector semantics.
     */
    FileId createExtent(DiskId disk, std::uint64_t bytes,
                        FilePlacement placement = FilePlacement::Sequential);

    const FileInfo &file(FileId id) const;

    /** Files in the table; ids run from 0 to fileCount() - 1. */
    std::size_t fileCount() const;

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

    /** @p disk's space, or nullptr if it was never added. */
    const DiskSpace *findDisk(DiskId disk) const;

    FileId allocate(DiskId disk, std::uint64_t bytes,
                    FilePlacement placement, bool withMetadata);

    /** Index of @p id in the table; panics on an unknown id. */
    std::size_t index(FileId id) const;

    /** Append @p info as the next file. */
    void addFile(const FileInfo &info);

    std::uint32_t sectorBytes_;
    std::uint32_t blockBytes_;
    std::uint32_t sectorsPerBlock_;
    Rng rng_;
    std::vector<DiskSpace> disks_;  //!< indexed by DiskId

    /** Records per chunk of the file table. */
    static constexpr std::size_t kChunkFiles = 4096;

    /** The file table in id order, kChunkFiles records per chunk.
     *  Growing it never moves a record, so a set-up replay that lays
     *  out a few hundred thousand files writes each record once
     *  instead of copying the table at every doubling. */
    std::vector<std::vector<FileInfo>> files_;

    /** Files the set-up replay made (see endSetup()). */
    std::size_t setupFiles_ = 0;
};

} // namespace piso

#endif // PISO_OS_FILESYSTEM_HH
