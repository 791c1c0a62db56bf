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
 * extent allocation and a metadata sector per file.
 */

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
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

/** One file: a single contiguous extent plus a metadata sector. Its
 *  name lives in the FileSystem's name arena (FileSystem::fileName). */
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
    FileId createFile(std::string_view name, DiskId disk,
                      std::uint64_t bytes,
                      FilePlacement placement = FilePlacement::Sequential);

    /**
     * Reserve a raw extent (e.g. per-SPU swap space) of @p bytes.
     * Returned as a FileInfo with no metadata sector semantics.
     */
    FileId createExtent(std::string_view name, DiskId disk,
                        std::uint64_t bytes,
                        FilePlacement placement = FilePlacement::Sequential);

    const FileInfo &file(FileId id) const;

    /** Name of file @p id. The view is valid until the next file is
     *  created or the table is loaded. */
    std::string_view fileName(FileId id) const;

    std::uint32_t blockBytes() const { return blockBytes_; }
    std::uint32_t sectorsPerBlock() const { return sectorsPerBlock_; }

    /** Number of blocks spanned by [offset, offset+bytes) in @p id. */
    std::uint64_t blockCount(FileId id, std::uint64_t offset,
                             std::uint64_t bytes) const;

    /** First block index covering @p offset. */
    std::uint64_t blockOf(std::uint64_t offset) const;

    /** Absolute disk sector of block @p blockNo of file @p id. */
    std::uint64_t blockSector(FileId id, std::uint64_t blockNo) const;

    /** Free sectors remaining on @p disk. */
    std::uint64_t freeSectors(DiskId disk) const;

    /** @name Checkpoint — full file table, allocator pointers and the
     *  scattered-placement RNG (files are created at run time, so the
     *  table cannot be replayed from configuration alone). */
    /// @{
    void save(CkptWriter &w) const;
    void load(CkptReader &r);
    /// @}

  private:
    struct DiskSpace
    {
        std::uint64_t totalSectors = 0;
        std::uint64_t nextFree = 0;       //!< next-fit pointer
        std::uint64_t nextMetadata = 0;   //!< metadata zone pointer
        std::uint64_t metadataEnd = 0;
        std::uint64_t allocated = 0;
    };

    FileId allocate(std::string_view name, DiskId disk,
                    std::uint64_t bytes, FilePlacement placement,
                    bool withMetadata);

    /** Files in the table. */
    std::size_t fileCount() const;

    /** Index of @p id in the table; panics on an unknown id. */
    std::size_t index(FileId id) const;

    /** Append @p info, named @p name, as the next file. */
    void addFile(const FileInfo &info, std::string_view name);

    // piso-lint: allow(checkpoint-field-coverage) -- geometry
    // configuration, identical after deterministic setup replay.
    std::uint32_t sectorBytes_;
    // piso-lint: allow(checkpoint-field-coverage) -- geometry
    // configuration, identical after deterministic setup replay.
    std::uint32_t blockBytes_;
    // piso-lint: allow(checkpoint-field-coverage) -- derived from the
    // two geometry fields above at construction.
    std::uint32_t sectorsPerBlock_;
    Rng rng_;
    std::map<DiskId, DiskSpace> disks_;

    /** Records per chunk of the file table. */
    static constexpr std::size_t kChunkFiles = 4096;

    /** The file table in id order, kChunkFiles records per chunk.
     *  Growing it never moves a record, so a set-up replay that lays
     *  out a few hundred thousand files writes each record once
     *  instead of copying the table at every doubling. */
    std::vector<std::vector<FileInfo>> files_;

    /** Every file's name back to back, in id order; file i's name
     *  ends at nameEnds_[i] and starts where file i-1's ends. One
     *  arena instead of a string per file keeps FileInfo trivially
     *  copyable. */
    // piso-lint: allow(checkpoint-field-coverage) -- imaged name by
    // name through fileName() in save; load rebuilds it via addFile().
    std::string names_;
    // piso-lint: allow(checkpoint-field-coverage) -- imaged name by
    // name through fileName() in save; load rebuilds it via addFile().
    std::vector<std::size_t> nameEnds_;
};

} // namespace piso

#endif // PISO_OS_FILESYSTEM_HH
