#ifndef PISO_TESTS_FS_REF_UTIL_HH
#define PISO_TESTS_FS_REF_UTIL_HH

/**
 * @file
 * Eager reference for the file system's placement.
 *
 * FileSystem places scattered files when they are first asked for,
 * replaying each run's draws from the position recorded at its
 * creation. The reference here is the allocator it replaces: every
 * file is placed when it is created, one draw at a time from the one
 * placement stream. test_filesystem_runs.cc asserts the two agree on
 * every file, on the stream's final position and on both cursors of
 * every disk.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/os/filesystem.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/random.hh"

namespace piso::testutil {

class EagerFileSystem
{
  public:
    explicit EagerFileSystem(std::uint64_t seed = 12345) : rng_(seed) {}

    void
    addDisk(DiskId disk, std::uint64_t totalSectors)
    {
        Disk &d = disks_[disk];
        d.totalSectors = totalSectors;
        d.metadataEnd = std::max<std::uint64_t>(totalSectors / 512, 64);
        d.nextFree = d.metadataEnd;
    }

    FileId
    createFile(DiskId disk, std::uint64_t bytes, FilePlacement placement)
    {
        return allocate(disk, bytes, placement, true);
    }

    FileId
    createExtent(DiskId disk, std::uint64_t bytes)
    {
        return allocate(disk, bytes, FilePlacement::Sequential, false);
    }

    const FileInfo &file(FileId id) const { return files_.at(id); }
    std::size_t fileCount() const { return files_.size(); }

    /** Free sectors after @p disk's next-fit frontier. */
    std::uint64_t
    freeSectors(DiskId disk) const
    {
        const Disk &d = disks_.at(disk);
        return d.totalSectors - d.nextFree;
    }

    /** Sectors the data zone of @p disk spans. */
    std::uint64_t
    dataSpan(DiskId disk) const
    {
        const Disk &d = disks_.at(disk);
        return d.totalSectors - d.metadataEnd;
    }

    /** The image FileSystem::ckpt writes of this state when its first
     *  @p setupFiles files were made by the set-up replay: the
     *  placement stream, each disk's two cursors, the set-up file
     *  count and every later file. */
    std::string
    image(std::size_t setupFiles)
    {
        CkptWriter w;
        CkptIo io(w);
        rng_.ckpt(io);
        io.expect(disks_.size(), "file-system disk");
        for (auto &[id, d] : disks_) {
            io.u64(d.nextFree);
            io.u64(d.nextMetadata);
        }
        io.expect(setupFiles, "set-up file");
        io.count(files_.size() - setupFiles);
        for (std::size_t i = setupFiles; i < files_.size(); ++i) {
            FileInfo &f = files_[i];
            io.i64(f.disk);
            io.u64(f.startSector);
            io.u64(f.sectors);
            io.u64(f.metadataSector);
            io.u64(f.bytes);
        }
        return w.image(0);
    }

  private:
    struct Disk
    {
        std::uint64_t totalSectors = 0;
        std::uint64_t nextFree = 0;
        std::uint64_t nextMetadata = 0;
        std::uint64_t metadataEnd = 0;
    };

    FileId
    allocate(DiskId disk, std::uint64_t bytes, FilePlacement placement,
             bool withMetadata)
    {
        Disk &d = disks_.at(disk);
        std::uint64_t blocks = (bytes + kBlockBytes - 1) / kBlockBytes;
        if (blocks == 0)
            blocks = 1;
        const std::uint64_t sectors = blocks * kSectorsPerBlock;

        std::uint64_t start;
        if (placement == FilePlacement::Scattered) {
            const std::uint64_t span = d.totalSectors - d.metadataEnd;
            start = d.metadataEnd;
            if (sectors < span) {
                start += (rng_.uniformInt(span - sectors) /
                          kSectorsPerBlock) *
                         kSectorsPerBlock;
            }
        } else {
            start = d.nextFree;
            d.nextFree += sectors;
        }

        FileInfo info;
        info.id = static_cast<FileId>(files_.size());
        info.disk = disk;
        info.startSector = start;
        info.sectors = sectors;
        info.bytes = bytes;
        if (withMetadata) {
            if (d.nextMetadata >= d.metadataEnd)
                d.nextMetadata = 0;
            info.metadataSector = d.nextMetadata++;
        }
        files_.push_back(info);
        return info.id;
    }

    static constexpr std::uint64_t kBlockBytes = 4096;
    static constexpr std::uint64_t kSectorsPerBlock = 8;

    Rng rng_;
    std::map<DiskId, Disk> disks_;
    std::vector<FileInfo> files_;
};

} // namespace piso::testutil

#endif // PISO_TESTS_FS_REF_UTIL_HH
