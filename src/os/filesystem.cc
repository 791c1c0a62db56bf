#include "src/os/filesystem.hh"

#include <algorithm>
#include <string>

#include "src/util/error.hh"
#include "src/util/log.hh"

namespace piso {

FileSystem::FileSystem(std::uint32_t sectorBytes, std::uint32_t blockBytes,
                       std::uint64_t seed)
    : sectorBytes_(sectorBytes), blockBytes_(blockBytes), rng_(seed)
{
    if (sectorBytes_ == 0 || blockBytes_ == 0 ||
        blockBytes_ % sectorBytes_ != 0) {
        PISO_FATAL("block size ", blockBytes_,
                   " must be a multiple of sector size ", sectorBytes_);
    }
    sectorsPerBlock_ = blockBytes_ / sectorBytes_;
}

void
FileSystem::addDisk(DiskId disk, std::uint64_t totalSectors)
{
    if (disk < 0)
        PISO_FATAL("invalid disk id ", disk, " for the file system");
    if (findDisk(disk))
        PISO_FATAL("disk ", disk, " already added to the file system");
    if (static_cast<std::size_t>(disk) >= disks_.size())
        disks_.resize(static_cast<std::size_t>(disk) + 1);
    DiskSpace &space = disks_[static_cast<std::size_t>(disk)];
    space.totalSectors = totalSectors;
    // Reserve ~0.2% at the front as the metadata zone (inodes,
    // directories) so metadata writes seek away from data extents.
    space.metadataEnd = std::max<std::uint64_t>(totalSectors / 512, 64);
    space.nextMetadata = 0;
    space.nextFree = space.metadataEnd;
}

const FileSystem::DiskSpace *
FileSystem::findDisk(DiskId disk) const
{
    if (disk < 0 || static_cast<std::size_t>(disk) >= disks_.size())
        return nullptr;
    const DiskSpace &space = disks_[static_cast<std::size_t>(disk)];
    return space.metadataEnd == 0 ? nullptr : &space;
}

FileId
FileSystem::allocate(DiskId disk, std::uint64_t bytes,
                     FilePlacement placement, bool withMetadata)
{
    if (!findDisk(disk))
        PISO_FATAL("unknown disk ", disk, " in the file system");
    DiskSpace &space = disks_[static_cast<std::size_t>(disk)];

    std::uint64_t blocks = (bytes + blockBytes_ - 1) / blockBytes_;
    if (blocks == 0)
        blocks = 1;
    const std::uint64_t sectors = blocks * sectorsPerBlock_;

    std::uint64_t start;
    if (placement == FilePlacement::Scattered) {
        // Pseudo-random placement, retrying a few times on collision
        // with the next-fit frontier region.
        const std::uint64_t span = space.totalSectors - space.metadataEnd;
        if (sectors > span)
            PISO_FATAL("file of ", bytes, " bytes larger than disk ",
                       disk);
        // A file filling the whole data zone has one place to go; it
        // takes it without a draw, so no other file's draws move.
        start = space.metadataEnd;
        if (sectors < span) {
            start += (rng_.uniformInt(span - sectors) / sectorsPerBlock_) *
                     sectorsPerBlock_;
        }
    } else {
        if (space.nextFree + sectors > space.totalSectors)
            PISO_FATAL("disk ", disk, " out of space for a file of ",
                       bytes, " bytes");
        start = space.nextFree;
        space.nextFree += sectors;
    }

    FileInfo info;
    info.id = static_cast<FileId>(fileCount());
    info.disk = disk;
    info.startSector = start;
    info.sectors = sectors;
    info.bytes = bytes;
    if (withMetadata) {
        if (space.nextMetadata >= space.metadataEnd)
            space.nextMetadata = 0; // metadata sectors are reused
        info.metadataSector = space.nextMetadata++;
    }
    addFile(info);
    return info.id;
}

std::size_t
FileSystem::fileCount() const
{
    return files_.empty()
               ? 0
               : (files_.size() - 1) * kChunkFiles + files_.back().size();
}

void
FileSystem::addFile(const FileInfo &info)
{
    if (files_.empty() || files_.back().size() == kChunkFiles) {
        files_.emplace_back();
        files_.back().reserve(kChunkFiles);
    }
    files_.back().push_back(info);
}

FileId
FileSystem::createFile(DiskId disk, std::uint64_t bytes,
                       FilePlacement placement)
{
    return allocate(disk, bytes, placement, true);
}

FileId
FileSystem::createExtent(DiskId disk, std::uint64_t bytes,
                         FilePlacement placement)
{
    return allocate(disk, bytes, placement, false);
}

std::size_t
FileSystem::index(FileId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= fileCount())
        PISO_PANIC("unknown file id ", id);
    return static_cast<std::size_t>(id);
}

const FileInfo &
FileSystem::file(FileId id) const
{
    const std::size_t i = index(id);
    return files_[i / kChunkFiles][i % kChunkFiles];
}

std::uint64_t
FileSystem::blockCount(FileId id, std::uint64_t offset,
                       std::uint64_t bytes) const
{
    const FileInfo &f = file(id);
    if (offset + bytes > f.sectors * sectorBytes_) {
        PISO_PANIC("access [", offset, ", +", bytes, ") beyond file ",
                   id);
    }
    if (bytes == 0)
        return 0;
    const std::uint64_t first = offset / blockBytes_;
    const std::uint64_t last = (offset + bytes - 1) / blockBytes_;
    return last - first + 1;
}

std::uint64_t
FileSystem::blockSector(FileId id, std::uint64_t blockNo) const
{
    const FileInfo &f = file(id);
    const std::uint64_t sector =
        f.startSector + blockNo * sectorsPerBlock_;
    if (sector >= f.startSector + f.sectors)
        PISO_PANIC("block ", blockNo, " beyond file ", id);
    return sector;
}

std::uint64_t
FileSystem::freeSectors(DiskId disk) const
{
    const DiskSpace *space = findDisk(disk);
    if (!space)
        PISO_FATAL("unknown disk ", disk, " in the file system");
    return space->totalSectors - space->nextFree;
}

void
FileSystem::ckpt(CkptIo &io)
{
    const auto reject = [](const char *what) {
        throw ConfigError(std::string("checkpoint image rejected: ") +
                          what);
    };

    rng_.ckpt(io);

    // The disks and their geometry come from the configuration; only
    // the two cursors move.
    io.expect(static_cast<std::size_t>(std::count_if(
                  disks_.begin(), disks_.end(),
                  [](const DiskSpace &s) { return s.metadataEnd != 0; })),
              "file-system disk");
    for (DiskSpace &space : disks_) {
        if (space.metadataEnd == 0)
            continue;
        io.u64(space.nextFree);
        io.u64(space.nextMetadata);
        if (io.loading() && (space.nextFree < space.metadataEnd ||
                             space.nextFree > space.totalSectors ||
                             space.nextMetadata > space.metadataEnd))
            reject("file-system cursor out of range");
    }

    // The replay has rebuilt the set-up's files; only the ones made
    // after it are imaged, each as the next id.
    io.expect(setupFiles_, "set-up file");
    if (io.loading() && fileCount() != setupFiles_)
        PISO_PANIC("file-system load expects the replayed set-up table (",
                   setupFiles_, " files), found ", fileCount());
    const std::size_t n = io.count(fileCount() - setupFiles_);
    for (std::size_t i = 0; i < n; ++i) {
        FileInfo f;
        if (!io.loading())
            f = file(static_cast<FileId>(setupFiles_ + i));
        io.i64(f.disk);
        io.u64(f.startSector);
        io.u64(f.sectors);
        io.u64(f.metadataSector);
        io.u64(f.bytes);
        if (!io.loading())
            continue;
        const DiskSpace *space = findDisk(f.disk);
        if (!space || f.startSector < space->metadataEnd ||
            f.startSector > space->totalSectors ||
            f.sectors > space->totalSectors - f.startSector ||
            f.metadataSector >= space->metadataEnd)
            reject("file extent outside the configured disks");
        f.id = static_cast<FileId>(fileCount());
        addFile(f);
    }
}

} // namespace piso
