#include "src/os/filesystem.hh"

#include <type_traits>

#include "src/util/log.hh"

namespace piso {

static_assert(std::is_trivially_copyable_v<FileInfo>,
              "FileInfo keeps names in the FileSystem arena");

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
    if (disks_.count(disk))
        PISO_FATAL("disk ", disk, " already added to the file system");
    DiskSpace space;
    space.totalSectors = totalSectors;
    // Reserve ~0.2% at the front as the metadata zone (inodes,
    // directories) so metadata writes seek away from data extents.
    space.metadataEnd = std::max<std::uint64_t>(totalSectors / 512, 64);
    space.nextMetadata = 0;
    space.nextFree = space.metadataEnd;
    disks_[disk] = space;
}

FileId
FileSystem::allocate(std::string_view name, DiskId disk,
                     std::uint64_t bytes, FilePlacement placement,
                     bool withMetadata)
{
    auto it = disks_.find(disk);
    if (it == disks_.end())
        PISO_FATAL("unknown disk ", disk, " for file '", name, "'");
    DiskSpace &space = it->second;

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
            PISO_FATAL("file '", name, "' larger than disk ", disk);
        // A file filling the whole data zone has one place to go; it
        // takes it without a draw, so no other file's draws move.
        start = space.metadataEnd;
        if (sectors < span) {
            start += (rng_.uniformInt(span - sectors) / sectorsPerBlock_) *
                     sectorsPerBlock_;
        }
    } else {
        if (space.nextFree + sectors > space.totalSectors)
            PISO_FATAL("disk ", disk, " out of space for '", name, "'");
        start = space.nextFree;
        space.nextFree += sectors;
    }
    space.allocated += sectors;

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
    addFile(info, name);
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
FileSystem::addFile(const FileInfo &info, std::string_view name)
{
    if (files_.empty() || files_.back().size() == kChunkFiles) {
        files_.emplace_back();
        files_.back().reserve(kChunkFiles);
    }
    files_.back().push_back(info);
    names_ += name;
    nameEnds_.push_back(names_.size());
}

FileId
FileSystem::createFile(std::string_view name, DiskId disk,
                       std::uint64_t bytes, FilePlacement placement)
{
    return allocate(name, disk, bytes, placement, true);
}

FileId
FileSystem::createExtent(std::string_view name, DiskId disk,
                         std::uint64_t bytes, FilePlacement placement)
{
    return allocate(name, disk, bytes, placement, false);
}

std::size_t
FileSystem::index(FileId id) const
{
    if (id < 0 || static_cast<std::size_t>(id) >= nameEnds_.size())
        PISO_PANIC("unknown file id ", id);
    return static_cast<std::size_t>(id);
}

const FileInfo &
FileSystem::file(FileId id) const
{
    const std::size_t i = index(id);
    return files_[i / kChunkFiles][i % kChunkFiles];
}

std::string_view
FileSystem::fileName(FileId id) const
{
    const std::size_t i = index(id);
    const std::size_t begin = i == 0 ? 0 : nameEnds_[i - 1];
    return std::string_view(names_).substr(begin, nameEnds_[i] - begin);
}

std::uint64_t
FileSystem::blockCount(FileId id, std::uint64_t offset,
                       std::uint64_t bytes) const
{
    const FileInfo &f = file(id);
    if (offset + bytes > f.sectors * sectorBytes_) {
        PISO_PANIC("access [", offset, ", +", bytes, ") beyond file '",
                   fileName(id), "'");
    }
    if (bytes == 0)
        return 0;
    const std::uint64_t first = offset / blockBytes_;
    const std::uint64_t last = (offset + bytes - 1) / blockBytes_;
    return last - first + 1;
}

std::uint64_t
FileSystem::blockOf(std::uint64_t offset) const
{
    return offset / blockBytes_;
}

std::uint64_t
FileSystem::blockSector(FileId id, std::uint64_t blockNo) const
{
    const FileInfo &f = file(id);
    const std::uint64_t sector =
        f.startSector + blockNo * sectorsPerBlock_;
    if (sector >= f.startSector + f.sectors)
        PISO_PANIC("block ", blockNo, " beyond file '", fileName(id),
                   "'");
    return sector;
}

std::uint64_t
FileSystem::freeSectors(DiskId disk) const
{
    auto it = disks_.find(disk);
    if (it == disks_.end())
        PISO_FATAL("unknown disk ", disk);
    return it->second.totalSectors - it->second.nextFree;
}

void
FileSystem::ckpt(CkptIo &io)
{
    rng_.ckpt(io);
    io.map(disks_, [&io](DiskId &id, DiskSpace &space) {
        io.i64(id);
        io.u64(space.totalSectors);
        io.u64(space.nextFree);
        io.u64(space.nextMetadata);
        io.u64(space.metadataEnd);
        io.u64(space.allocated);
    });

    // Each file is imaged with its name; loading re-adds the files
    // through addFile(), which rebuilds the chunked table and the
    // name arena.
    std::string name;
    const auto file = [&io, &name](FileInfo &f) {
        io.i64(f.id);
        io.str(name);
        io.i64(f.disk);
        io.u64(f.startSector);
        io.u64(f.sectors);
        io.u64(f.metadataSector);
        io.u64(f.bytes);
    };
    const std::size_t n = io.count(fileCount());
    if (!io.loading()) {
        for (std::vector<FileInfo> &chunk : files_) {
            for (FileInfo &f : chunk) {
                name.assign(fileName(f.id));
                file(f);
            }
        }
        return;
    }
    files_.clear();
    names_.clear();
    nameEnds_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        FileInfo f;
        file(f);
        addFile(f, name);
    }
}

} // namespace piso
