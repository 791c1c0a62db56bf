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

FileSystem::DiskSpace &
FileSystem::diskSpace(DiskId disk)
{
    if (!findDisk(disk))
        PISO_FATAL("unknown disk ", disk, " in the file system");
    return disks_[static_cast<std::size_t>(disk)];
}

std::uint64_t
FileSystem::sectorsFor(std::uint64_t bytes) const
{
    const std::uint64_t blocks = (bytes + blockBytes_ - 1) / blockBytes_;
    return std::max<std::uint64_t>(blocks, 1) * sectorsPerBlock_;
}

FileId
FileSystem::allocate(DiskId disk, std::uint64_t bytes, bool withMetadata)
{
    DiskSpace &sp = diskSpace(disk);
    const std::uint64_t sectors = sectorsFor(bytes);
    if (sp.nextFree + sectors > sp.totalSectors)
        PISO_FATAL("disk ", disk, " out of space for a file of ", bytes,
                   " bytes");

    FileInfo info;
    info.id = static_cast<FileId>(fileCount_);
    info.disk = disk;
    info.startSector = sp.nextFree;
    info.sectors = sectors;
    info.bytes = bytes;
    sp.nextFree += sectors;
    if (withMetadata) {
        if (sp.nextMetadata >= sp.metadataEnd)
            sp.nextMetadata = 0; // metadata sectors are reused
        info.metadataSector = sp.nextMetadata++;
    }
    addIds(1);
    store(info);
    return info.id;
}

FileId
FileSystem::createFile(DiskId disk, std::uint64_t bytes,
                       FilePlacement placement)
{
    return createFiles(disk, {&bytes, 1}, 1, placement);
}

FileId
FileSystem::createFiles(DiskId disk, std::span<const std::uint64_t> bytes,
                        std::size_t count, FilePlacement placement)
{
    if (bytes.empty() || count == 0)
        PISO_FATAL("creating files needs at least one file and one size");
    const FileId first = static_cast<FileId>(fileCount_);
    if (placement == FilePlacement::Sequential) {
        for (std::size_t k = 0; k < count; ++k)
            allocate(disk, bytes[k % bytes.size()], true);
        return first;
    }

    // Scattered: a pseudo-random block-aligned start anywhere in the
    // data zone, one draw per file. A file filling the whole data zone
    // has one place to go; it takes it without a draw, so no other
    // file's draws move. The draws are skipped here and replayed by
    // place().
    DiskSpace &sp = diskSpace(disk);
    const std::uint64_t span = sp.totalSectors - sp.metadataEnd;
    ScatterRun run;
    run.first = fileCount_;
    run.count = count;
    run.disk = disk;
    const std::span<const std::uint64_t> used =
        bytes.first(std::min(count, bytes.size()));
    run.sizes.reserve(used.size());
    for (const std::uint64_t b : used) {
        const std::uint64_t sectors = sectorsFor(b);
        if (sectors > span)
            PISO_FATAL("file of ", b, " bytes larger than disk ", disk);
        run.sizes.push_back({b, sectors, span - sectors});
    }
    run.rng = rng_;
    for (std::size_t k = 0, j = 0; k < count; ++k) {
        if (const std::uint64_t bound = run.sizes[j].bound; bound != 0)
            rng_.skipUniformInt(bound);
        j = j + 1 == run.sizes.size() ? 0 : j + 1;
    }
    run.end = rng_;

    // File k takes metadata sector (metaStart + k) % metadataEnd, as
    // count single-file steps of the wrapping cursor would.
    run.metaStart = sp.nextMetadata;
    sp.nextMetadata = (run.metaStart + count - 1) % sp.metadataEnd + 1;

    addIds(count);
    runs_.push_back(std::move(run));
    return first;
}

FileId
FileSystem::createExtent(DiskId disk, std::uint64_t bytes)
{
    return allocate(disk, bytes, false);
}

void
FileSystem::addIds(std::size_t n)
{
    fileCount_ += n;
    chunks_.resize((fileCount_ + kChunkFiles - 1) / kChunkFiles);
}

void
FileSystem::store(const FileInfo &info) const
{
    const std::size_t i = static_cast<std::size_t>(info.id);
    FileInfo *&chunk = chunks_[i / kChunkFiles];
    if (!chunk) {
        constexpr std::size_t kSlabFiles = kSlabChunks * kChunkFiles;
        if (slabs_.empty() || slabs_.back().size() == kSlabFiles) {
            slabs_.emplace_back();
            slabs_.back().reserve(kSlabFiles);
        }
        std::vector<FileInfo> &slab = slabs_.back();
        slab.resize(slab.size() + kChunkFiles);
        chunk = slab.data() + slab.size() - kChunkFiles;
    }
    chunk[i % kChunkFiles] = info;
    ++placedFiles_;
}

const FileInfo &
FileSystem::place(FileId id) const
{
    const std::size_t i = static_cast<std::size_t>(id);
    if (id < 0 || i >= fileCount_)
        PISO_PANIC("unknown file id ", id);
    const auto after = std::upper_bound(
        runs_.begin(), runs_.end(), i,
        [](std::size_t at, const ScatterRun &r) { return at < r.first; });
    if (after == runs_.begin() || i >= std::prev(after)->first +
                                           std::prev(after)->count)
        PISO_PANIC("file id ", id, " was never placed");
    ScatterRun &run = *std::prev(after);
    const DiskSpace &sp = disks_[static_cast<std::size_t>(run.disk)];
    const std::size_t upTo = std::min(
        run.count, (i - run.first) / kPlaceBatch * kPlaceBatch + kPlaceBatch);
    for (; run.placed < upTo; ++run.placed) {
        const std::size_t k = run.placed;
        const RunSize &size = run.sizes[k % run.sizes.size()];
        FileInfo info;
        info.id = static_cast<FileId>(run.first + k);
        info.disk = run.disk;
        info.bytes = size.bytes;
        info.sectors = size.sectors;
        info.startSector = sp.metadataEnd;
        if (size.bound != 0) {
            info.startSector +=
                run.rng.uniformInt(size.bound) / sectorsPerBlock_ *
                sectorsPerBlock_;
        }
        info.metadataSector = (run.metaStart + k) % sp.metadataEnd;
        store(info);
    }
    PISO_CHECK(run.placed < run.count || run.rng == run.end,
               "scattered run at file ", run.first,
               " ended its draws off the position its creation skipped to");
    return chunks_[i / kChunkFiles][i % kChunkFiles];
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
    if (io.loading() && fileCount_ != setupFiles_)
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
        f.id = static_cast<FileId>(fileCount_);
        addIds(1);
        store(f);
    }
}

} // namespace piso
