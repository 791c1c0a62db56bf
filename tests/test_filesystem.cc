/**
 * @file
 * Unit tests for the extent-based file system layout.
 */

#include <gtest/gtest.h>

#include <string>

#include "src/os/filesystem.hh"
#include "src/util/error.hh"

using namespace piso;

namespace {

FileSystem
makeFs()
{
    FileSystem fs;
    fs.addDisk(0, 2000000);
    return fs;
}

} // namespace

TEST(FileSystem, BlockGeometry)
{
    FileSystem fs;
    EXPECT_EQ(fs.blockBytes(), 4096u);
    EXPECT_EQ(fs.sectorsPerBlock(), 8u);
}

TEST(FileSystem, CreateFileRecordsSize)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile(0, 10000);
    const FileInfo &f = fs.file(id);
    EXPECT_EQ(f.bytes, 10000u);
    EXPECT_EQ(f.sectors, 3u * 8u); // 3 blocks
    EXPECT_EQ(f.disk, 0);
}

TEST(FileSystem, SequentialFilesAreAdjacent)
{
    FileSystem fs = makeFs();
    const FileId a = fs.createFile(0, 4096);
    const FileId b = fs.createFile(0, 4096);
    EXPECT_EQ(fs.file(b).startSector,
              fs.file(a).startSector + fs.file(a).sectors);
}

TEST(FileSystem, ScatteredFilesSpread)
{
    FileSystem fs = makeFs();
    std::vector<std::uint64_t> starts;
    for (int i = 0; i < 20; ++i) {
        const FileId id =
            fs.createFile(0, 4096,
                          FilePlacement::Scattered);
        starts.push_back(fs.file(id).startSector);
    }
    // The spread of scattered starts should cover a large span.
    const auto [mn, mx] = std::minmax_element(starts.begin(), starts.end());
    EXPECT_GT(*mx - *mn, 100000u);
}

TEST(FileSystem, ZeroByteFileStillGetsABlock)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile(0, 0);
    EXPECT_EQ(fs.file(id).sectors, 8u);
}

TEST(FileSystem, MetadataSectorInFrontZone)
{
    FileSystem fs = makeFs();
    const FileId a = fs.createFile(0, 4096);
    const FileId b = fs.createFile(0, 4096);
    EXPECT_LT(fs.file(a).metadataSector, 2000000u / 512 + 64);
    EXPECT_NE(fs.file(a).metadataSector, fs.file(b).metadataSector);
    // Data extents start past the metadata zone.
    EXPECT_GE(fs.file(a).startSector, fs.file(a).metadataSector);
}

TEST(FileSystem, BlockSectorMapsThroughExtent)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile(0, 5 * 4096);
    const FileInfo &f = fs.file(id);
    EXPECT_EQ(fs.blockSector(id, 0), f.startSector);
    EXPECT_EQ(fs.blockSector(id, 4), f.startSector + 32);
}

TEST(FileSystem, BlockCountSpansPartialBlocks)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile(0, 10 * 4096);
    EXPECT_EQ(fs.blockCount(id, 0, 4096), 1u);
    EXPECT_EQ(fs.blockCount(id, 0, 4097), 2u);
    EXPECT_EQ(fs.blockCount(id, 4095, 2), 2u); // straddles boundary
    EXPECT_EQ(fs.blockCount(id, 8192, 0), 0u);
}

TEST(FileSystem, CreateExtentHasNoMetadataChurn)
{
    FileSystem fs = makeFs();
    const FileId swap = fs.createExtent(0, 1 << 20);
    EXPECT_EQ(fs.file(swap).sectors, (1u << 20) / 512);
}

TEST(FileSystem, FreeSectorsDecrease)
{
    FileSystem fs = makeFs();
    const std::uint64_t before = fs.freeSectors(0);
    fs.createFile(0, 1 << 20);
    EXPECT_EQ(fs.freeSectors(0), before - (1u << 20) / 512);
}

TEST(FileSystem, MultipleDisksIndependent)
{
    FileSystem fs;
    fs.addDisk(0, 1000000);
    fs.addDisk(1, 1000000);
    const FileId a = fs.createFile(0, 4096);
    const FileId b = fs.createFile(1, 4096);
    EXPECT_EQ(fs.file(a).disk, 0);
    EXPECT_EQ(fs.file(b).disk, 1);
    EXPECT_EQ(fs.file(a).startSector, fs.file(b).startSector);
}

TEST(FileSystem, ErrorsOnUnknownDiskOrFile)
{
    FileSystem fs = makeFs();
    EXPECT_THROW(fs.createFile(9, 4096), std::runtime_error);
    EXPECT_THROW(fs.freeSectors(7), std::runtime_error);
    EXPECT_DEATH(fs.file(1234), "unknown file");
}

TEST(FileSystem, DiskFullIsFatal)
{
    FileSystem fs;
    fs.addDisk(0, 1024);
    EXPECT_THROW(fs.createFile(0, 10 << 20), std::runtime_error);
}

TEST(FileSystem, AccessBeyondFilePanics)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile(0, 4096);
    EXPECT_DEATH(fs.blockCount(id, 0, 2 * 4096 + 1), "beyond");
    EXPECT_DEATH(fs.blockSector(id, 5), "beyond");
}

TEST(FileSystem, DuplicateDiskRejected)
{
    FileSystem fs = makeFs();
    EXPECT_THROW(fs.addDisk(0, 100), std::runtime_error);
}

TEST(FileSystem, ScatteredFileFillingTheDataZoneTakesItWithoutADraw)
{
    // 64 metadata sectors + an 80-sector data zone: a 10-block file
    // has exactly one place to go.
    FileSystem fs;
    fs.addDisk(0, 64 + 80);
    const FileId fill =
        fs.createFile(0, 10 * 4096, FilePlacement::Scattered);
    EXPECT_EQ(fs.file(fill).startSector, 64u);
    EXPECT_EQ(fs.file(fill).sectors, 80u);

    // The placement drew nothing: the next scattered file on another
    // disk lands where it would have without the filling file.
    FileSystem ref;
    ref.addDisk(1, 2000000);
    fs.addDisk(1, 2000000);
    const FileId a = fs.createFile(1, 4096, FilePlacement::Scattered);
    const FileId b = ref.createFile(1, 4096, FilePlacement::Scattered);
    EXPECT_EQ(fs.file(a).startSector, ref.file(b).startSector);
}

TEST(FileSystem, IdsRunInCreationOrder)
{
    FileSystem fs = makeFs();
    const FileId a = fs.createFile(0, 4096);
    const FileId e = fs.createFile(0, 0);
    const FileId b = fs.createExtent(0, 1 << 20);
    EXPECT_EQ(a, 0);
    EXPECT_EQ(e, 1);
    EXPECT_EQ(b, 2);
    EXPECT_EQ(fs.fileCount(), 3u);
    for (FileId id : {a, e, b})
        EXPECT_EQ(fs.file(id).id, id);
    EXPECT_DEATH(fs.file(99), "unknown file id 99");
    EXPECT_DEATH(fs.file(-1), "unknown file");
}

namespace {

/** The set-up both sides of a checkpoint replay: enough files to span
 *  several chunks of the table. */
void
replaySetup(FileSystem &fs, int n)
{
    fs.createFile(0, 4096);
    fs.createExtent(0, 1 << 20);
    for (int i = 2; i < n; ++i)
        fs.createFile(0, 4096 * (1 + i % 3), FilePlacement::Scattered);
    fs.endSetup();
}

std::string
image(FileSystem &fs)
{
    CkptWriter w;
    CkptIo io(w);
    fs.ckpt(io);
    return w.image(0);
}

} // namespace

TEST(FileSystem, SaveLoadRoundTripsTheFileTable)
{
    const int n = 10000;
    FileSystem fs = makeFs();
    replaySetup(fs, n);
    // Made after set-up, like the kernel's swap extents: imaged.
    fs.createExtent(0, 1 << 20);
    fs.createFile(0, 4096, FilePlacement::Scattered);
    const std::string img = image(fs);

    FileSystem back = makeFs();
    replaySetup(back, n);
    CkptReader r(img);
    CkptIo load(r);
    back.ckpt(load);
    r.expectEnd();
    EXPECT_EQ(image(back), img);

    ASSERT_EQ(back.fileCount(), static_cast<std::size_t>(n) + 2);
    for (FileId id = 0; id < n + 2; ++id) {
        const FileInfo &a = fs.file(id);
        const FileInfo &b = back.file(id);
        ASSERT_EQ(b.id, id);
        ASSERT_EQ(b.disk, a.disk);
        ASSERT_EQ(b.startSector, a.startSector);
        ASSERT_EQ(b.sectors, a.sectors);
        ASSERT_EQ(b.metadataSector, a.metadataSector);
        ASSERT_EQ(b.bytes, a.bytes);
    }
    EXPECT_EQ(back.file(1).sectors, (1u << 20) / 512);
    for (FileId id = 2; id < n; ++id)
        ASSERT_EQ(back.file(id).bytes, 4096u * (1 + id % 3));
    EXPECT_EQ(back.freeSectors(0), fs.freeSectors(0));
    EXPECT_DEATH(back.file(n + 2), "unknown file");

    // The cursors and the placement RNG came back too: the next files
    // land where the original's do.
    for (FilePlacement p :
         {FilePlacement::Sequential, FilePlacement::Scattered}) {
        EXPECT_EQ(back.file(back.createFile(0, 4096, p)).startSector,
                  fs.file(fs.createFile(0, 4096, p)).startSector);
    }
}

TEST(FileSystem, ImageCarriesOnlyTheFilesMadeAfterSetUp)
{
    FileSystem few = makeFs();
    replaySetup(few, 10);
    FileSystem many = makeFs();
    replaySetup(many, 5000);
    EXPECT_EQ(image(few).size(), image(many).size());

    // Each later file adds one fixed-size record.
    const std::size_t before = image(few).size();
    few.createExtent(0, 1 << 20);
    const std::size_t one = image(few).size() - before;
    few.createExtent(0, 1 << 20);
    EXPECT_EQ(image(few).size(), before + 2 * one);
}

TEST(FileSystem, LoadRejectsAnExtentOutsideTheDisks)
{
    const auto rejection = [](const std::string &img) {
        FileSystem fs = makeFs();
        replaySetup(fs, 10);
        CkptReader r(img);
        CkptIo io(r);
        try {
            fs.ckpt(io);
        } catch (const ConfigError &e) {
            return std::string(e.what());
        }
        return std::string();
    };

    FileSystem fs = makeFs();
    replaySetup(fs, 10);
    fs.createExtent(0, 1 << 20);
    const std::string good = image(fs);
    EXPECT_EQ(rejection(good), "");

    // The same image with the later extent's start sector (the second
    // of its five trailing u64 fields) moved past the end of its disk.
    std::string payload = good.substr(32, good.size() - 40);
    const std::size_t at = payload.size() - 4 * 8;
    for (int i = 0; i < 8; ++i)
        payload[at + i] = static_cast<char>((2000000ull >> (8 * i)) & 0xff);
    CkptWriter w;
    for (char c : payload)
        w.u8(static_cast<std::uint8_t>(c));
    EXPECT_NE(rejection(w.image(0)).find("outside the configured disks"),
              std::string::npos);
}
