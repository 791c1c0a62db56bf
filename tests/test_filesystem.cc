/**
 * @file
 * Unit tests for the extent-based file system layout.
 */

#include <gtest/gtest.h>

#include "src/os/filesystem.hh"

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
    const FileId id = fs.createFile("a", 0, 10000);
    const FileInfo &f = fs.file(id);
    EXPECT_EQ(f.bytes, 10000u);
    EXPECT_EQ(f.sectors, 3u * 8u); // 3 blocks
    EXPECT_EQ(f.disk, 0);
}

TEST(FileSystem, SequentialFilesAreAdjacent)
{
    FileSystem fs = makeFs();
    const FileId a = fs.createFile("a", 0, 4096);
    const FileId b = fs.createFile("b", 0, 4096);
    EXPECT_EQ(fs.file(b).startSector,
              fs.file(a).startSector + fs.file(a).sectors);
}

TEST(FileSystem, ScatteredFilesSpread)
{
    FileSystem fs = makeFs();
    std::vector<std::uint64_t> starts;
    for (int i = 0; i < 20; ++i) {
        const FileId id =
            fs.createFile("s" + std::to_string(i), 0, 4096,
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
    const FileId id = fs.createFile("z", 0, 0);
    EXPECT_EQ(fs.file(id).sectors, 8u);
}

TEST(FileSystem, MetadataSectorInFrontZone)
{
    FileSystem fs = makeFs();
    const FileId a = fs.createFile("a", 0, 4096);
    const FileId b = fs.createFile("b", 0, 4096);
    EXPECT_LT(fs.file(a).metadataSector, 2000000u / 512 + 64);
    EXPECT_NE(fs.file(a).metadataSector, fs.file(b).metadataSector);
    // Data extents start past the metadata zone.
    EXPECT_GE(fs.file(a).startSector, fs.file(a).metadataSector);
}

TEST(FileSystem, BlockSectorMapsThroughExtent)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile("a", 0, 5 * 4096);
    const FileInfo &f = fs.file(id);
    EXPECT_EQ(fs.blockSector(id, 0), f.startSector);
    EXPECT_EQ(fs.blockSector(id, 4), f.startSector + 32);
}

TEST(FileSystem, BlockCountSpansPartialBlocks)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile("a", 0, 10 * 4096);
    EXPECT_EQ(fs.blockCount(id, 0, 4096), 1u);
    EXPECT_EQ(fs.blockCount(id, 0, 4097), 2u);
    EXPECT_EQ(fs.blockCount(id, 4095, 2), 2u); // straddles boundary
    EXPECT_EQ(fs.blockCount(id, 8192, 0), 0u);
}

TEST(FileSystem, CreateExtentHasNoMetadataChurn)
{
    FileSystem fs = makeFs();
    const FileId swap = fs.createExtent("swap", 0, 1 << 20);
    EXPECT_EQ(fs.file(swap).sectors, (1u << 20) / 512);
}

TEST(FileSystem, FreeSectorsDecrease)
{
    FileSystem fs = makeFs();
    const std::uint64_t before = fs.freeSectors(0);
    fs.createFile("a", 0, 1 << 20);
    EXPECT_EQ(fs.freeSectors(0), before - (1u << 20) / 512);
}

TEST(FileSystem, MultipleDisksIndependent)
{
    FileSystem fs;
    fs.addDisk(0, 1000000);
    fs.addDisk(1, 1000000);
    const FileId a = fs.createFile("a", 0, 4096);
    const FileId b = fs.createFile("b", 1, 4096);
    EXPECT_EQ(fs.file(a).disk, 0);
    EXPECT_EQ(fs.file(b).disk, 1);
    EXPECT_EQ(fs.file(a).startSector, fs.file(b).startSector);
}

TEST(FileSystem, ErrorsOnUnknownDiskOrFile)
{
    FileSystem fs = makeFs();
    EXPECT_THROW(fs.createFile("x", 9, 4096), std::runtime_error);
    EXPECT_THROW(fs.freeSectors(7), std::runtime_error);
    EXPECT_DEATH(fs.file(1234), "unknown file");
}

TEST(FileSystem, DiskFullIsFatal)
{
    FileSystem fs;
    fs.addDisk(0, 1024);
    EXPECT_THROW(fs.createFile("big", 0, 10 << 20), std::runtime_error);
}

TEST(FileSystem, AccessBeyondFilePanics)
{
    FileSystem fs = makeFs();
    const FileId id = fs.createFile("a", 0, 4096);
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
        fs.createFile("fill", 0, 10 * 4096, FilePlacement::Scattered);
    EXPECT_EQ(fs.file(fill).startSector, 64u);
    EXPECT_EQ(fs.file(fill).sectors, 80u);

    // The placement drew nothing: the next scattered file on another
    // disk lands where it would have without the filling file.
    FileSystem ref;
    ref.addDisk(1, 2000000);
    fs.addDisk(1, 2000000);
    const FileId a = fs.createFile("a", 1, 4096, FilePlacement::Scattered);
    const FileId b = ref.createFile("a", 1, 4096, FilePlacement::Scattered);
    EXPECT_EQ(fs.file(a).startSector, ref.file(b).startSector);
}

TEST(FileSystem, NamesLiveInTheArena)
{
    FileSystem fs = makeFs();
    const FileId a = fs.createFile("alpha.c", 0, 4096);
    const FileId e = fs.createFile("", 0, 4096);
    const FileId b = fs.createExtent("swap-spu2", 0, 1 << 20);
    EXPECT_EQ(fs.fileName(a), "alpha.c");
    EXPECT_EQ(fs.fileName(e), "");
    EXPECT_EQ(fs.fileName(b), "swap-spu2");
    EXPECT_DEATH(fs.fileName(99), "unknown file");
}

TEST(FileSystem, SaveLoadRoundTripsTheFileTable)
{
    // Enough files to span several chunks of the table.
    FileSystem fs = makeFs();
    fs.createFile("", 0, 4096);
    fs.createExtent("swap", 0, 1 << 20);
    const int n = 10000;
    for (int i = 2; i < n; ++i) {
        fs.createFile("f" + std::to_string(i), 0, 4096 * (1 + i % 3),
                      FilePlacement::Scattered);
    }
    CkptWriter w;
    CkptIo save(w);
    fs.ckpt(save);

    FileSystem back;
    CkptReader r(w.image(0));
    CkptIo load(r);
    back.ckpt(load);
    r.expectEnd();
    CkptWriter again;
    CkptIo resave(again);
    back.ckpt(resave);
    EXPECT_EQ(again.payload(), w.payload());
    EXPECT_EQ(back.fileName(0), "");
    EXPECT_EQ(back.fileName(1), "swap");
    for (FileId id = 2; id < n; ++id) {
        ASSERT_EQ(back.fileName(id), "f" + std::to_string(id));
        ASSERT_EQ(back.file(id).id, id);
        ASSERT_EQ(back.file(id).startSector, fs.file(id).startSector);
        ASSERT_EQ(back.file(id).bytes, 4096u * (1 + id % 3));
    }
    EXPECT_DEATH(back.file(n), "unknown file");
}
