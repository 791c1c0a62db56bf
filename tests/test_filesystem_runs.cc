/**
 * @file
 * Scattered runs against the eager reference (tests/fs_ref_util.hh).
 *
 * FileSystem places a scattered file when it is first asked for. Over
 * generated layouts (disks of every size, a file that fills a whole
 * data zone, runs crossing table chunks, sequential files and extents
 * between the runs, swap-like extents after set-up) and every access
 * order, each file must come out exactly as eager placement in
 * creation order made it, and the placement stream and both cursors
 * of every disk must end where the reference's do. A checkpoint cut
 * with runs half placed must restore the same placements.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "src/os/filesystem.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/random.hh"
#include "tests/fs_ref_util.hh"

using namespace piso;
using piso::testutil::EagerFileSystem;

namespace {

/** One set-up step: a scattered run, sequential files, or an extent. */
struct Op
{
    enum class Kind
    {
        Scattered,
        Sequential,
        Extent,
    };
    Kind kind = Kind::Scattered;
    DiskId disk = 0;
    std::vector<std::uint64_t> bytes;
    std::size_t count = 1;
};

struct Layout
{
    std::uint64_t seed = 0;  //!< the file systems' placement seed
    std::vector<std::uint64_t> diskSectors;
    std::vector<Op> setup;   //!< before endSetup()
    std::vector<Op> later;   //!< after it
};

std::uint64_t
sectorsOf(std::uint64_t bytes)
{
    return std::max<std::uint64_t>((bytes + 4095) / 4096, 1) * 8;
}

/** Byte sizes worth drawing on a disk whose data zone spans @p span
 *  sectors: empty, partial and whole blocks, and where it can be made,
 *  a file one block short of the zone and one filling it. */
std::vector<std::uint64_t>
sizesFor(std::uint64_t span)
{
    std::vector<std::uint64_t> sizes = {0,     1,     4096,
                                        4097,  16384, 3 * 8192 + 5};
    if (span >= 16)
        sizes.push_back((span / 8 - 1) * 4096);
    if (span % 8 == 0)
        sizes.push_back(span / 8 * 4096);
    std::erase_if(sizes,
                  [span](std::uint64_t b) { return sectorsOf(b) > span; });
    return sizes;
}

/** A layout drawn from @p seed. Sequential steps that would not fit
 *  on their disk are left out, as running out of space is fatal. */
Layout
makeLayout(std::uint64_t seed)
{
    Rng r(seed);
    Layout l;
    l.seed = r.next();
    const int disks = 1 + static_cast<int>(r.uniformInt(3));
    for (int d = 0; d < disks; ++d) {
        switch (r.uniformInt(3)) {
          case 0: // 64 metadata sectors and a data zone of a few blocks
            l.diskSectors.push_back(64 + 8 * (1 + r.uniformInt(40)));
            break;
          case 1:
            l.diskSectors.push_back(20000 + r.uniformInt(100000));
            break;
          default:
            l.diskSectors.push_back(2000000 + r.uniformInt(1u << 24));
            break;
        }
    }

    EagerFileSystem space(l.seed);
    for (int d = 0; d < disks; ++d)
        space.addDisk(d, l.diskSectors[static_cast<std::size_t>(d)]);
    const auto draw = [&](std::vector<Op> &ops, int n, bool runs) {
        for (int i = 0; i < n; ++i) {
            Op op;
            op.disk = static_cast<DiskId>(r.uniformInt(disks));
            const std::vector<std::uint64_t> sizes =
                sizesFor(space.dataSpan(op.disk));
            const std::uint64_t kind = r.uniformInt(runs ? 4 : 2);
            op.kind = kind >= 2   ? Op::Kind::Scattered
                      : kind == 1 ? Op::Kind::Sequential
                                  : Op::Kind::Extent;
            const std::size_t widths = op.kind == Op::Kind::Extent
                                           ? 1
                                           : 1 + r.uniformInt(3);
            for (std::size_t w = 0; w < widths; ++w)
                op.bytes.push_back(sizes[r.uniformInt(sizes.size())]);
            if (op.kind == Op::Kind::Scattered) {
                // Mostly short runs; some cross several 256-file
                // chunks of the table.
                op.count = 1 + r.uniformInt(r.chance(0.2) ? 1500 : 40);
            } else if (op.kind == Op::Kind::Sequential) {
                op.count = 1 + r.uniformInt(4);
            }
            std::uint64_t need = 0;
            for (std::size_t k = 0; k < op.count; ++k)
                need += sectorsOf(op.bytes[k % op.bytes.size()]);
            if (op.kind != Op::Kind::Scattered) {
                if (need > space.freeSectors(op.disk))
                    continue; // would not fit: sequential space is fatal
                for (std::size_t k = 0; k < op.count; ++k) {
                    space.createExtent(op.disk,
                                       op.bytes[k % op.bytes.size()]);
                }
            }
            ops.push_back(std::move(op));
        }
    };
    draw(l.setup, 4 + static_cast<int>(r.uniformInt(16)), true);
    draw(l.later, static_cast<int>(r.uniformInt(6)), r.chance(0.5));
    return l;
}

/** @p ops on the reference, one file at a time. */
void
apply(EagerFileSystem &fs, const std::vector<Op> &ops)
{
    for (const Op &op : ops) {
        for (std::size_t k = 0; k < op.count; ++k) {
            const std::uint64_t b = op.bytes[k % op.bytes.size()];
            if (op.kind == Op::Kind::Extent)
                fs.createExtent(op.disk, b);
            else
                fs.createFile(op.disk, b,
                              op.kind == Op::Kind::Scattered
                                  ? FilePlacement::Scattered
                                  : FilePlacement::Sequential);
        }
    }
}

/** @p ops on the file system under test: each scattered step and each
 *  sequential step is one createFiles() call. */
void
applyRuns(FileSystem &fs, const std::vector<Op> &ops)
{
    for (const Op &op : ops) {
        if (op.kind == Op::Kind::Extent) {
            fs.createExtent(op.disk, op.bytes[0]);
            continue;
        }
        fs.createFiles(op.disk, op.bytes, op.count,
                       op.kind == Op::Kind::Scattered
                           ? FilePlacement::Scattered
                           : FilePlacement::Sequential);
    }
}

void
addDisks(const Layout &l, FileSystem &fs)
{
    for (std::size_t d = 0; d < l.diskSectors.size(); ++d)
        fs.addDisk(static_cast<DiskId>(d), l.diskSectors[d]);
}

/** The layout's whole set-up and later steps, on the reference. */
EagerFileSystem
reference(const Layout &l)
{
    EagerFileSystem ref(l.seed);
    for (std::size_t d = 0; d < l.diskSectors.size(); ++d)
        ref.addDisk(static_cast<DiskId>(d), l.diskSectors[d]);
    apply(ref, l.setup);
    apply(ref, l.later);
    return ref;
}

/** The layout's set-up on @p fs, ended. */
void
setUp(const Layout &l, FileSystem &fs)
{
    addDisks(l, fs);
    applyRuns(fs, l.setup);
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

::testing::AssertionResult
sameFile(const FileInfo &got, const FileInfo &want)
{
    if (got.id == want.id && got.disk == want.disk &&
        got.startSector == want.startSector &&
        got.sectors == want.sectors &&
        got.metadataSector == want.metadataSector &&
        got.bytes == want.bytes)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "file " << want.id << ": got id " << got.id << " disk "
           << got.disk << " start " << got.startSector << " sectors "
           << got.sectors << " meta " << got.metadataSector << " bytes "
           << got.bytes << ", want disk " << want.disk << " start "
           << want.startSector << " sectors " << want.sectors
           << " meta " << want.metadataSector << " bytes " << want.bytes;
}

/**
 * The files FileSystem::placedFiles() should report: every file not in
 * a scattered run, and each run's prefix up to the end of the batch
 * (FileSystem::kPlaceBatch files from the run's start) holding the
 * highest id asked for in it.
 */
class PlacedModel
{
  public:
    PlacedModel(const Layout &l, std::size_t files)
    {
        std::size_t id = 0;
        for (const std::vector<Op> *ops : {&l.setup, &l.later}) {
            for (const Op &op : *ops) {
                if (op.kind == Op::Kind::Scattered)
                    runs_.push_back({id, op.count, 0});
                id += op.count;
            }
        }
        eager_ = files;
        for (const Run &r : runs_)
            eager_ -= r.count;
    }

    void
    touch(std::size_t id)
    {
        const auto after = std::upper_bound(
            runs_.begin(), runs_.end(), id,
            [](std::size_t i, const Run &r) { return i < r.first; });
        if (after == runs_.begin())
            return;
        Run &r = *std::prev(after);
        constexpr std::size_t kBatch = FileSystem::kPlaceBatch;
        if (id < r.first + r.count) {
            r.placed = std::max(
                r.placed,
                std::min(r.count, (id - r.first) / kBatch * kBatch + kBatch));
        }
    }

    std::size_t
    placed() const
    {
        std::size_t n = eager_;
        for (const Run &r : runs_)
            n += r.placed;
        return n;
    }

  private:
    struct Run
    {
        std::size_t first;
        std::size_t count;
        std::size_t placed;
    };
    std::vector<Run> runs_;
    std::size_t eager_ = 0;
};

enum class Order
{
    Forward,
    Reverse,
    Random,
    Repeated,
};

/** The ids 0..n-1 in @p order; Repeated draws with replacement and
 *  asks for some ids twice in a row. */
std::vector<FileId>
accessOrder(std::size_t n, Order order, Rng &r)
{
    std::vector<FileId> ids(n);
    std::iota(ids.begin(), ids.end(), 0);
    switch (order) {
      case Order::Forward:
        break;
      case Order::Reverse:
        std::reverse(ids.begin(), ids.end());
        break;
      case Order::Random:
        for (std::size_t i = n; i > 1; --i)
            std::swap(ids[i - 1], ids[r.uniformInt(i)]);
        break;
      case Order::Repeated:
        ids.clear();
        while (ids.size() < n) {
            const FileId id = static_cast<FileId>(r.uniformInt(n));
            ids.push_back(id);
            if (r.chance(0.3))
                ids.push_back(id);
        }
        break;
    }
    return ids;
}

constexpr int kLayouts = 40;

} // namespace

TEST(FileSystemRuns, EveryAccessOrderPlacesAsTheEagerReference)
{
    std::size_t files = 0;
    std::size_t fillers = 0;
    for (std::uint64_t seed = 1; seed <= kLayouts; ++seed) {
        const Layout l = makeLayout(seed);
        EagerFileSystem ref = reference(l);
        for (Order order : {Order::Forward, Order::Reverse, Order::Random,
                            Order::Repeated}) {
            SCOPED_TRACE("layout " + std::to_string(seed) + " order " +
                         std::to_string(static_cast<int>(order)));
            FileSystem fs(512, 4096, l.seed);
            setUp(l, fs);
            const std::size_t setupFiles = fs.fileCount();
            applyRuns(fs, l.later);
            ASSERT_EQ(fs.fileCount(), ref.fileCount());

            PlacedModel model(l, fs.fileCount());
            ASSERT_EQ(fs.placedFiles(), model.placed());
            Rng r(seed * 31 + static_cast<std::uint64_t>(order));
            for (const FileId id : accessOrder(fs.fileCount(), order, r)) {
                ASSERT_TRUE(sameFile(fs.file(id), ref.file(id)));
                model.touch(static_cast<std::size_t>(id));
                ASSERT_EQ(fs.placedFiles(), model.placed()) << "after " << id;
            }
            for (FileId id = 0; id < static_cast<FileId>(fs.fileCount());
                 ++id) {
                ASSERT_TRUE(sameFile(fs.file(id), ref.file(id)));
                const FileInfo &f = fs.file(id);
                fillers += f.sectors == ref.dataSpan(f.disk) ? 1 : 0;
            }
            EXPECT_EQ(fs.placedFiles(), fs.fileCount());
            // The placement stream and every disk's cursors.
            EXPECT_EQ(image(fs), ref.image(setupFiles));
            files += fs.fileCount();
        }
    }
    // The layouts are not vacuous: thousands of files, some filling a
    // whole data zone.
    EXPECT_GT(files, 4u * 10000);
    EXPECT_GT(fillers, 0u);
}

TEST(FileSystemRuns, CreatingARunMovesTheStreamAndCursorsAtOnce)
{
    // Nothing placed yet, the stream and both cursors already stand
    // where the reference's do after placing everything.
    for (std::uint64_t seed = 1; seed <= kLayouts; ++seed) {
        SCOPED_TRACE("layout " + std::to_string(seed));
        const Layout l = makeLayout(seed);
        EagerFileSystem ref = reference(l);
        FileSystem fs(512, 4096, l.seed);
        addDisks(l, fs);
        applyRuns(fs, l.setup);
        applyRuns(fs, l.later);
        // endSetup() now: the image carries no files, only the stream,
        // the cursors and the count.
        fs.endSetup();
        EXPECT_EQ(image(fs), ref.image(ref.fileCount()));
        EXPECT_EQ(fs.placedFiles(), PlacedModel(l, fs.fileCount()).placed());
    }
}

TEST(FileSystemRuns, CheckpointMidPlacementRestoresTheSamePlacements)
{
    for (std::uint64_t seed = 1; seed <= kLayouts; ++seed) {
        SCOPED_TRACE("layout " + std::to_string(seed));
        const Layout l = makeLayout(seed);
        EagerFileSystem ref = reference(l);
        Rng r(seed * 17);

        // Half placed: a random half of the set-up files asked for,
        // then the later files made, some of them asked for too.
        FileSystem saved(512, 4096, l.seed);
        setUp(l, saved);
        const std::size_t setupFiles = saved.fileCount();
        for (std::size_t i = 0; i < setupFiles; ++i) {
            if (r.chance(0.5)) {
                ASSERT_TRUE(sameFile(saved.file(static_cast<FileId>(i)),
                                     ref.file(static_cast<FileId>(i))));
            }
        }
        applyRuns(saved, l.later);
        for (std::size_t i = setupFiles; i < saved.fileCount(); ++i) {
            if (r.chance(0.5)) {
                ASSERT_TRUE(sameFile(saved.file(static_cast<FileId>(i)),
                                     ref.file(static_cast<FileId>(i))));
            }
        }
        const std::string img = image(saved);
        EXPECT_EQ(img, ref.image(setupFiles));

        // The restore replays the set-up, placing nothing, and loads.
        FileSystem back(512, 4096, l.seed);
        setUp(l, back);
        CkptReader reader(img);
        CkptIo load(reader);
        back.ckpt(load);
        reader.expectEnd();
        ASSERT_EQ(back.fileCount(), ref.fileCount());
        EXPECT_EQ(image(back), img);

        for (const FileId id :
             accessOrder(back.fileCount(), Order::Random, r)) {
            ASSERT_TRUE(sameFile(back.file(id), ref.file(id)));
            ASSERT_TRUE(sameFile(saved.file(id), ref.file(id)));
        }
        EXPECT_EQ(image(back), ref.image(setupFiles));
        EXPECT_EQ(image(saved), ref.image(setupFiles));

        // And both go on to place the next run alike.
        const std::uint64_t one[] = {4096};
        const FileId a = back.createFiles(0, one, 3, FilePlacement::Scattered);
        const FileId b = saved.createFiles(0, one, 3, FilePlacement::Scattered);
        ASSERT_EQ(a, b);
        for (FileId id = a + 2; id >= a; --id)
            ASSERT_TRUE(sameFile(back.file(id), saved.file(id)));
    }
}

TEST(FileSystemRuns, RunsLeaveTheMetadataCursorWhereSingleFilesWould)
{
    // A 64-sector metadata zone: runs that start anywhere in it, at its
    // end, and end short of it, exactly on it or past it, wrapping.
    for (std::size_t before = 0; before <= 66; ++before) {
        for (const std::size_t count : {1, 2, 63, 64, 65, 128, 130}) {
            SCOPED_TRACE("after " + std::to_string(before) +
                         " files, a run of " + std::to_string(count));
            FileSystem fs(512, 4096, 7);
            EagerFileSystem ref(7);
            fs.addDisk(0, 64 + 16000);
            ref.addDisk(0, 64 + 16000);
            const std::uint64_t one[] = {4096};
            if (before > 0)
                fs.createFiles(0, one, before, FilePlacement::Sequential);
            fs.createFiles(0, one, count, FilePlacement::Scattered);
            for (std::size_t i = 0; i < before; ++i)
                ref.createFile(0, 4096, FilePlacement::Sequential);
            for (std::size_t i = 0; i < count; ++i)
                ref.createFile(0, 4096, FilePlacement::Scattered);
            EXPECT_EQ(image(fs), ref.image(0));
        }
    }
}
