/**
 * @file
 * Hostile-input battery for the checkpoint container and the event
 * queue's restore surface (docs/checkpoint.md).
 *
 * Two properties are under test, both meant to run under ASan in CI:
 *
 *  1. No byte stream handed to Simulation::restore() may reach
 *     undefined behaviour. Truncations at every interesting length,
 *     single-byte corruption at deterministic-random offsets, and
 *     deliberately wrong magic/version/digest headers must all be
 *     rejected with a structured SimError (ConfigError for malformed
 *     or mismatched images) — never a crash, hang, or OOB read.
 *
 *  2. EventQueue's checkpoint surface (forEachPending /
 *     clearPending / scheduleRestored / restoreClock) preserves exact
 *     firing order under arbitrary schedule/cancel/run/snapshot
 *     interleavings, checked against a sorted-(when, seq) model
 *     oracle.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/config/workload_spec.hh"
#include "src/core/spu_table.hh"
#include "src/os/buffer_cache.hh"
#include "src/os/filesystem.hh"
#include "src/piso.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/event_queue.hh"
#include "tests/fn_sink.hh"
#include "src/sim/random.hh"

using namespace piso;

namespace {

/** Small workload whose image exercises every subsystem section. */
const char *kSpec = R"(
machine cpus=2 memory_mb=24 disks=1 scheme=piso seed=5
spu pmk share=1 disk=0
spu cpy share=1 disk=0
job pmk pmake name=build workers=2 files=6
job cpy copy name=cp bytes_kb=4096
)";

/** One valid checkpoint image of kSpec, built once per process. */
const std::string &
validImage()
{
    static const std::string image = [] {
        WorkloadSpec spec = parseWorkloadSpec(kSpec);
        std::string img;
        spec.config.checkpointAt = 50 * kMs;
        spec.config.checkpointStop = true;
        spec.config.checkpointSink = [&img](std::string i) {
            img = std::move(i);
        };
        Simulation sim(spec.config);
        populateWorkloadSpec(sim, spec);
        sim.run();
        return img;
    }();
    return image;
}

/**
 * Feed @p image to a fresh, correctly-populated Simulation's restore.
 * Returns normally only if restore accepted the bytes.
 */
void
tryRestore(const std::string &image)
{
    WorkloadSpec spec = parseWorkloadSpec(kSpec);
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    std::istringstream in(image);
    sim.restore(in);
}

} // namespace

// ---------------------------------------------------------------------
// Container corruption: every mutation rejects with a SimError
// ---------------------------------------------------------------------

TEST(CheckpointFuzz, TruncationsAreRejectedStructurally)
{
    const std::string &image = validImage();
    ASSERT_GT(image.size(), 48u);

    // Every length across the header and trailer, plus a stride of
    // cuts through the payload: all must fail cleanly. (A truncated
    // image can never pass — the trailing checksum is missing.)
    std::vector<std::size_t> cuts;
    for (std::size_t n = 0; n <= 64 && n < image.size(); ++n)
        cuts.push_back(n);
    for (std::size_t n = 64; n < image.size(); n += 97)
        cuts.push_back(n);
    for (std::size_t back = 1; back <= 16; ++back)
        cuts.push_back(image.size() - back);

    for (std::size_t n : cuts) {
        const std::string cut = image.substr(0, n);
        EXPECT_THROW(tryRestore(cut), SimError)
            << "truncation to " << n << " bytes accepted";
    }
}

TEST(CheckpointFuzz, SingleByteCorruptionIsRejectedStructurally)
{
    const std::string &image = validImage();
    Rng rng(0xf00du);

    // Every header byte, then a deterministic-random sample of payload
    // and trailer bytes. Any single-byte change must be caught: header
    // fields are validated individually and the payload is covered by
    // the trailing FNV checksum.
    std::vector<std::size_t> offsets;
    for (std::size_t i = 0; i < 48; ++i)
        offsets.push_back(i);
    for (int i = 0; i < 256; ++i)
        offsets.push_back(48 + rng.uniformInt(image.size() - 48));

    for (std::size_t off : offsets) {
        std::string bad = image;
        bad[off] = static_cast<char>(
            bad[off] ^ static_cast<char>(1 + rng.uniformInt(255)));
        EXPECT_THROW(tryRestore(bad), SimError)
            << "byte flip at offset " << off << " accepted";
    }
}

TEST(CheckpointFuzz, WrongMagicVersionAndDigestAreConfigErrors)
{
    const std::string &image = validImage();

    // Offsets per the container layout in src/sim/checkpoint.hh:
    // [magic 8][version u32][flags u32][digest u64]...
    std::string wrongMagic = image;
    wrongMagic[0] = 'X';
    EXPECT_THROW(tryRestore(wrongMagic), ConfigError);

    std::string wrongVersion = image;
    wrongVersion[8] = static_cast<char>(kCkptVersion + 1);
    EXPECT_THROW(tryRestore(wrongVersion), ConfigError);

    // Version 1 imaged the buffer-cache index and version 2 the whole
    // file table; their images are refused by name, not misread.
    for (const int old : {1, 2}) {
        std::string oldImage = image;
        oldImage[8] = static_cast<char>(old);
        try {
            tryRestore(oldImage);
            ADD_FAILURE() << "version-" << old << " image accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "format version " + std::to_string(old) +
                          " (this build reads version 3)"),
                      std::string::npos)
                << e.what();
        }
    }

    std::string wrongFlags = image;
    wrongFlags[12] = 1;
    EXPECT_THROW(tryRestore(wrongFlags), ConfigError);

    std::string wrongDigest = image;
    wrongDigest[16] = static_cast<char>(wrongDigest[16] ^ 0x5a);
    EXPECT_THROW(tryRestore(wrongDigest), ConfigError);
}

TEST(CheckpointFuzz, EmptyAndGarbageStreamsAreConfigErrors)
{
    EXPECT_THROW(tryRestore(""), SimError);
    EXPECT_THROW(tryRestore("not a checkpoint"), SimError);
    EXPECT_THROW(tryRestore(std::string(1 << 16, '\0')), SimError);

    // A valid image with trailing junk appended: the container records
    // its exact payload length, so extra bytes are a structural error.
    EXPECT_THROW(tryRestore(validImage() + "garbage"), SimError);
}

TEST(CheckpointFuzz, ReaderBoundsChecksEveryPrimitive)
{
    // Direct CkptWriter/CkptReader round trip, then over-read: each
    // primitive read past the recorded payload must throw rather than
    // touch out-of-bounds memory.
    CkptWriter w;
    w.u32(7);
    const std::string img = w.image(/*digest=*/1);

    CkptReader r(img);
    r.requireDigest(1);
    EXPECT_EQ(r.u32(), 7u);
    EXPECT_THROW(r.u64(), ConfigError);

    CkptReader r2(img);
    EXPECT_THROW(r2.requireDigest(2), ConfigError);

    CkptReader r3(img);
    r3.requireDigest(1);
    EXPECT_EQ(r3.u32(), 7u);
    EXPECT_THROW(r3.u8(), ConfigError);
}

namespace {

constexpr std::uint32_t kNull = 0xffffffffu;

/** One imaged cache block's LRU links. */
struct Links
{
    std::uint32_t prev;
    std::uint32_t next;
};

/** A checksummed buffer-cache section: one clean valid block of SPU 2
 *  per entry of @p links, no free slots, and the given list ends and
 *  size. */
std::string
cacheImage(const std::vector<Links> &links, std::uint32_t head,
           std::uint32_t tail, std::uint64_t size)
{
    CkptWriter w;
    w.u64(links.size());
    for (std::size_t i = 0; i < links.size(); ++i) {
        w.i64(1);           // file
        w.u64(i);           // block
        w.boolean(true);    // valid
        w.boolean(false);   // dirty
        w.i64(2);           // owner
        w.u32(static_cast<std::uint32_t>(i));
        w.u32(links[i].prev);
        w.u32(links[i].next);
    }
    w.u64(0);               // free-slab slots
    w.u32(head);
    w.u32(tail);
    w.u64(size);
    w.u64(0);               // dirty blocks
    w.u64(1);               // per-SPU page counts: SPU 2 holds all
    w.u64(2);
    w.u64(links.size());
    return w.image(0);
}

/** Load a buffer-cache section; @return the ConfigError's text, or
 *  "" when it loads. */
std::string
cacheRejection(const std::string &image)
{
    CkptReader r(image);
    CkptIo io(r);
    BufferCache cache;
    try {
        cache.ckpt(io, 8);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

/** Load a one-entry table whose id is @p id. */
void
loadTable(std::uint64_t id)
{
    CkptWriter w;
    w.u64(1);
    w.u64(id);
    w.u64(0);
    CkptReader r(w.image(0));
    CkptIo io(r);
    SpuTable<std::uint64_t> table;
    table.table(io, 8, [&io](std::uint64_t &v) { io.u64(v); });
}

} // namespace

TEST(CheckpointFuzz, HugeSectionCountsAreRejectedBeforeSizing)
{
    // A well-formed, checksummed payload whose section count claims
    // more elements than there are bytes left must be rejected before
    // anything is sized by it: a free-slab count of 2^61 once escaped
    // the buffer cache's reserve() as std::length_error.
    {
        CkptWriter w;
        w.u64(0);            // slab blocks
        w.u64(1ull << 61);   // free-slab slots
        CkptReader r(w.image(0));
        CkptIo io(r);
        BufferCache cache;
        EXPECT_THROW(cache.ckpt(io, 8), ConfigError);
    }
    {
        CkptWriter w;
        w.u64(1ull << 61);   // present entries
        CkptReader r(w.image(0));
        CkptIo io(r);
        SpuTable<std::uint64_t> table;
        EXPECT_THROW(table.table(io, 8, [&io](std::uint64_t &v) { io.u64(v); }),
                     ConfigError);
    }

    // Table ids outside the configuration: 2^31-1 once sized the table
    // to it (std::bad_alloc), 2^32-1 read back as SPU -1 and panicked.
    EXPECT_NO_THROW(loadTable(7));
    EXPECT_THROW(loadTable((1ull << 31) - 1), ConfigError);
    EXPECT_THROW(loadTable((1ull << 32) - 1), ConfigError);
    EXPECT_THROW(loadTable(8), ConfigError);
    {
        CkptWriter w;
        w.u64(2);            // ids must ascend strictly
        w.u64(3);
        w.u64(0);
        w.u64(3);
        w.u64(0);
        CkptReader r(w.image(0));
        CkptIo io(r);
        SpuTable<std::uint64_t> table;
        EXPECT_THROW(table.table(io, 8, [&io](std::uint64_t &v) { io.u64(v); }),
                     ConfigError);
    }

    // The set-up replay rebuilds the file table, so an image whose
    // set-up file count disagrees with the replay is refused by name
    // before any file is appended.
    {
        FileSystem saved;
        saved.addDisk(0, 1 << 20);
        for (int i = 0; i < 3; ++i)
            saved.createFile(0, 4096, FilePlacement::Scattered);
        saved.endSetup();
        CkptWriter w;
        CkptIo save(w);
        saved.ckpt(save);

        FileSystem replayed;
        replayed.addDisk(0, 1 << 20);
        replayed.createFile(0, 4096, FilePlacement::Scattered);
        replayed.endSetup();
        CkptReader r(w.image(0));
        CkptIo load(r);
        try {
            replayed.ckpt(load);
            ADD_FAILURE() << "mismatched set-up file count accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "checkpoint set-up file count 3 does not match "
                          "the replayed configuration"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(replayed.fileCount(), 1u);
    }

    // Buffer-cache links are followed only after they are validated:
    // a head far past the slab once loaded and crashed the next insert.
    // The chain 1 -> 0 (tail 1, head 0) is well formed.
    const auto rejected = [](const std::string &image, const char *why) {
        return cacheRejection(image).find(why) != std::string::npos;
    };
    EXPECT_EQ(cacheRejection(cacheImage({{kNull, 1}, {0, kNull}}, 0, 1, 2)),
              "");
    EXPECT_TRUE(rejected(cacheImage({{kNull, kNull}}, 4000000, 0, 1),
                         "head or tail out of range"));
    // A 2-cycle: walking prev from the tail returns to it.
    EXPECT_TRUE(
        rejected(cacheImage({{1, 1}, {0, kNull}}, 0, 1, 2), "cycle"));
    // Block 0's next does not name block 1, whose prev is block 0.
    EXPECT_TRUE(rejected(cacheImage({{kNull, kNull}, {0, kNull}}, 0, 1, 2),
                         "links disagree"));
    // The list holds two blocks, size_ claims three.
    EXPECT_TRUE(rejected(cacheImage({{kNull, 1}, {0, kNull}}, 0, 1, 3),
                         "size says 3"));
}

// ---------------------------------------------------------------------
// EventQueue schedule/cancel/run/snapshot/restore interleaving fuzz
// ---------------------------------------------------------------------

namespace {

/** The model: live events as sorted (when, seq) -> tag. */
struct ModelEvent
{
    Time when;
    std::uint64_t seq;
    int tag;

    bool
    operator<(const ModelEvent &o) const
    {
        return when != o.when ? when < o.when : seq < o.seq;
    }
};

/**
 * One fuzz round: random interleavings of schedule/cancel/run against
 * both the real queue and the model; then snapshot the queue exactly
 * the way Simulation::checkpoint does, restore into a *fresh* queue,
 * and require both the restored queue and the original to drain in
 * the model's order.
 */
void
fuzzRound(std::uint64_t seed)
{
    Rng rng(seed);
    EventQueue q;
    test::FnSink s(q);
    std::vector<ModelEvent> model;
    std::vector<int> fired;            // tags, in queue firing order
    std::vector<int> modelFired;       // tags, in model order
    std::map<std::uint64_t, EventId> bySeq;
    int nextTag = 0;

    const auto scheduleOne = [&] {
        const Time when = q.now() + rng.uniformInt(50);
        const std::uint64_t seq = q.nextSeq();
        const int tag = nextTag++;
        EventId id =
            s.schedule(when, [&fired, tag] { fired.push_back(tag); });
        model.push_back({when, seq, tag});
        bySeq[seq] = id;
    };

    const auto runOne = [&] {
        if (model.empty()) {
            EXPECT_FALSE(q.runOne());
            return;
        }
        const auto it = std::min_element(model.begin(), model.end());
        modelFired.push_back(it->tag);
        bySeq.erase(it->seq);
        model.erase(it);
        ASSERT_TRUE(q.runOne());
    };

    const auto cancelOne = [&] {
        if (bySeq.empty())
            return;
        auto it = bySeq.begin();
        std::advance(it, rng.uniformInt(bySeq.size()));
        ASSERT_TRUE(q.cancel(it->second));
        model.erase(std::find_if(model.begin(), model.end(),
                                 [&](const ModelEvent &e) {
                                     return e.seq == it->first;
                                 }));
        bySeq.erase(it);
    };

    for (int op = 0; op < 400; ++op) {
        switch (rng.uniformInt(4)) {
        case 0:
        case 1:
            scheduleOne();
            break;
        case 2:
            runOne();
            break;
        default:
            cancelOne();
            break;
        }
    }
    EXPECT_EQ(q.pending(), model.size());

    // Snapshot exactly as Simulation::checkpoint does: collect the
    // pending records, sort by seq for determinism.
    struct Desc
    {
        Time when;
        std::uint64_t seq;
    };
    std::vector<Desc> descs;
    q.forEachPending([&](EventId, Time when, std::uint64_t seq, EvKind,
                         const EventArg &) { descs.push_back({when, seq}); });
    std::sort(descs.begin(), descs.end(),
              [](const Desc &a, const Desc &b) { return a.seq < b.seq; });
    ASSERT_EQ(descs.size(), model.size());
    const Time snapNow = q.now();
    const std::uint64_t snapSeq = q.nextSeq();
    const std::uint64_t snapExec = q.executedEvents();

    // Rebind into a fresh queue, looking each event's tag up by its
    // sequence number (the simulator images each record's kind and arg
    // instead).
    std::map<std::uint64_t, int> tagBySeq;
    for (const ModelEvent &e : model)
        tagBySeq[e.seq] = e.tag;

    EventQueue r;
    test::FnSink rs(r);
    std::vector<int> rFired;
    for (const Desc &d : descs) {
        const int tag = tagBySeq.at(d.seq);
        rs.scheduleRestored(d.when, d.seq,
                            [&rFired, tag] { rFired.push_back(tag); });
    }
    r.restoreClock(snapNow, snapSeq, snapExec);
    EXPECT_EQ(r.now(), snapNow);
    EXPECT_EQ(r.nextSeq(), snapSeq);
    EXPECT_EQ(r.executedEvents(), snapExec);
    EXPECT_EQ(r.pending(), q.pending());

    // The restored queue and the original queue must both drain in the
    // model's exact order.
    std::sort(model.begin(), model.end());
    std::vector<int> expect;
    for (const ModelEvent &e : model)
        expect.push_back(e.tag);

    while (r.runOne()) {
    }
    EXPECT_EQ(rFired, expect) << "restored drain order diverged";

    const std::size_t firedBefore = fired.size();
    while (q.runOne()) {
    }
    EXPECT_EQ(std::vector<int>(fired.begin() + firedBefore, fired.end()),
              expect)
        << "original drain order diverged";
    EXPECT_EQ(modelFired,
              std::vector<int>(fired.begin(),
                               fired.begin() + firedBefore));
}

} // namespace

TEST(CheckpointFuzz, EventQueueRestorePreservesOrderUnderInterleaving)
{
    for (std::uint64_t seed = 1; seed <= 40; ++seed)
        fuzzRound(seed);
}

TEST(CheckpointFuzz, ClearPendingDestroysEverything)
{
    EventQueue q;
    test::FnSink s(q);
    int firedCount = 0;
    for (int i = 0; i < 100; ++i)
        s.schedule(i, [&firedCount] { ++firedCount; });
    q.clearPending();
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.runOne());
    EXPECT_EQ(firedCount, 0);
}
