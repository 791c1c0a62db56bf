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
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
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

/** kSpec under @p scheme. */
WorkloadSpec
specFor(Scheme scheme)
{
    WorkloadSpec spec = parseWorkloadSpec(kSpec);
    spec.config.scheme = scheme;
    return spec;
}

/** The image of kSpec under @p scheme at 50 ms. */
std::string
imageAt50ms(Scheme scheme)
{
    WorkloadSpec spec = specFor(scheme);
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
}

/** One valid checkpoint image of kSpec, built once per process. */
const std::string &
validImage()
{
    static const std::string image = imageAt50ms(Scheme::PIso);
    return image;
}

/** A valid image taken mid-I/O: under Quo the one disk is busy from
 *  the first request on, so the image holds a request in service,
 *  queued requests, live I/O ops and their pending watchdogs. */
const std::string &
midIoImage()
{
    static const std::string image = imageAt50ms(Scheme::Quota);
    return image;
}

/**
 * Feed @p image to a fresh, correctly-populated Simulation's restore.
 * Returns normally only if restore accepted the bytes.
 */
void
tryRestore(const std::string &image, Scheme scheme = Scheme::PIso)
{
    WorkloadSpec spec = specFor(scheme);
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    std::istringstream in(image);
    sim.restore(in);
}

/** The corpus the truncation and corruption tests mutate. */
struct Corpus
{
    const std::string &image;
    Scheme scheme;
};

std::vector<Corpus>
corpus()
{
    return {{validImage(), Scheme::PIso}, {midIoImage(), Scheme::Quota}};
}

} // namespace

// ---------------------------------------------------------------------
// Container corruption: every mutation rejects with a SimError
// ---------------------------------------------------------------------

TEST(CheckpointFuzz, BothImagesOfTheCorpusRestore)
{
    EXPECT_NO_THROW(tryRestore(validImage()));
    EXPECT_NO_THROW(tryRestore(midIoImage(), Scheme::Quota));
    // The mid-I/O image holds more than the other's idle devices.
    EXPECT_GT(midIoImage().size(), validImage().size());
}

TEST(CheckpointFuzz, TruncationsAreRejectedStructurally)
{
    for (const Corpus &c : corpus()) {
        const std::string &image = c.image;
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
            EXPECT_THROW(tryRestore(cut, c.scheme), SimError)
                << "truncation to " << n << " bytes accepted";
        }
    }
}

TEST(CheckpointFuzz, SingleByteCorruptionIsRejectedStructurally)
{
    for (const Corpus &c : corpus()) {
        const std::string &image = c.image;
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
            EXPECT_THROW(tryRestore(bad, c.scheme), SimError)
                << "byte flip at offset " << off << " accepted";
        }
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

    std::string wrongFlags = image;
    wrongFlags[12] = 1;
    EXPECT_THROW(tryRestore(wrongFlags), ConfigError);

    std::string wrongDigest = image;
    wrongDigest[16] = static_cast<char>(wrongDigest[16] ^ 0x5a);
    EXPECT_THROW(tryRestore(wrongDigest), ConfigError);
}

TEST(CheckpointFuzz, OlderVersionsAreRefusedByName)
{
    // Version 1 imaged the buffer-cache index, version 2 the whole
    // file table, and version 3 could hold no I/O in flight; their
    // images are refused by name, not misread.
    ASSERT_EQ(kCkptVersion, 4u);
    for (const int old : {1, 2, 3}) {
        std::string oldImage = validImage();
        oldImage[8] = static_cast<char>(old);
        try {
            tryRestore(oldImage);
            ADD_FAILURE() << "version-" << old << " image accepted";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          "format version " + std::to_string(old) +
                          " (this build reads version 4)"),
                      std::string::npos)
                << e.what();
        }
    }
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

TEST(CheckpointFuzz, RewoundReaderReadsWhatAFreshParseReads)
{
    const std::string &image = validImage();
    // The reader a sweep keeps owns its image and has read the
    // boundary time; readers rewound from it start over at payload
    // offset 0, and so does a reader rewound from a rewound one.
    CkptReader verified{std::string(image)};
    const Time at = verified.time();
    EXPECT_EQ(at, 50 * kMs);
    CkptReader once = verified.rewound();
    CkptReader twice = once.rewound();
    for (CkptReader *r : {&once, &twice}) {
        CkptReader fresh(image);
        EXPECT_EQ(r->configDigest(), fresh.configDigest());
        ASSERT_EQ(r->remaining(), fresh.remaining());
        EXPECT_EQ(r->time(), at);
        EXPECT_EQ(fresh.time(), at);
        while (fresh.remaining() > 0)
            ASSERT_EQ(r->u8(), fresh.u8());
        EXPECT_THROW(r->u8(), ConfigError);
        EXPECT_NO_THROW(r->expectEnd());
    }
}

TEST(CheckpointFuzz, RestoreFromAVerifiedReaderIsByteIdentical)
{
    for (const Corpus &c : corpus()) {
        const WorkloadSpec spec = specFor(c.scheme);
        const auto resumed = [&spec](auto &&restore) {
            Simulation sim(spec.config);
            populateWorkloadSpec(sim, spec);
            restore(sim);
            std::ostringstream image;
            sim.checkpoint(image);
            return std::make_pair(image.str(),
                                  formatResultsJson(sim.run()));
        };
        const auto fromBytes = resumed(
            [&c](Simulation &sim) { sim.restore(std::string_view(c.image)); });
        EXPECT_EQ(fromBytes.first, c.image);
        // One verified reader, partly read, restores two simulations.
        CkptReader verified(c.image);
        verified.time();
        for (int member = 0; member < 2; ++member) {
            const auto fromReader = resumed(
                [&verified](Simulation &sim) { sim.restore(verified); });
            EXPECT_EQ(fromReader, fromBytes) << "member " << member;
        }
    }
}

TEST(CheckpointFuzz, PayloadFlipIsRejectedOnEveryPathFromBytes)
{
    // Bytes from outside the process are checked in full wherever they
    // enter: Simulation::restore from a stream (piso_run --restore and
    // perfbench's round trip read that way too) or from memory,
    // runWorkloadSpecFrom, and the CkptReader a sweep builds its
    // template reader with. The tools/ ctest tool_run_restore_rejects_
    // flipped_byte drives piso_run itself.
    const std::string &image = validImage();
    const WorkloadSpec spec = specFor(Scheme::PIso);
    Rng rng(0xbeefu);
    for (int i = 0; i < 24; ++i) {
        // Past the 32-byte header, before the 8-byte checksum.
        const std::size_t off = 32 + rng.uniformInt(image.size() - 40);
        std::string bad = image;
        bad[off] = static_cast<char>(bad[off] ^ 0x10);
        const auto fresh = [&spec] {
            auto sim = std::make_unique<Simulation>(spec.config);
            populateWorkloadSpec(*sim, spec);
            return sim;
        };
        std::istringstream in(bad);
        EXPECT_THROW(fresh()->restore(in), ConfigError) << off;
        EXPECT_THROW(fresh()->restore(std::string_view(bad)), ConfigError)
            << off;
        EXPECT_THROW(runWorkloadSpecFrom(spec, bad), ConfigError) << off;
        EXPECT_THROW(CkptReader{std::string(bad)}, ConfigError) << off;
    }
}

namespace {

constexpr std::uint32_t kNull = 0xffffffffu;

/** One imaged cache block's LRU links. */
struct Links
{
    std::uint32_t prev;
    std::uint32_t next;
};

/** Block 0's waiter list and the waiter pool: (pid, next) nodes. */
struct Waiting
{
    std::uint32_t head = kNull;
    std::uint32_t tail = kNull;
    std::vector<std::pair<std::int64_t, std::uint32_t>> nodes;
    std::uint32_t freeHead = kNull;
};

/** A checksummed buffer-cache section: one clean block of SPU 2 per
 *  entry of @p links, valid unless it is block 0 with waiters, no free
 *  slots, the given list ends and size, and @p waiting. */
std::string
cacheImage(const std::vector<Links> &links, std::uint32_t head,
           std::uint32_t tail, std::uint64_t size,
           const Waiting &waiting = {})
{
    CkptWriter w;
    w.u64(links.size());
    for (std::size_t i = 0; i < links.size(); ++i) {
        const bool waited = i == 0 && waiting.head != kNull;
        w.i64(1);           // file
        w.u64(i);           // block
        w.boolean(!waited); // valid
        w.boolean(false);   // dirty
        w.boolean(false);   // flushing
        w.i64(2);           // owner
        w.u32(static_cast<std::uint32_t>(i));
        w.u32(links[i].prev);
        w.u32(links[i].next);
        w.u32(i == 0 ? waiting.head : kNull);
        w.u32(i == 0 ? waiting.tail : kNull);
    }
    w.u64(0);               // free-slab slots
    w.u32(head);
    w.u32(tail);
    w.u64(size);
    w.u64(0);               // dirty blocks
    w.u64(1);               // per-SPU page counts: SPU 2 holds all
    w.u64(2);
    w.u64(links.size());
    w.u64(waiting.nodes.size());
    for (const auto &[pid, next] : waiting.nodes) {
        w.i64(pid);
        w.u32(next);
    }
    w.u32(waiting.freeHead);
    return w.image(0);
}

/** The cache's pid resolver where no process exists. */
Process *
noProcess(Pid pid)
{
    throw ConfigError("unknown pid " + std::to_string(pid));
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
        cache.ckpt(io, noProcess, 8);
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
        EXPECT_THROW(cache.ckpt(io, noProcess, 8), ConfigError);
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

    // Waiter lists are followed only after they are validated too. A
    // free node on the free list is well formed.
    const std::vector<Links> one = {{kNull, kNull}};
    EXPECT_EQ(cacheRejection(cacheImage(
                  one, 0, 0, 1, {kNull, kNull, {{kNoPid, kNull}}, 0})),
              "");
    // Block 0 waits on node 5 of an empty pool.
    EXPECT_TRUE(rejected(cacheImage(one, 0, 0, 1, {5, 5, {}, kNull}),
                         "waiter node 5 out of range"));
    // Its waiter is pid 42, which the replay never created.
    EXPECT_TRUE(rejected(cacheImage(one, 0, 0, 1,
                                    {0, 0, {{42, kNull}}, kNull}),
                         "unknown pid 42"));
    // A node on neither a block's list nor the free list.
    EXPECT_TRUE(rejected(
        cacheImage(one, 0, 0, 1, {kNull, kNull, {{kNoPid, kNull}}, kNull}),
        "node on no list"));
    // The free list runs into a node twice.
    EXPECT_TRUE(rejected(
        cacheImage(one, 0, 0, 1, {kNull, kNull, {{kNoPid, 0}}, 0}),
        "on two lists"));
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
