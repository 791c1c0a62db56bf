/**
 * @file
 * Replay-equivalence battery for bit-exact checkpoint/restore
 * (docs/checkpoint.md).
 *
 * The contract under test: a run that is checkpointed at time T and
 * restored into a freshly-built, identically-configured Simulation
 * produces byte-identical output — the JSON results, the human report,
 * and the execution trace — to the run that never stopped. The battery
 * exercises mid-run checkpoints across the paper-shaped workloads under
 * all three schemes, round-trip image stability (save → load → save),
 * the t=0 pre-run image, the config-digest guard, and the fault-plan
 * prefix contract the warm-start sweep engine is built on.
 *
 * Every test here also runs under -DPISO_HARDENED=ON in CI, so a
 * restore that leaves any subsystem in a state an invariant probe can
 * distinguish from the cold run fails the hardened job even if the
 * final report happens to match.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/config/workload_spec.hh"
#include "src/exp/experiment.hh"
#include "src/metrics/monitor.hh"
#include "src/metrics/report.hh"
#include "src/piso.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/trace.hh"

using namespace piso;

namespace {

/** Figure 2 shape, scaled down: four SPUs of pmakes, unbalanced. */
const char *kPmakeShape = R"(
machine cpus=4 memory_mb=24 disks=4 scheme=piso seed=7
spu user1 share=1 disk=0
spu user2 share=1 disk=1
spu user3 share=1 disk=2
spu user4 share=1 disk=3
job user1 pmake name=pm1 workers=2 files=4
job user2 pmake name=pm2 workers=2 files=4
job user3 pmake name=pm3a workers=2 files=4
job user3 pmake name=pm3b workers=2 files=4
job user4 pmake name=pm4 workers=2 files=4
)";

/** Figure 5 shape, scaled down: compute hogs against a science job. */
const char *kComputeShape = R"(
machine cpus=4 memory_mb=32 disks=2 scheme=piso seed=3
spu ocean share=1 disk=0
spu eng share=1 disk=1
job ocean ocean name=sim procs=2 iters=40 grain_ms=20 ws_pages=400
job eng compute name=hog1 cpu_ms=2500 ws_pages=300
job eng compute name=hog2 cpu_ms=2500 ws_pages=300
)";

/** Table 3 shape: pmake vs a file copy contending on one disk. */
const char *kCopyShape = R"(
machine cpus=2 memory_mb=24 disks=1 scheme=piso seed=5
spu pmk share=1 disk=0
spu cpy share=1 disk=0
job pmk pmake name=build workers=2 files=6
job cpy copy name=cp bytes_kb=4096
)";

/** Hierarchy + services shape ([spus] tree, oltp in the mix). */
const char *kTreeShape = R"(
machine cpus=4 memory_mb=32 disks=2 scheme=piso seed=11
[spus]
eng share=2
eng.build share=3 disk=0
eng.test share=1 disk=1
ops share=1
ops.db share=1 disk=1
job eng.build pmake name=build workers=2 files=4
job eng.test compute name=tst cpu_ms=1500 ws_pages=200
job ops.db oltp name=db servers=2 txns=40
)";

struct Shape
{
    const char *name;
    const char *text;

    /** Two mid-run checkpoint times per shape. Quiescent boundaries
     *  (no I/O in flight) are a property of the workload: the
     *  disk-saturating shapes only quiesce in specific phases, so the
     *  times are chosen where each shape actually breathes. */
    Time early;
    Time late;
};

const Shape kShapes[] = {
    {"pmake", kPmakeShape, 500 * kMs, 1500 * kMs},
    {"compute", kComputeShape, 500 * kMs, 2 * kSec},
    {"copy", kCopyShape, 50 * kMs, 90 * kMs},
    {"tree", kTreeShape, 500 * kMs, 1510 * kMs}};

const Scheme kSchemes[] = {Scheme::Smp, Scheme::Quota, Scheme::PIso};

WorkloadSpec
shapeSpec(const char *text, Scheme scheme)
{
    WorkloadSpec spec = parseWorkloadSpec(text);
    spec.config.scheme = scheme;
    return spec;
}

/** One observed run: checkpoint image + the run's own results. */
struct Observed
{
    std::string image;
    SimResults results;
};

/** Run @p spec to completion with a checkpoint requested at @p at. */
Observed
observe(WorkloadSpec spec, Time at, bool stop = false)
{
    Observed o;
    spec.config.checkpointAt = at;
    spec.config.checkpointStop = stop;
    spec.config.checkpointSink = [&o](std::string img) {
        o.image = std::move(img);
    };
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    o.results = sim.run();
    return o;
}

std::string
coldJson(const WorkloadSpec &spec)
{
    return formatResultsJson(runWorkloadSpec(spec));
}

/** Trace lines of one full run, captured as "t cat msg" strings. */
std::vector<std::string>
tracedRun(const WorkloadSpec &spec, const std::string *image = nullptr)
{
    std::vector<std::string> lines;
    TraceContext ctx;
    ctx.mask = TraceCat::All;
    ctx.sink = [&lines](Time t, TraceCat, const std::string &msg) {
        lines.push_back(std::to_string(t) + " " + msg);
    };
    TraceContextScope scope(ctx);

    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    if (image) {
        std::istringstream in(*image);
        sim.restore(in);
    }
    sim.run();
    return lines;
}

} // namespace

// ---------------------------------------------------------------------
// Replay equivalence: restored output is byte-identical to cold
// ---------------------------------------------------------------------

TEST(Checkpoint, RestoredRunMatchesColdAcrossShapesAndSchemes)
{
    for (const Shape &shape : kShapes) {
        for (Scheme scheme : kSchemes) {
            const WorkloadSpec spec = shapeSpec(shape.text, scheme);

            // The documented counter-example (docs/checkpoint.md): the
            // copy shape under the quota scheme keeps its single disk
            // busy for the entire run, so no quiescent boundary ever
            // exists and a requested checkpoint must fail loudly
            // instead of being silently dropped.
            if (shape.text == kCopyShape && scheme == Scheme::Quota) {
                EXPECT_THROW(observe(spec, shape.early),
                             InvariantError);
                continue;
            }

            const std::string cold = coldJson(spec);

            for (Time at : {shape.early, shape.late}) {
                const Observed o = observe(spec, at);
                ASSERT_FALSE(o.image.empty())
                    << shape.name << "/" << schemeName(scheme)
                    << ": no checkpoint fired at t=" << at;

                // The observing run itself must be unperturbed ...
                EXPECT_EQ(formatResultsJson(o.results), cold)
                    << shape.name << "/" << schemeName(scheme)
                    << " t=" << at;
                // ... and the restored continuation byte-identical.
                EXPECT_EQ(formatResultsJson(
                              runWorkloadSpecFrom(spec, o.image)),
                          cold)
                    << shape.name << "/" << schemeName(scheme)
                    << " t=" << at;
            }
        }
    }
}

TEST(Checkpoint, RestoredHumanReportMatchesCold)
{
    const WorkloadSpec spec = shapeSpec(kCopyShape, Scheme::PIso);
    const std::string cold = formatResults(runWorkloadSpec(spec));
    const Observed o = observe(spec, 50 * kMs);
    ASSERT_FALSE(o.image.empty());
    EXPECT_EQ(formatResults(runWorkloadSpecFrom(spec, o.image)), cold);
}

TEST(Checkpoint, RestoredTraceIsTheColdRunsSuffix)
{
    const WorkloadSpec spec = shapeSpec(kCopyShape, Scheme::PIso);
    const Observed o = observe(spec, 50 * kMs);
    ASSERT_FALSE(o.image.empty());

    // The restored clock tells us where the cold trace should be cut:
    // everything the restored run emits happens strictly after the
    // checkpoint boundary.
    Simulation probe(spec.config);
    populateWorkloadSpec(probe, spec);
    std::istringstream in(o.image);
    probe.restore(in);
    const Time boundary = probe.events().now();

    // The same cut is applied to the warm run: rebuilding the sim for a
    // restore replays the t=0 setup, which legitimately emits its own
    // setup-time trace lines before the image is loaded.
    const auto tail = [boundary](const std::vector<std::string> &lines) {
        std::vector<std::string> out;
        for (const std::string &line : lines)
            if (std::stoull(line) > boundary)
                out.push_back(line);
        return out;
    };
    const std::vector<std::string> coldTail = tail(tracedRun(spec));
    const std::vector<std::string> warmTail =
        tail(tracedRun(spec, &o.image));
    EXPECT_FALSE(warmTail.empty());
    EXPECT_EQ(warmTail, coldTail);
}

// ---------------------------------------------------------------------
// Round trip: save -> load -> save produces identical bytes
// ---------------------------------------------------------------------

TEST(Checkpoint, RoundTripImageIsByteIdentical)
{
    for (const Shape &shape : kShapes) {
        const WorkloadSpec spec = shapeSpec(shape.text, Scheme::PIso);
        const Observed o = observe(spec, shape.early);
        ASSERT_FALSE(o.image.empty()) << shape.name;

        Simulation sim(spec.config);
        populateWorkloadSpec(sim, spec);
        std::istringstream in(o.image);
        sim.restore(in);
        std::ostringstream out;
        sim.checkpoint(out);
        EXPECT_EQ(out.str(), o.image) << shape.name;
    }
}

TEST(Checkpoint, StopAfterCheckpointProducesTheSameImage)
{
    const WorkloadSpec spec = shapeSpec(kComputeShape, Scheme::PIso);
    const Observed full = observe(spec, kSec);
    const Observed stopped = observe(spec, kSec, /*stop=*/true);
    ASSERT_FALSE(full.image.empty());
    EXPECT_EQ(stopped.image, full.image);
}

// ---------------------------------------------------------------------
// t=0 images: checkpoint before run() is a complete cold start
// ---------------------------------------------------------------------

TEST(Checkpoint, TimeZeroImageRestoresToTheColdRun)
{
    for (Scheme scheme : kSchemes) {
        const WorkloadSpec spec = shapeSpec(kPmakeShape, scheme);

        Simulation sim(spec.config);
        populateWorkloadSpec(sim, spec);
        std::ostringstream out;
        sim.checkpoint(out);
        ASSERT_FALSE(out.str().empty());

        EXPECT_EQ(formatResultsJson(
                      runWorkloadSpecFrom(spec, out.str())),
                  coldJson(spec))
            << schemeName(scheme);
    }
}

// ---------------------------------------------------------------------
// The file table is replayed, not imaged
// ---------------------------------------------------------------------

namespace {

/** A machine too small for its two working sets: the pageout daemon
 *  and refaults reserve swap extents soon after the start. */
const char *kSwapShape = R"(
machine cpus=2 memory_mb=8 disks=2 scheme=piso seed=13
spu a share=1 disk=0
spu b share=1 disk=1
job a compute name=big1 cpu_ms=3000 ws_pages=1500
job b compute name=big2 cpu_ms=3000 ws_pages=1500
)";

std::string
pmakeTimeZeroImage(int files)
{
    const WorkloadSpec spec = parseWorkloadSpec(
        "machine cpus=4 memory_mb=24 disks=2 scheme=piso seed=7\n"
        "spu a share=1 disk=0\n"
        "spu b share=1 disk=1\n"
        "job a pmake name=pa workers=2 files=" +
        std::to_string(files) +
        "\n"
        "job b pmake name=pb workers=2 files=" +
        std::to_string(files) + "\n");
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    std::ostringstream out;
    sim.checkpoint(out);
    return out.str();
}

} // namespace

TEST(Checkpoint, TimeZeroImageSizeDoesNotGrowWithTheFileCount)
{
    const std::string few = pmakeTimeZeroImage(64);
    const std::string many = pmakeTimeZeroImage(4096);
    EXPECT_EQ(few.size(), many.size());
}

TEST(Checkpoint, PagedOutShapeImagesItsSwapExtentsAndRestoresExactly)
{
    const WorkloadSpec spec = parseWorkloadSpec(kSwapShape);

    // The set-up's files: a t=0 checkpoint replays the set-up.
    Simulation fresh(spec.config);
    populateWorkloadSpec(fresh, spec);
    std::ostringstream t0;
    fresh.checkpoint(t0);
    const std::size_t setupFiles = fresh.fs().fileCount();

    WorkloadSpec stopAt = spec;
    std::string image;
    stopAt.config.checkpointAt = 600 * kMs;
    stopAt.config.checkpointStop = true;
    stopAt.config.checkpointSink = [&image](std::string img) {
        image = std::move(img);
    };
    Simulation first(stopAt.config);
    populateWorkloadSpec(first, stopAt);
    first.run();
    ASSERT_FALSE(image.empty());

    // Every file made after set-up is a swap extent, one per SPU.
    const FileSystem &fs = first.fs();
    ASSERT_EQ(fs.fileCount(), setupFiles + 2)
        << "both SPUs should have paged out before the checkpoint";
    for (std::size_t i = setupFiles; i < fs.fileCount(); ++i) {
        const FileInfo &f = fs.file(static_cast<FileId>(i));
        EXPECT_EQ(f.metadataSector, 0u);
        EXPECT_EQ(f.sectors,
                  spec.config.kernel.swapExtentPages * fs.sectorsPerBlock());
    }

    // The restored table is the replayed set-up plus exactly the
    // imaged extents, record for record.
    Simulation warm(spec.config);
    populateWorkloadSpec(warm, spec);
    std::istringstream in(image);
    warm.restore(in);
    ASSERT_EQ(warm.fs().fileCount(), fs.fileCount());
    for (std::size_t i = 0; i < fs.fileCount(); ++i) {
        const FileInfo &a = fs.file(static_cast<FileId>(i));
        const FileInfo &b = warm.fs().file(static_cast<FileId>(i));
        ASSERT_EQ(b.id, a.id);
        ASSERT_EQ(b.disk, a.disk);
        ASSERT_EQ(b.startSector, a.startSector);
        ASSERT_EQ(b.sectors, a.sectors);
        ASSERT_EQ(b.metadataSector, a.metadataSector);
        ASSERT_EQ(b.bytes, a.bytes);
    }
    std::ostringstream again;
    warm.checkpoint(again);
    EXPECT_EQ(again.str(), image);
    EXPECT_EQ(formatResultsJson(warm.run()), coldJson(spec));
}

// ---------------------------------------------------------------------
// The config digest guards against mismatched configurations
// ---------------------------------------------------------------------

TEST(Checkpoint, DigestRejectsMismatchedConfig)
{
    const WorkloadSpec spec = shapeSpec(kCopyShape, Scheme::PIso);
    const Observed o = observe(spec, 50 * kMs);
    ASSERT_FALSE(o.image.empty());

    {
        WorkloadSpec other = spec;
        other.config.seed = spec.config.seed + 1;
        EXPECT_THROW(runWorkloadSpecFrom(other, o.image), ConfigError);
    }
    {
        WorkloadSpec other = spec;
        other.config.scheme = Scheme::Smp;
        EXPECT_THROW(runWorkloadSpecFrom(other, o.image), ConfigError);
    }
    {
        WorkloadSpec other = spec;
        other.config.cpus = spec.config.cpus + 2;
        EXPECT_THROW(runWorkloadSpecFrom(other, o.image), ConfigError);
    }
    {
        // SPU/job structure is part of the digest too.
        WorkloadSpec other = spec;
        other.spus[0].share = 3.0;
        EXPECT_THROW(runWorkloadSpecFrom(other, o.image), ConfigError);
    }
    {
        WorkloadSpec other = spec;
        other.jobs.pop_back();
        EXPECT_THROW(runWorkloadSpecFrom(other, o.image), ConfigError);
    }
}

TEST(Checkpoint, MaxTimeAndWatchdogsAreNotPartOfTheDigest)
{
    // Run-control knobs do not change the simulated prefix, so a
    // target may extend them relative to the template that produced
    // the image (the warm-start engine relies on this).
    const WorkloadSpec spec = shapeSpec(kCopyShape, Scheme::PIso);
    const Observed o = observe(spec, 50 * kMs);
    ASSERT_FALSE(o.image.empty());

    WorkloadSpec longer = spec;
    longer.config.maxTime = spec.config.maxTime * 2;
    longer.config.watchdogEvents = 50'000'000;
    EXPECT_EQ(formatResultsJson(runWorkloadSpecFrom(longer, o.image)),
              coldJson(longer));
}

// ---------------------------------------------------------------------
// The spec-level digest the warm-start engine groups by equals the
// digest of the Simulation the spec builds
// ---------------------------------------------------------------------

namespace {

std::uint64_t
builtDigest(const WorkloadSpec &spec)
{
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    return sim.configDigest();
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(Checkpoint, SpecDigestMatchesTheBuiltSimulationForEveryExample)
{
    std::size_t specs = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(PISO_EXAMPLE_SPEC_DIR)) {
        if (entry.path().extension() != ".piso")
            continue;
        ++specs;
        const WorkloadSpec spec =
            parseWorkloadSpec(readFile(entry.path()));
        EXPECT_EQ(specConfigDigest(spec), builtDigest(spec))
            << entry.path().filename();
    }
    EXPECT_GE(specs, 5u);
}

TEST(Checkpoint, SpecDigestMatchesTheBuiltSimulationForEveryGridKey)
{
    // One variant per grid key (docs/sweeps.md), over a hierarchical
    // spec with a delayed job so every digested field is populated.
    const WorkloadSpec base = parseWorkloadSpec(R"(
machine cpus=4 memory_mb=32 disks=2 scheme=piso seed=3
[spus]
eng       share=2
eng.build share=3 disk=0
eng.test  share=1 disk=1
ops       share=1 disk=1
job eng.build pmake   name=build workers=2 files=4
job eng.test  compute name=fuzz cpu_ms=500 ws_pages=100 start_s=0.25
job ops       copy    name=logs bytes_kb=1024
)");
    const std::vector<std::pair<std::string, std::string>> variants = {
        {"scheme", "quota"},         {"cpu", "smp"},
        {"memory", "quota"},         {"network", "smp"},
        {"disk_policy", "pos"},      {"cpus", "6"},
        {"disks", "3"},              {"memory_mb", "48"},
        {"seed", "11"},              {"max_time_s", "5"},
        {"network_mbps", "100"},     {"bw_threshold", "512"},
        {"bw_halflife_ms", "250"},   {"seek_scale", "0.5"},
        {"ipi_revocation", "0"},     {"loan_holdoff_ms", "20"},
        {"tick_ms", "20"},           {"slice_ms", "40"},
        {"reserve_frac", "0.2"},     {"numa_domains", "2"},
        {"numa_local_us", "0.2"},    {"numa_remote_us", "0.9"},
        {"bus_mbps", "800"},         {"bus_saturation", "0.7"},
        {"bus_halflife_ms", "5"},    {"fault_disk_slow", "1:1:0:4"},
        {"fault_disk_error", "1:1:0:0.5"},
        {"fault_disk_dead", "2:1"},
    };
    EXPECT_EQ(specConfigDigest(base), builtDigest(base));
    for (const auto &[key, value] : variants) {
        WorkloadSpec spec = base;
        exp::applyGridKey(spec.config, key, value);
        EXPECT_EQ(specConfigDigest(spec), builtDigest(spec))
            << key << "=" << value;
    }
}

TEST(Checkpoint, SpecDigestRejectsAnUndeclaredSpu)
{
    WorkloadSpec spec = shapeSpec(kCopyShape, Scheme::PIso);
    spec.jobs.front().spu = "nobody";
    EXPECT_THROW(specConfigDigest(spec), ConfigError);
}

// ---------------------------------------------------------------------
// Fault plans: the warm-start prefix contract
// ---------------------------------------------------------------------

namespace {

WorkloadSpec
faultySpec(bool withLateFaults)
{
    WorkloadSpec spec = shapeSpec(kComputeShape, Scheme::PIso);
    // One early fault (before the checkpoint) shared by template and
    // target, plus target-only faults after it.
    spec.config.faults.diskSlow(300 * kMs, 0, 200 * kMs, 4.0);
    if (withLateFaults) {
        spec.config.faults.diskSlow(1500 * kMs, 0, 300 * kMs, 8.0);
        spec.config.faults.diskError(1800 * kMs, 0, 300 * kMs, 0.2);
    }
    return spec;
}

} // namespace

TEST(Checkpoint, RestoreUnderALongerFaultPlanMatchesCold)
{
    // Template: common fault prefix only, checkpoint after the prefix
    // has fully fired. Target: full fault plan, restored from the
    // template's image. The continuation must equal the target's cold
    // run byte for byte.
    const Observed tmpl = observe(faultySpec(false), kSec);
    ASSERT_FALSE(tmpl.image.empty());

    const WorkloadSpec target = faultySpec(true);
    EXPECT_EQ(formatResultsJson(runWorkloadSpecFrom(target, tmpl.image)),
              coldJson(target));
}

TEST(Checkpoint, CheckpointWaitsOutAnActiveFaultWindow)
{
    // checkpointAt lands inside the disk-slow window; the image must
    // not be cut while the restore-to-normal event is the only thing
    // keeping the window's end alive.
    const WorkloadSpec spec = faultySpec(false);
    const std::string cold = coldJson(spec);
    const Observed o = observe(spec, 350 * kMs);
    ASSERT_FALSE(o.image.empty());
    EXPECT_EQ(formatResultsJson(runWorkloadSpecFrom(spec, o.image)),
              cold);
}

// ---------------------------------------------------------------------
// Misuse and error handling
// ---------------------------------------------------------------------

TEST(Checkpoint, CheckpointAtWithoutSinkIsAConfigError)
{
    WorkloadSpec spec = shapeSpec(kCopyShape, Scheme::PIso);
    spec.config.checkpointAt = kSec;
    EXPECT_THROW(runWorkloadSpec(spec), ConfigError);
}

TEST(Checkpoint, UnreachableDeadlineIsAnInvariantError)
{
    WorkloadSpec spec = shapeSpec(kCopyShape, Scheme::PIso);
    // Request a checkpoint beyond the end of the run: the run drains
    // before ever reaching checkpointAt, and the deadline converts the
    // silent no-checkpoint into a structured failure.
    spec.config.checkpointAt = 3000 * kSec;
    spec.config.checkpointDeadline = 3000 * kSec;
    spec.config.checkpointSink = [](std::string) {};
    EXPECT_THROW(runWorkloadSpec(spec), InvariantError);
}

TEST(Checkpoint, RestoreAfterRunIsRejected)
{
    const WorkloadSpec spec = shapeSpec(kCopyShape, Scheme::PIso);
    const Observed o = observe(spec, 50 * kMs);
    ASSERT_FALSE(o.image.empty());

    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    sim.run();
    std::istringstream in(o.image);
    EXPECT_THROW(sim.restore(in), std::runtime_error);
}

TEST(Checkpoint, RestoreIntoUnpopulatedSimulationIsRejected)
{
    const WorkloadSpec spec = shapeSpec(kCopyShape, Scheme::PIso);
    const Observed o = observe(spec, 50 * kMs);
    ASSERT_FALSE(o.image.empty());

    // Same machine config, but the addSpu/addJob replay is missing:
    // the digest cannot match.
    Simulation sim(spec.config);
    std::istringstream in(o.image);
    EXPECT_THROW(sim.restore(in), ConfigError);
}

// ---------------------------------------------------------------------
// Big-machine coverage: NUMA/bus state survives the round trip
// ---------------------------------------------------------------------

// The 256-CPU x 512-SPU topology the scaling PR targets, with the NUMA
// memory domains and bus model enabled so the checkpoint image carries
// their counters. Only eight SPUs run jobs — the other 504 exist to
// put the big-machine population (SPU tables, ledger, scheduler
// registries) through serialization, which is exactly the state the
// O(active) loops index differently from the eager baseline.
TEST(Checkpoint, BigMachineNumaStateSurvivesTheRoundTrip)
{
    std::string text =
        "machine cpus=256 memory_mb=512 disks=8 scheme=piso seed=9 "
        "numa_domains=4 numa_local_us=1 numa_remote_us=3 "
        "bus_mbps=800 bus_saturation=0.7\n";
    for (int u = 0; u < 512; ++u)
        text += "spu u" + std::to_string(u) + " share=1 disk=" +
                std::to_string(u % 8) + "\n";
    // pmake workers block on disk and re-dispatch on whichever CPU is
    // free, so the touch stream crosses domains both ways; a static
    // one-job-per-CPU shape pins each SPU to one domain pairing and
    // can miss the local path entirely.
    for (int u = 0; u < 8; ++u)
        text += "job u" + std::to_string(u) + " pmake name=pm" +
                std::to_string(u) + " workers=2 files=4\n";

    const WorkloadSpec spec = parseWorkloadSpec(text);
    const SimResults cold = runWorkloadSpec(spec);
    ASSERT_TRUE(cold.numa.enabled);
    ASSERT_EQ(cold.numa.domains, 4);
    // Striped placement on a 4-domain machine: both kinds of touch
    // must actually occur, or the round trip proves nothing.
    ASSERT_GT(cold.numa.localTouches, 0u);
    ASSERT_GT(cold.numa.remoteTouches, 0u);
    ASSERT_GT(cold.numa.busBytes, 0u);

    const Observed o = observe(spec, 300 * kMs);
    ASSERT_FALSE(o.image.empty());

    const WorkloadSpec again = parseWorkloadSpec(text);
    Simulation sim(again.config);
    populateWorkloadSpec(sim, again);
    std::istringstream in(o.image);
    sim.restore(in);
    const SimResults warm = sim.run();

    EXPECT_EQ(formatResultsJson(warm), formatResultsJson(cold));
    EXPECT_EQ(warm.numa.localTouches, cold.numa.localTouches);
    EXPECT_EQ(warm.numa.remoteTouches, cold.numa.remoteTouches);
    EXPECT_EQ(warm.numa.busBytes, cold.numa.busBytes);
}

// ---------------------------------------------------------------------
// Image stability: the payload bytes are part of the format
// ---------------------------------------------------------------------

namespace {

/** FNV-1a digest of one image the battery above produces. */
struct PinnedImage
{
    const char *shape;
    Scheme scheme;
    /** The t=0 image, or the one taken at the shape's early time. */
    bool timeZero;
    std::uint64_t digest;
};

/** A mismatch here means the payload layout changed: that needs a
 *  kCkptVersion bump (docs/checkpoint.md), not just new digests. The
 *  copy shape under Quo never quiesces, so it has no mid-run image. */
const PinnedImage kPinnedImages[] = {
    {"pmake", Scheme::Smp, true, 0xf981a74a75917483ull},
    {"pmake", Scheme::Smp, false, 0xc04f115c82745bbaull},
    {"pmake", Scheme::Quota, true, 0xa8a30c4efcbc348bull},
    {"pmake", Scheme::Quota, false, 0xfce32cc34e962116ull},
    {"pmake", Scheme::PIso, true, 0xc3f86a56a8a524e8ull},
    {"pmake", Scheme::PIso, false, 0x066c0d59b6423087ull},
    {"compute", Scheme::Smp, true, 0x95585ae0b53ca1e3ull},
    {"compute", Scheme::Smp, false, 0x193ee0ba7fe3d1a9ull},
    {"compute", Scheme::Quota, true, 0x677d91e17270e573ull},
    {"compute", Scheme::Quota, false, 0x78766c4eb4615750ull},
    {"compute", Scheme::PIso, true, 0x380f7e96ef2d6400ull},
    {"compute", Scheme::PIso, false, 0x9dc8d001fa814279ull},
    {"copy", Scheme::Smp, true, 0xa6d92cd190019581ull},
    {"copy", Scheme::Smp, false, 0x3d381c2bb536f598ull},
    {"copy", Scheme::Quota, true, 0x0d9342ed5227a279ull},
    {"copy", Scheme::PIso, true, 0xb84c0f9bde73336eull},
    {"copy", Scheme::PIso, false, 0xf72daaa6e8745521ull},
    {"tree", Scheme::Smp, true, 0xe032422ca83bde1dull},
    {"tree", Scheme::Smp, false, 0x89761ec9624aca9cull},
    {"tree", Scheme::Quota, true, 0x9bc1008aa955ff2dull},
    {"tree", Scheme::Quota, false, 0xc2ee74f1343dc49bull},
    {"tree", Scheme::PIso, true, 0x4871b5d77b5c1930ull},
    {"tree", Scheme::PIso, false, 0x968eea2926dd7a4eull},
};

std::string
timeZeroImage(const WorkloadSpec &spec)
{
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    std::ostringstream out;
    sim.checkpoint(out);
    return out.str();
}

} // namespace

TEST(Checkpoint, ImageBytesArePinned)
{
    for (const PinnedImage &pin : kPinnedImages) {
        const Shape *shape = nullptr;
        for (const Shape &s : kShapes)
            if (std::string(s.name) == pin.shape)
                shape = &s;
        ASSERT_NE(shape, nullptr) << pin.shape;

        const WorkloadSpec spec = shapeSpec(shape->text, pin.scheme);
        const std::string image = pin.timeZero
                                      ? timeZeroImage(spec)
                                      : observe(spec, shape->early).image;
        ASSERT_FALSE(image.empty()) << pin.shape;
        EXPECT_EQ(ckptFnv1a(image), pin.digest)
            << pin.shape << "/" << schemeName(pin.scheme)
            << (pin.timeZero ? " t=0" : " early");
    }
}

// ---------------------------------------------------------------------
// Event records: the image holds each pending record's kind byte
// ---------------------------------------------------------------------

namespace {

/** One pending event as the image's event section holds it. */
struct ImagedRecord
{
    std::uint8_t kind;
    Time when;
    std::uint64_t seq;
    std::int64_t arg;
};

/** Parse the event section at the head of @p image's payload. */
std::vector<ImagedRecord>
imagedRecords(const std::string &image)
{
    CkptReader r(image);
    r.time();  // now
    r.u64();   // next sequence number
    r.u64();   // executed events
    std::vector<ImagedRecord> out(r.u64());
    for (ImagedRecord &e : out) {
        e.kind = r.u8();
        e.when = r.time();
        e.seq = r.u64();
        e.arg = r.i64();
    }
    return out;
}

bool
holds(const std::vector<ImagedRecord> &records, EvKind kind)
{
    for (const ImagedRecord &e : records) {
        if (e.kind == static_cast<std::uint8_t>(kind))
            return true;
    }
    return false;
}

/** Accepts any event kind and does nothing with it. */
struct NullSink final : EventSink
{
    void fire(EvKind, const EventArg &) override {}
};

/**
 * A writer that crosses the dirty high-water mark early (a bdflush
 * kick with no I/O in flight yet), a process that mostly sleeps, and
 * slow and error windows on the disk nobody uses that outlast the
 * run's start: at some early boundary every one of sleepWake,
 * bdflushKick and both fault-window ends is pending.
 */
SystemConfig
kindsConfig()
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 8 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = Scheme::PIso;
    cfg.seed = 13;
    cfg.faults.diskSlow(kMs, 1, 10 * kSec, 3.0);
    cfg.faults.diskError(kMs, 1, 10 * kSec, 0.5);
    return cfg;
}

void
populateKinds(Simulation &sim)
{
    const SpuId writer = sim.addSpu({.name = "writer", .homeDisk = 0});
    const SpuId sleeper = sim.addSpu({.name = "sleeper", .homeDisk = 1});

    JobSpec write;
    write.name = "write";
    write.build = [](Kernel &, WorkloadEnv &env) {
        const FileId f = env.fs.createFile(env.disk, 4 * kMiB);
        std::vector<Action> script;
        for (std::uint64_t off = 0; off < 4 * kMiB; off += 64 * 1024) {
            script.push_back(WriteAction{f, off, 64 * 1024});
            script.push_back(ComputeAction{2 * kMs});
        }
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "write", std::make_unique<ScriptBehavior>(std::move(script))});
        return procs;
    };
    sim.addJob(writer, std::move(write));

    std::vector<Action> naps;
    for (int i = 0; i < 100; ++i) {
        naps.push_back(ComputeAction{kMs});
        naps.push_back(SleepAction{9 * kMs});
    }
    sim.addJob(sleeper, makeScriptJob("nap", std::move(naps)));
}

SimResults
runKinds(const std::string *image = nullptr)
{
    Simulation sim(kindsConfig());
    populateKinds(sim);
    if (image)
        sim.restore(*image);
    return sim.run();
}

} // namespace

TEST(Checkpoint, ImageableKindBytesArePinned)
{
    // The image stores each pending event's kind as this byte:
    // renumbering a kind is a format change.
    const std::pair<EvKind, const char *> pinned[] = {
        {EvKind::SchedTick, "schedTick"},
        {EvKind::MemPolicy, "memPolicy"},
        {EvKind::Bdflush, "bdflush"},
        {EvKind::Pageout, "pageout"},
        {EvKind::BdflushKick, "bdflushKick"},
        {EvKind::ProcStart, "procStart"},
        {EvKind::SegEnd, "segEnd"},
        {EvKind::SleepWake, "sleepWake"},
        {EvKind::FaultRestoreSlow, "faultRestoreSlow"},
        {EvKind::FaultRestoreError, "faultRestoreError"},
    };
    ASSERT_EQ(std::size(pinned), std::size_t{kImageableKinds});
    for (std::size_t i = 0; i < std::size(pinned); ++i) {
        EXPECT_EQ(static_cast<std::uint8_t>(pinned[i].first), i);
        EXPECT_STREQ(kindName(pinned[i].first), pinned[i].second);
        EXPECT_TRUE(imageable(pinned[i].first));
    }
    for (std::uint8_t k = kImageableKinds; k < kEvKinds; ++k)
        EXPECT_FALSE(imageable(static_cast<EvKind>(k))) << int{k};

    // A t=0 image holds the daemons' and the scheduler's ticks and one
    // procStart per process, whose arg is the pid.
    const WorkloadSpec spec = shapeSpec(kComputeShape, Scheme::PIso);
    const std::vector<ImagedRecord> records =
        imagedRecords(timeZeroImage(spec));
    std::vector<std::uint8_t> kinds;
    std::vector<std::int64_t> starts;
    for (const ImagedRecord &e : records) {
        kinds.push_back(e.kind);
        if (e.kind == 5)
            starts.push_back(e.arg);
        else
            EXPECT_EQ(e.arg, -1) << int{e.kind};
    }
    std::sort(kinds.begin(), kinds.end());
    kinds.erase(std::unique(kinds.begin(), kinds.end()), kinds.end());
    EXPECT_EQ(kinds, (std::vector<std::uint8_t>{0, 1, 2, 3, 5}));
    EXPECT_EQ(starts, (std::vector<std::int64_t>{1, 2, 3, 4}));
}

TEST(Checkpoint, NonImageableKindsAreRefusedByName)
{
    for (std::uint8_t k = kImageableKinds; k < kEvKinds; ++k) {
        const auto kind = static_cast<EvKind>(k);
        const WorkloadSpec spec = shapeSpec(kComputeShape, Scheme::PIso);
        Simulation sim(spec.config);
        populateWorkloadSpec(sim, spec);
        NullSink sink;
        sim.events().schedule(kSec, kind, sink);
        std::ostringstream out;
        try {
            sim.checkpoint(out);
            ADD_FAILURE() << kindName(kind) << " was imaged";
        } catch (const InvariantError &e) {
            EXPECT_NE(std::string(e.what()).find(
                          std::string("pending '") + kindName(kind) + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Checkpoint, PendingMonitorSampleIsRefusedByName)
{
    const WorkloadSpec spec = shapeSpec(kComputeShape, Scheme::PIso);
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    SpuMonitor monitor(sim.events(), sim.vm(), sim.scheduler(),
                       sim.spus().leafSpus());
    monitor.start();
    std::ostringstream out;
    try {
        sim.checkpoint(out);
        ADD_FAILURE() << "checkpoint taken with a monitor sample pending";
    } catch (const InvariantError &e) {
        EXPECT_NE(std::string(e.what()).find("'spuMonitor'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Checkpoint, RareKindsRoundTripToTheColdRun)
{
    // Walk checkpointAt forward until an image holds every rare kind
    // at once, then continue from it.
    std::string image;
    for (Time at = 20 * kMs; at < 400 * kMs && image.empty();
         at += kMs / 2) {
        SystemConfig cfg = kindsConfig();
        cfg.checkpointAt = at;
        cfg.checkpointStop = true;
        std::string taken;
        cfg.checkpointSink = [&taken](std::string img) {
            taken = std::move(img);
        };
        Simulation sim(cfg);
        populateKinds(sim);
        sim.run();
        if (taken.empty())
            continue;
        const std::vector<ImagedRecord> records = imagedRecords(taken);
        if (holds(records, EvKind::SleepWake) &&
            holds(records, EvKind::BdflushKick) &&
            holds(records, EvKind::FaultRestoreSlow) &&
            holds(records, EvKind::FaultRestoreError))
            image = taken;
    }
    ASSERT_FALSE(image.empty())
        << "no boundary held sleepWake, bdflushKick and both "
           "fault-window ends";

    const std::string cold = formatResultsJson(runKinds());
    EXPECT_EQ(formatResultsJson(runKinds(&image)), cold);

    // And the restored simulation images itself byte for byte.
    Simulation again(kindsConfig());
    populateKinds(again);
    again.restore(image);
    std::ostringstream out;
    again.checkpoint(out);
    EXPECT_EQ(out.str(), image);
}
