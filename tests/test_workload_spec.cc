/**
 * @file
 * Tests for the workload-spec text format and runner.
 */

#include <gtest/gtest.h>

#include "src/config/workload_spec.hh"
#include "src/piso.hh"

using namespace piso;

namespace {

const char *kMinimal = R"(
machine cpus=2 memory_mb=16 scheme=smp seed=5
spu u
job u compute name=j cpu_ms=100
)";

} // namespace

TEST(WorkloadSpec, ParsesMinimal)
{
    const WorkloadSpec s = parseWorkloadSpec(kMinimal);
    EXPECT_EQ(s.config.cpus, 2);
    EXPECT_EQ(s.config.memoryBytes, 16 * kMiB);
    EXPECT_EQ(s.config.scheme, Scheme::Smp);
    EXPECT_EQ(s.config.seed, 5u);
    ASSERT_EQ(s.spus.size(), 1u);
    EXPECT_EQ(s.spus[0].name, "u");
    ASSERT_EQ(s.jobs.size(), 1u);
    EXPECT_EQ(s.jobs[0].kind, "compute");
    EXPECT_EQ(s.jobs[0].name, "j");
}

TEST(WorkloadSpec, DefaultsWithoutMachineLine)
{
    const WorkloadSpec s = parseWorkloadSpec(
        "spu u\njob u compute cpu_ms=10\n");
    EXPECT_EQ(s.config.cpus, 8);
    EXPECT_EQ(s.config.scheme, Scheme::PIso);
}

TEST(WorkloadSpec, CommentsAndBlankLinesIgnored)
{
    const WorkloadSpec s = parseWorkloadSpec(
        "# header\n\nspu u # trailing\n\njob u compute cpu_ms=1\n");
    EXPECT_EQ(s.spus.size(), 1u);
}

TEST(WorkloadSpec, ParsesAllMachineOptions)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=4 memory_mb=32 disks=3 scheme=quota disk_policy=iso seed=9 max_time_s=10 network_mbps=100 bw_threshold=512 seek_scale=0.5 ipi_revocation=1
spu u
job u compute cpu_ms=1
)");
    EXPECT_EQ(s.config.diskCount, 3);
    EXPECT_EQ(s.config.scheme, Scheme::Quota);
    EXPECT_EQ(s.config.diskPolicy, DiskPolicy::BlindFair);
    EXPECT_EQ(s.config.maxTime, 10 * kSec);
    EXPECT_DOUBLE_EQ(s.config.networkBitsPerSec, 100e6);
    EXPECT_DOUBLE_EQ(s.config.bwThresholdSectors, 512.0);
    EXPECT_DOUBLE_EQ(s.config.diskParams.seekScale, 0.5);
    EXPECT_TRUE(s.config.ipiRevocation);
}

TEST(WorkloadSpec, AutoNamesJobs)
{
    const WorkloadSpec s = parseWorkloadSpec(
        "spu u\njob u compute cpu_ms=1\njob u compute cpu_ms=1\n");
    EXPECT_NE(s.jobs[0].name, s.jobs[1].name);
}

TEST(WorkloadSpec, ErrorsCarryLineNumbers)
{
    try {
        parseWorkloadSpec("spu u\njob u compute bogus_key=1\n");
        (void)buildJob(parseWorkloadSpec(
                           "spu u\njob u compute bogus_key=1\n")
                           .jobs[0]);
        FAIL() << "expected a parse error";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("bogus_key"),
                  std::string::npos);
    }
}

TEST(WorkloadSpec, RejectsMalformedInput)
{
    EXPECT_THROW(parseWorkloadSpec("bogus directive\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("spu u\njob u compute notkv\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("spu u\njob u mystery name=x\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("spu u\njob ghost compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("spu u\nspu u\njob u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(
                     "machine cpus=2\nmachine cpus=4\nspu u\n"
                     "job u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("machine cpus=two\nspu u\n"
                                   "job u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(""), std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec("spu u\n"), std::runtime_error);
}

TEST(WorkloadSpec, UnknownMachineOptionRejected)
{
    EXPECT_THROW(parseWorkloadSpec(
                     "machine cpus=2 turbo=1\nspu u\njob u compute\n"),
                 std::runtime_error);
}

TEST(WorkloadSpec, BuildsEveryJobKind)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=2 memory_mb=32 network_mbps=10
spu u
job u pmake   name=a workers=1 files=2
job u copy    name=b bytes_kb=64
job u compute name=c cpu_ms=5
job u ocean   name=d procs=2 iters=3 grain_ms=1
job u oltp    name=e servers=1 txns=3 table_mb=1
job u web     name=f workers=1 requests=3 response_kb=1
)");
    for (const JobDecl &j : s.jobs)
        EXPECT_NO_THROW((void)buildJob(j)) << j.kind;
}

TEST(WorkloadSpec, EndToEndRun)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=2 memory_mb=32 scheme=piso seed=3
spu alice disk=0
spu bob share=2 disk=0
job alice compute name=light cpu_ms=200 ws_pages=32
job bob   compute name=heavy cpu_ms=400 ws_pages=32
)");
    const SimResults r = runWorkloadSpec(s);
    ASSERT_TRUE(r.completed);
    EXPECT_NEAR(r.job("light").responseSec(), 0.2, 0.05);
    EXPECT_NEAR(r.job("heavy").responseSec(), 0.4, 0.05);
}

TEST(WorkloadSpec, ParsesSpusTreeSection)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=4 memory_mb=32 scheme=piso seed=1
[spus]
eng       share=2
eng.build share=3 disk=0
eng.test  share=1
ops       share=1
ops.web   share=1
job eng.build compute name=b cpu_ms=10
job ops.web   compute name=w cpu_ms=10
)");
    ASSERT_EQ(s.spus.size(), 5u);
    EXPECT_EQ(s.spus[0].name, "eng");
    EXPECT_EQ(s.spus[0].parent, "");
    EXPECT_EQ(s.spus[1].name, "eng.build");
    EXPECT_EQ(s.spus[1].parent, "eng");
    EXPECT_DOUBLE_EQ(s.spus[1].share, 3.0);
    EXPECT_EQ(s.spus[4].parent, "ops");
    ASSERT_EQ(s.jobs.size(), 2u);
    EXPECT_EQ(s.jobs[0].spu, "eng.build");
}

TEST(WorkloadSpec, SpusTreeRunsEndToEnd)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=2 memory_mb=32 scheme=piso seed=3
[spus]
eng       share=2
eng.build share=1
ops       share=1
ops.web   share=1
job eng.build compute name=b cpu_ms=100 ws_pages=16
job ops.web   compute name=w cpu_ms=100 ws_pages=16
)");
    const SimResults r = runWorkloadSpec(s);
    ASSERT_TRUE(r.completed);
    EXPECT_GT(r.job("b").responseSec(), 0.0);
    // The per-SPU results carry the hierarchy: leaves name their
    // enclosing group, groups sit at the top level.
    bool sawLeaf = false;
    for (const auto &[id, sr] : r.spus) {
        if (sr.name == "eng.build") {
            sawLeaf = true;
            ASSERT_TRUE(r.spus.contains(sr.parent));
            EXPECT_EQ(r.spus.find(sr.parent)->name, "eng");
        }
    }
    EXPECT_TRUE(sawLeaf);
}

TEST(WorkloadSpec, SpusTreeRejectsMalformedHierarchies)
{
    // A child before its parent group.
    EXPECT_THROW(parseWorkloadSpec("[spus]\neng.build share=1\n"
                                   "job eng.build compute\n"),
                 std::runtime_error);
    // Duplicate node.
    EXPECT_THROW(parseWorkloadSpec("[spus]\neng\neng\n"
                                   "job eng compute\n"),
                 std::runtime_error);
    // Dotted names belong in a [spus] section, not `spu` lines.
    EXPECT_THROW(parseWorkloadSpec("spu eng.build\n"
                                   "job eng.build compute\n"),
                 std::runtime_error);
    // Jobs may only run on leaf SPUs, never on a group.
    EXPECT_THROW(parseWorkloadSpec("[spus]\neng\neng.build\n"
                                   "job eng compute\n"),
                 std::runtime_error);
    // Empty dotted segments are nonsense.
    EXPECT_THROW(parseWorkloadSpec("[spus]\neng\neng..build\n"
                                   "job eng compute\n"),
                 std::runtime_error);
}

TEST(WorkloadSpec, StartDelayOption)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=2 memory_mb=16 seed=3
spu u
job u compute name=late cpu_ms=10 start_s=1.5
)");
    const SimResults r = runWorkloadSpec(s);
    EXPECT_GE(r.job("late").start, 1500 * kMs);
}

namespace {

/** The ConfigError that parsing @p text and building its jobs raises,
 *  or "" when both succeed. */
std::string
specError(const std::string &text)
{
    try {
        const WorkloadSpec s = parseWorkloadSpec(text);
        for (const JobDecl &j : s.jobs)
            (void)buildJob(j);
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(WorkloadSpec, IntegerOptionsAreParsedExactly)
{
    const std::string spu = "spu u disk=0\n";
    const std::string job = "job u compute cpu_ms=10\n";

    // A fraction, an exponent or a value too big for the field is an
    // error naming the line and the key; none is rounded or wrapped.
    const std::vector<std::pair<std::string, std::string>> bad = {
        {"machine cpus=1e30\n" + spu + job,
         "line 1: option 'cpus' wants an integer, got '1e30'"},
        {"machine cpus=2.5\n" + spu + job,
         "line 1: option 'cpus' wants an integer, got '2.5'"},
        {"machine cpus=4294967297\n" + spu + job,
         "line 1: option 'cpus' wants an integer in [-2147483648, "
         "2147483647], got '4294967297'"},
        {"machine seed=18446744073709551616\n" + spu + job,
         "line 1: option 'seed' wants an integer in [0, "
         "18446744073709551615], got '18446744073709551616'"},
        {"machine seed=-1\n" + spu + job,
         "line 1: option 'seed' wants an integer, got '-1'"},
        {"machine memory_mb=17592186044416\n" + spu + job,
         "line 1: option 'memory_mb' of 17592186044416 overflows a "
         "64-bit byte count"},
        {"spu u disk=1.0\n" + job,
         "line 1: option 'disk' wants an integer, got '1.0'"},
        {spu + "job u pmake files=1.9\n",
         "line 2: option 'files' wants an integer, got '1.9'"},
        {spu + "job u pmake files=4294967297\n",
         "line 2: option 'files' wants an integer in [-2147483648, "
         "2147483647], got '4294967297'"},
        {spu + "job u web documents=+5\n",
         "line 2: option 'documents' wants an integer, got '+5'"},
        {spu + job + "[faults]\ndisk_dead at_s=1 disk=0x1\n",
         "line 4: option 'disk' wants an integer, got '0x1'"},
        {spu + job + "[faults]\nmem_shrink at_s=1 mb=1.5\n",
         "line 4: option 'mb' wants an integer, got '1.5'"},
    };
    for (const auto &[text, want] : bad)
        EXPECT_EQ(specError(text), "fatal: " + want) << text;

    // Integers past 2^53 keep every digit.
    const WorkloadSpec a =
        parseWorkloadSpec("machine seed=9007199254740992\n" + spu + job);
    const WorkloadSpec b =
        parseWorkloadSpec("machine seed=9007199254740993\n" + spu + job);
    EXPECT_EQ(a.config.seed, 9007199254740992u);
    EXPECT_EQ(b.config.seed, 9007199254740993u);
    EXPECT_EQ(parseWorkloadSpec("machine seed=18446744073709551615\n" +
                                spu + job)
                  .config.seed,
              18446744073709551615u);
    EXPECT_EQ(specError("machine cpus=4 memory_mb=48 disks=2 "
                        "numa_domains=2 ipi_revocation=1\n" +
                        spu + "job u pmake workers=3 files=30\n"),
              "");
}
