/**
 * @file
 * Tests for the per-resource policy layer: the PolicyRegistry, the
 * SchemeProfile/Scheme equivalence, the ResourceLedger invariants, and
 * the `.piso` machine keys that feed them.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>

#include "src/config/workload_spec.hh"
#include "src/exp/experiment.hh"
#include "src/metrics/report.hh"
#include "src/piso.hh"
#include "tests/invariant_test_util.hh"

using namespace piso;

// ---------------------------------------------------------------- registry

TEST(PolicyRegistry, RoundTripsCanonicalNames)
{
    for (CpuPolicy p :
         {CpuPolicy::Smp, CpuPolicy::Quota, CpuPolicy::PIso})
        EXPECT_EQ(parseCpuPolicy(policyName(p)), p);
    for (MemoryPolicy p : {MemoryPolicy::Smp, MemoryPolicy::Quota,
                           MemoryPolicy::PIso})
        EXPECT_EQ(parseMemoryPolicy(policyName(p)), p);
    for (NetPolicy p :
         {NetPolicy::Smp, NetPolicy::Quota, NetPolicy::PIso})
        EXPECT_EQ(parseNetPolicy(policyName(p)), p);
    for (DiskPolicy p : {DiskPolicy::HeadPosition, DiskPolicy::BlindFair,
                         DiskPolicy::FairPosition})
        EXPECT_EQ(parseDiskPolicy(policySpecName(p)), p);
}

TEST(PolicyRegistry, AcceptsAliases)
{
    EXPECT_EQ(parseCpuPolicy("quo"), CpuPolicy::Quota);
    EXPECT_EQ(parseMemoryPolicy("quo"), MemoryPolicy::Quota);
    EXPECT_EQ(parseNetPolicy("fifo"), NetPolicy::Smp);
    // Disk accepts the generic scheme spellings on top of §4.5 names.
    EXPECT_EQ(parseDiskPolicy("smp"), DiskPolicy::HeadPosition);
    EXPECT_EQ(parseDiskPolicy("quota"), DiskPolicy::BlindFair);
    EXPECT_EQ(parseDiskPolicy("piso"), DiskPolicy::FairPosition);
}

TEST(PolicyRegistry, RejectsUnknownNames)
{
    EXPECT_THROW(parseCpuPolicy("fair"), std::runtime_error);
    EXPECT_THROW(parseMemoryPolicy("POS"), std::runtime_error);
    EXPECT_THROW(parseDiskPolicy("cscan"), std::runtime_error);
    EXPECT_THROW(parseNetPolicy(""), std::runtime_error);
}

namespace {

/** The message of the ConfigError @p fn throws ("" if none). */
template <class Fn>
std::string
errorOf(Fn fn)
{
    try {
        fn();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(PolicyRegistry, OneMessagePerNameWithTheCallersPrefix)
{
    // The spec parser and the grid keys read names through the same
    // functions and differ only in the location prefix they pass.
    EXPECT_EQ(errorOf([] { parseScheme("x"); }),
              "fatal: unknown scheme 'x' (smp|quota|piso)");
    EXPECT_EQ(errorOf([] { parseWorkloadSpec("machine scheme=x\n"); }),
              "fatal: line 1: unknown scheme 'x' (smp|quota|piso)");
    EXPECT_EQ(errorOf([] {
                  SystemConfig cfg;
                  exp::applyGridKey(cfg, "scheme", "x");
              }),
              "fatal: grid key 'scheme': unknown scheme 'x' "
              "(smp|quota|piso)");

    EXPECT_EQ(errorOf([] { parseCpuPolicy("x", Where{.line = 4}); }),
              "fatal: line 4: unknown cpu policy 'x' (smp|quota|quo|piso)");
    EXPECT_EQ(errorOf([] { parseNetPolicy("x"); }),
              "fatal: unknown network policy 'x' "
              "(smp|quota|quo|piso|fifo)");
    EXPECT_EQ(errorOf([] {
                  SystemConfig cfg;
                  exp::applyGridKey(cfg, "memory", "x");
              }),
              "fatal: grid key 'memory': unknown memory policy 'x' "
              "(smp|quota|quo|piso)");
    // A disk override also accepts "default" (follow the scheme), and
    // lists it.
    EXPECT_EQ(errorOf([] { parseWorkloadSpec("\nmachine disk_policy=x\n"); }),
              "fatal: line 2: unknown disk policy 'x' "
              "(pos|iso|piso|smp|quota|quo|default)");
    EXPECT_EQ(errorOf([] {
                  SystemConfig cfg;
                  exp::applyGridKey(cfg, "disk_policy", "x");
              }),
              "fatal: grid key 'disk_policy': unknown disk policy 'x' "
              "(pos|iso|piso|smp|quota|quo|default)");
    EXPECT_EQ(errorOf([] { parseDiskPolicy("default"); }),
              "fatal: unknown disk policy 'default' "
              "(pos|iso|piso|smp|quota|quo)");
}

TEST(SchemeProfile, DefaultDiskPolicyFollowsTheScheme)
{
    EXPECT_EQ(parseDiskOverride("default"), std::nullopt);
    EXPECT_EQ(parseDiskOverride("pos"), DiskPolicy::HeadPosition);

    const WorkloadSpec spec = parseWorkloadSpec(
        "machine scheme=smp disk_policy=default\nspu u\njob u compute\n");
    EXPECT_FALSE(spec.config.diskPolicy.has_value());
    EXPECT_EQ(spec.config.resolvedProfile(),
              SchemeProfile::uniform(Scheme::Smp));

    // A grid key clears an override the spec set.
    SystemConfig cfg;
    cfg.scheme = Scheme::Quota;
    cfg.diskPolicy = DiskPolicy::FairPosition;
    exp::applyGridKey(cfg, "disk_policy", "default");
    EXPECT_EQ(cfg.resolvedProfile(), SchemeProfile::uniform(Scheme::Quota));
}

TEST(PolicyRegistry, ListsNamesForErrorMessages)
{
    const auto names =
        PolicyRegistry::instance().names(PolicyResource::Cpu);
    EXPECT_NE(std::find(names.begin(), names.end(), "smp"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "piso"),
              names.end());
}

// ---------------------------------------------------------------- profile

TEST(SchemeProfile, UniformMatchesTable2)
{
    const SchemeProfile smp = SchemeProfile::uniform(Scheme::Smp);
    EXPECT_EQ(smp.cpu, CpuPolicy::Smp);
    EXPECT_EQ(smp.memory, MemoryPolicy::Smp);
    EXPECT_EQ(smp.disk, DiskPolicy::HeadPosition);
    EXPECT_EQ(smp.net, NetPolicy::Smp);

    const SchemeProfile quo = SchemeProfile::uniform(Scheme::Quota);
    EXPECT_EQ(quo.cpu, CpuPolicy::Quota);
    EXPECT_EQ(quo.disk, DiskPolicy::BlindFair);

    const SchemeProfile piso = SchemeProfile::uniform(Scheme::PIso);
    EXPECT_EQ(piso.memory, MemoryPolicy::PIso);
    EXPECT_EQ(piso.disk, DiskPolicy::FairPosition);
}

TEST(SchemeProfile, UniformRoundTripsThroughAsUniform)
{
    for (Scheme s : {Scheme::Smp, Scheme::Quota, Scheme::PIso}) {
        const SchemeProfile p = SchemeProfile::uniform(s);
        ASSERT_TRUE(p.asUniform().has_value());
        EXPECT_EQ(*p.asUniform(), s);
        EXPECT_FALSE(p.mixed());
    }
}

TEST(SchemeProfile, MixedProfileIsNotUniform)
{
    SchemeProfile p = SchemeProfile::uniform(Scheme::PIso);
    p.memory = MemoryPolicy::Quota;
    EXPECT_FALSE(p.asUniform().has_value());
    EXPECT_TRUE(p.mixed());
    EXPECT_EQ(p.str(),
              "cpu=piso memory=quota disk_policy=piso network=piso");
}

TEST(SchemeProfile, ConfigResolvesSchemeAndOverrides)
{
    SystemConfig cfg;
    cfg.scheme = Scheme::Quota;
    EXPECT_EQ(cfg.resolvedProfile(),
              SchemeProfile::uniform(Scheme::Quota));

    cfg.memoryPolicy = MemoryPolicy::PIso;
    cfg.diskPolicy = DiskPolicy::HeadPosition;
    const SchemeProfile p = cfg.resolvedProfile();
    EXPECT_EQ(p.cpu, CpuPolicy::Quota);
    EXPECT_EQ(p.memory, MemoryPolicy::PIso);
    EXPECT_EQ(p.disk, DiskPolicy::HeadPosition);
    EXPECT_TRUE(p.mixed());

    SystemConfig viaProfile;
    viaProfile.setProfile(p);
    EXPECT_EQ(viaProfile.resolvedProfile(), p);
}

// The scheme= path and the setProfile(uniform(scheme)) path must drive
// the simulation identically: same seed, same report, byte for byte.
TEST(SchemeProfile, UniformProfileReproducesSchemeRun)
{
    const char *kSpec = R"(
machine cpus=2 memory_mb=16 disks=1 seed=11 max_time_s=20
spu a share=1
spu b share=2
job a pmake name=build workers=2 files=3
job b copy name=cp bytes_kb=512
)";
    for (Scheme s : {Scheme::Smp, Scheme::Quota, Scheme::PIso}) {
        WorkloadSpec bySchemeField = parseWorkloadSpec(kSpec);
        bySchemeField.config.scheme = s;
        WorkloadSpec byProfile = parseWorkloadSpec(kSpec);
        byProfile.config.setProfile(SchemeProfile::uniform(s));
        EXPECT_EQ(formatResults(runWorkloadSpec(bySchemeField)),
                  formatResults(runWorkloadSpec(byProfile)))
            << "scheme " << schemeName(s);
    }
}

// ----------------------------------------------------------------- ledger

TEST(ResourceLedger, TryUseNeverExceedsAllowed)
{
    ResourceLedger l("test");
    l.registerSpu(2);
    l.setAllowed(2, 3);
    int charged = 0;
    for (int i = 0; i < 10; ++i)
        charged += l.tryUse(2) ? 1 : 0;
    EXPECT_EQ(charged, 3);
    EXPECT_EQ(l.levels(2).used, 3u);
    EXPECT_TRUE(l.atLimit(2));
    l.release(2);
    EXPECT_FALSE(l.atLimit(2));
    EXPECT_TRUE(l.tryUse(2));
}

TEST(ResourceLedger, TransferConservesUsedTotal)
{
    ResourceLedger l("test");
    l.setShare(2, 1.0);
    l.setShare(3, 1.0);
    l.setAllowed(2, 8);
    l.use(2, 5);
    l.transfer(2, 3, 2);
    EXPECT_EQ(l.levels(2).used, 3u);
    EXPECT_EQ(l.levels(3).used, 2u);
    EXPECT_EQ(l.usedTotal(), 5u);
}

TEST(ResourceLedger, EntitledFloorMatchesTruncation)
{
    EXPECT_EQ(ResourceLedger::entitledFloor(0.5, 101), 50u);
    EXPECT_EQ(ResourceLedger::entitledFloor(1.0 / 3.0, 100), 33u);
    EXPECT_EQ(ResourceLedger::entitledFloor(0.0, 100), 0u);
    EXPECT_EQ(ResourceLedger::entitledFloor(1.0, 100), 100u);
}

TEST(ResourceLedger, EntitleByShareSumsExactlyToDivisible)
{
    ResourceLedger l("test");
    l.setShare(2, 1.0);
    l.setShare(3, 1.0);
    l.setShare(4, 1.0);
    l.entitleByShare(100); // 100/3 does not divide evenly
    EXPECT_EQ(l.entitledTotal(), 100u);
    // Floor gives 33 each; the 1-unit residue goes to the lowest id.
    EXPECT_EQ(l.levels(2).entitled, 34u);
    EXPECT_EQ(l.levels(3).entitled, 33u);
    EXPECT_EQ(l.levels(4).entitled, 33u);

    // Rebalance after a share change: the sum invariant must hold for
    // any divisible and any share mix, zero shares getting nothing.
    l.setShare(3, 5.0);
    l.setShare(4, 0.0);
    for (std::uint64_t divisible : {0u, 1u, 7u, 100u, 4096u}) {
        l.entitleByShare(divisible);
        EXPECT_EQ(l.entitledTotal(), divisible);
        EXPECT_EQ(l.levels(4).entitled, 0u);
    }
}

TEST(ResourceLedger, ReleaseBelowZeroPanics)
{
    ResourceLedger l("test");
    l.registerSpu(2);
    EXPECT_INVARIANT_FAILS(l.release(2), "zero used");
}

// ------------------------------------------------------------ spec keys

TEST(ProfileSpecKeys, MachineLineSetsPerResourcePolicies)
{
    const WorkloadSpec s = parseWorkloadSpec(R"(
machine cpus=2 memory_mb=16 scheme=piso cpu=smp memory=quota network=fifo disk_policy=iso
spu u
job u compute cpu_ms=1
)");
    const SchemeProfile p = s.config.resolvedProfile();
    EXPECT_EQ(p.cpu, CpuPolicy::Smp);
    EXPECT_EQ(p.memory, MemoryPolicy::Quota);
    EXPECT_EQ(p.disk, DiskPolicy::BlindFair);
    EXPECT_EQ(p.net, NetPolicy::Smp);
    EXPECT_TRUE(p.mixed());
}

TEST(ProfileSpecKeys, SchemeStillSetsAllFour)
{
    const WorkloadSpec s = parseWorkloadSpec(
        "machine scheme=quota\nspu u\njob u compute cpu_ms=1\n");
    EXPECT_EQ(s.config.resolvedProfile(),
              SchemeProfile::uniform(Scheme::Quota));
}

TEST(ProfileSpecKeys, UnknownPolicyNamesAreErrors)
{
    EXPECT_THROW(parseWorkloadSpec(
                     "machine cpu=bogus\nspu u\njob u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(
                     "machine memory=pos\nspu u\njob u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(
                     "machine network=cscan\nspu u\njob u compute\n"),
                 std::runtime_error);
    EXPECT_THROW(parseWorkloadSpec(
                     "machine disk_policy=nope\nspu u\njob u compute\n"),
                 std::runtime_error);
    // Error text names the offending line and the valid spellings.
    try {
        parseWorkloadSpec("machine cpu=bogus\nspu u\njob u compute\n");
        FAIL() << "expected parse failure";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 1"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("smp|quota|quo|piso"),
                  std::string::npos);
    }
}
