/**
 * @file
 * Unit tests for the memory sharing policy (Section 3.2): entitled
 * recomputation, lending of idle pages, Reserve Threshold, and
 * revocation via allowed-level reduction; and the twin tests that run
 * the policy's skipping, active-set tick beside the full-scan pass it
 * replaced (tests/mem_ref_util.hh).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/core/mem_policy.hh"
#include "src/machine/memory.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/random.hh"
#include "tests/mem_ref_util.hh"

using namespace piso;

namespace {

struct PolicyFixture : public ::testing::Test
{
    PhysicalMemory phys{1000 * 4096};
    VirtualMemory vm{phys};
    SpuManager spus;
    EventQueue events;
    SpuId a = kNoSpu, b = kNoSpu;

    void
    SetUp() override
    {
        vm.registerSpu(kKernelSpu);
        vm.registerSpu(kSharedSpu);
        vm.setAllowed(kKernelSpu, 1000);
        vm.setAllowed(kSharedSpu, 1000);
        a = spus.create({.name = "a"});
        b = spus.create({.name = "b"});
        vm.registerSpu(a);
        vm.registerSpu(b);
    }

    MemorySharingPolicy
    makePolicy(double reserveFrac = 0.08)
    {
        MemPolicyConfig cfg;
        cfg.reserveFraction = reserveFrac;
        return MemorySharingPolicy(events, vm, spus, cfg);
    }

    void
    use(SpuId spu, std::uint64_t pages)
    {
        vm.setAllowed(spu, vm.levels(spu).allowed + pages);
        for (std::uint64_t i = 0; i < pages; ++i)
            ASSERT_TRUE(vm.tryCharge(spu));
    }
};

} // namespace

TEST_F(PolicyFixture, StartSetsReserve)
{
    auto policy = makePolicy(0.08);
    policy.start();
    EXPECT_EQ(vm.reservePages(), 80u);
}

TEST_F(PolicyFixture, EntitledSplitsEqually)
{
    auto policy = makePolicy(0.08);
    policy.start();
    // 1000 total - 80 reserve = 920 divisible; 460 each.
    EXPECT_EQ(vm.levels(a).entitled, 460u);
    EXPECT_EQ(vm.levels(b).entitled, 460u);
}

TEST_F(PolicyFixture, EntitledExcludesKernelAndShared)
{
    use(kKernelSpu, 100);
    use(kSharedSpu, 20);
    auto policy = makePolicy(0.08);
    policy.start();
    // (1000 - 100 - 20 - 80) / 2 = 400 each.
    EXPECT_EQ(vm.levels(a).entitled, 400u);
}

TEST_F(PolicyFixture, NoPressureMeansAllowedEqualsEntitled)
{
    auto policy = makePolicy(0.08);
    policy.start();
    EXPECT_EQ(vm.levels(a).allowed, vm.levels(a).entitled);
    EXPECT_EQ(vm.levels(b).allowed, vm.levels(b).entitled);
}

TEST_F(PolicyFixture, PressuredSpuReceivesIdlePages)
{
    auto policy = makePolicy(0.08);
    policy.start();
    // b is idle; a is pressured at its entitlement.
    use(a, 460);
    vm.notePressure(a);
    policy.recompute();
    // lendable = free + 0 borrowed - reserve
    //          = (1000 - 460) + 0 - 80 = 460; all to a.
    EXPECT_EQ(vm.levels(a).allowed, 460u + 460u);
    EXPECT_EQ(vm.levels(b).allowed, vm.levels(b).entitled);
}

TEST_F(PolicyFixture, ReserveNeverLent)
{
    auto policy = makePolicy(0.08);
    policy.start();
    vm.notePressure(a);
    policy.recompute();
    const std::uint64_t granted =
        vm.levels(a).allowed - vm.levels(a).entitled;
    // free = 1000; grant <= free - reserve.
    EXPECT_LE(granted, 1000u - 80u);
    EXPECT_GT(granted, 0u);
}

TEST_F(PolicyFixture, LendableSplitsAmongPressured)
{
    auto policy = makePolicy(0.08);
    policy.start();
    vm.notePressure(a);
    vm.notePressure(b);
    policy.recompute();
    const std::uint64_t ga = vm.levels(a).allowed - vm.levels(a).entitled;
    const std::uint64_t gb = vm.levels(b).allowed - vm.levels(b).entitled;
    EXPECT_EQ(ga, gb);
    EXPECT_GT(ga, 0u);
}

TEST_F(PolicyFixture, RevocationLowersBorrowerAllowance)
{
    auto policy = makePolicy(0.08);
    policy.start();

    // Phase 1: b idle, a borrows heavily.
    use(a, 460);
    vm.notePressure(a);
    policy.recompute();
    const std::uint64_t borrowed = vm.levels(a).allowed - 460;
    ASSERT_GT(borrowed, 0u);
    use(a, borrowed); // a actually consumes the loan

    // Phase 2: b wants its memory: it uses its entitlement and
    // presses. a stays pressured too.
    use(b, vm.freePages());
    vm.notePressure(b);
    vm.notePressure(a);
    policy.recompute();

    // a's allowance must have fallen (lendable shrank), leaving a
    // over-allowed for the pageout daemon to reclaim.
    EXPECT_LT(vm.levels(a).allowed, 460u + borrowed);
    EXPECT_GT(vm.overAllowed(a), 0u);
}

TEST_F(PolicyFixture, BorrowerKeepsLoanWhileLenderIdle)
{
    auto policy = makePolicy(0.08);
    policy.start();
    use(a, 460);
    vm.notePressure(a);
    policy.recompute();
    const std::uint64_t allowed1 = vm.levels(a).allowed;
    use(a, allowed1 - 460); // consume the loan fully

    // Steady state: no new pressure notes, lender still idle.
    policy.recompute();
    // The borrowed-out pages count as lendable, so a's allowance must
    // not collapse back to entitled (which would thrash).
    EXPECT_GE(vm.levels(a).allowed, vm.levels(a).used);
}

TEST_F(PolicyFixture, PeriodicRecomputeRunsOnEventQueue)
{
    auto policy = makePolicy(0.08);
    policy.start();
    use(a, 460);
    vm.notePressure(a);
    // No manual recompute: let the periodic event do it.
    events.runAll(events.now() + 150 * kMs);
    EXPECT_GT(vm.levels(a).allowed, vm.levels(a).entitled);
}

TEST_F(PolicyFixture, WeightedSharesRespected)
{
    SpuManager weighted;
    const SpuId x = weighted.create({.name = "x", .share = 3.0});
    const SpuId y = weighted.create({.name = "y", .share = 1.0});
    vm.registerSpu(x);
    vm.registerSpu(y);
    MemPolicyConfig cfg;
    cfg.reserveFraction = 0.0;
    MemorySharingPolicy policy(events, vm, weighted, cfg);
    policy.start();
    EXPECT_EQ(vm.levels(x).entitled, 750u);
    EXPECT_EQ(vm.levels(y).entitled, 250u);
}

TEST_F(PolicyFixture, InvalidConfigRejected)
{
    MemPolicyConfig bad;
    bad.period = 0;
    EXPECT_THROW(MemorySharingPolicy(events, vm, spus, bad),
                 std::runtime_error);
    MemPolicyConfig bad2;
    bad2.reserveFraction = 1.5;
    EXPECT_THROW(MemorySharingPolicy(events, vm, spus, bad2),
                 std::runtime_error);
}

TEST_F(PolicyFixture, IdleMachineDrainsEventQueue)
{
    // Regression: a tick that finds zero active leaf SPUs must stop
    // rescheduling itself, or an otherwise-finished simulation spins
    // on memPolicy events forever and the run loop never drains.
    spus.destroy(a);
    spus.destroy(b);
    auto policy = makePolicy(0.08);
    policy.start();
    int executed = 0;
    while (!events.empty() && executed < 50) {
        events.runOne();
        ++executed;
    }
    EXPECT_TRUE(events.empty());
    EXPECT_LT(executed, 50);
}

TEST_F(PolicyFixture, SuspendedTenantsAlsoDrain)
{
    // Suspension empties the active leaf set just like destruction.
    spus.suspend(a);
    spus.suspend(b);
    auto policy = makePolicy(0.08);
    policy.start();
    events.runAll(events.now() + kSec);
    EXPECT_TRUE(events.empty());
}

TEST_F(PolicyFixture, ArmRestartsThePeriodicLoop)
{
    spus.destroy(a);
    spus.destroy(b);
    auto policy = makePolicy(0.08);
    policy.start();
    events.runAll(events.now() + kSec);
    ASSERT_TRUE(events.empty());

    // A new tenant arrives: arm() restarts the loop (rebalanceSpus
    // calls it) and the next period's tick computes its levels.
    const SpuId c = spus.create({.name = "c"});
    vm.registerSpu(c);
    policy.arm();
    EXPECT_FALSE(events.empty());
    events.runAll(events.now() + 150 * kMs);
    EXPECT_GT(vm.levels(c).entitled, 0u);
    EXPECT_FALSE(events.empty());  // keeps rescheduling while active
}

TEST_F(PolicyFixture, UnchangedTickSkipsTheFullPass)
{
    // The version skip: a period in which neither the VM ledger nor
    // the SPU registry changed performs no leaf iterations.
    auto policy = makePolicy(0.08);
    policy.start();
    events.runAll(events.now() + 150 * kMs);  // one settling pass
    const std::uint64_t settled = policy.policyIters();
    events.runAll(events.now() + kSec);  // ten idle periods
    EXPECT_EQ(policy.policyIters(), settled);

    use(a, 10);  // ledger change -> next tick pays one full pass
    events.runAll(events.now() + 150 * kMs);
    EXPECT_GT(policy.policyIters(), settled);
}

namespace {

/** The SPU population of a twin run. */
struct TwinShape
{
    std::uint64_t pages = 1000;
    /** Leaves at set-up. */
    int leaves = 3;
    /** 0: a flat configuration; else the leaves are dealt round-robin
     *  under this many top-level groups. */
    int groups = 0;
    /** Every n-th leaf gets a share so small its floor is 0 pages
     *  (0: none). */
    int tinyEvery = 0;
    /** Leaves that may be created during the run. */
    int extraLeaves = 5;
};

/**
 * One machine of the twin tests. The policy machine runs the periodic
 * tick, with its version skip and active set; the reference machine
 * calls testutil::fullScanRecompute at every period instead. Leaf i
 * always gets the same parent and share, so building a machine of the
 * same shape and adding its leaves up to the same count replays the
 * tree a checkpoint image of the other expects.
 */
struct MemMachine
{
    TwinShape shape;
    PhysicalMemory phys;
    VirtualMemory vm{phys};
    SpuManager spus;
    EventQueue events;
    MemorySharingPolicy policy{events, vm, spus};
    std::vector<SpuId> groups;
    std::vector<SpuId> leaves;

    MemMachine(const TwinShape &s, bool reference)
        : shape(s), phys(s.pages * 4096)
    {
        vm.registerSpu(kKernelSpu);
        vm.registerSpu(kSharedSpu);
        vm.setAllowed(kKernelSpu, s.pages);
        vm.setAllowed(kSharedSpu, s.pages);
        for (int g = 0; g < s.groups; ++g)
            groups.push_back(spus.create({.name = "g" + std::to_string(g)}));
        for (int i = 0; i < s.leaves; ++i)
            addLeaf();
        if (reference) {
            vm.setReservePages(static_cast<std::uint64_t>(
                policy.config().reserveFraction *
                static_cast<double>(vm.totalPages())));
            testutil::fullScanRecompute(vm, spus);
        } else {
            policy.start();
        }
    }

    void
    addLeaf()
    {
        const std::size_t i = leaves.size();
        const bool tiny =
            shape.tinyEvery > 0 && i % static_cast<std::size_t>(
                                           shape.tinyEvery) == 0;
        const SpuId spu = spus.create(
            {.name = "l" + std::to_string(i),
             .share = tiny ? 1e-9 : 1.0 + static_cast<double>(i % 3),
             .parent = groups.empty() ? kNoSpu
                                      : groups[i % groups.size()]});
        vm.registerSpu(spu);
        leaves.push_back(spu);
    }

    /** The periodic pass: one tick period, or the reference scan. */
    void
    period(bool reference)
    {
        if (reference)
            testutil::fullScanRecompute(vm, spus);
        else
            events.runAll(events.now() + policy.config().period);
    }

    std::string
    image()
    {
        CkptWriter w;
        CkptIo io(w);
        phys.ckpt(io);
        spus.ckpt(io);
        vm.ckpt(io, spus.idBound());
        return w.image(0);
    }

    /** A machine of this shape with the same leaves, restored from
     *  this one's image between periods: its tick is pending, as the
     *  restored event queue would hold it. */
    std::unique_ptr<MemMachine>
    restored()
    {
        const std::string img = image();
        auto back = std::make_unique<MemMachine>(shape, false);
        while (back->leaves.size() < leaves.size())
            back->addLeaf();
        CkptReader r(img);
        CkptIo io(r);
        back->phys.ckpt(io);
        back->spus.ckpt(io);
        back->vm.ckpt(io, back->spus.idBound());
        r.expectEnd();
        back->policy.setTickPending(true);
        return back;
    }
};

/** Every SPU's levels and pressure agree; after a pass (@p passed),
 *  every managed leaf outside the policy machine's active set is idle
 *  at allowed = entitled > 0. */
::testing::AssertionResult
sameLevels(MemMachine &lazy, MemMachine &ref, bool passed = true)
{
    const auto lazySpus = lazy.vm.spus();
    const auto refSpus = ref.vm.spus();
    if (!std::equal(lazySpus.begin(), lazySpus.end(), refSpus.begin(),
                    refSpus.end()))
        return ::testing::AssertionFailure() << "registered SPUs differ";
    for (SpuId spu : ref.vm.spus()) {
        const MemLevels &x = lazy.vm.levels(spu);
        const MemLevels &y = ref.vm.levels(spu);
        if (x.entitled != y.entitled || x.allowed != y.allowed ||
            x.used != y.used ||
            lazy.vm.pressure(spu) != ref.vm.pressure(spu)) {
            return ::testing::AssertionFailure()
                   << "spu " << spu << ": entitled " << x.entitled
                   << "/" << y.entitled << " allowed " << x.allowed
                   << "/" << y.allowed << " used " << x.used << "/"
                   << y.used << " pressure " << lazy.vm.pressure(spu)
                   << "/" << ref.vm.pressure(spu);
        }
    }
    for (SpuId spu : lazy.spus.leafSpus()) {
        const MemLevels &l = lazy.vm.levels(spu);
        if (passed && !lazy.vm.isActive(spu) &&
            (l.used != 0 || lazy.vm.pressure(spu) != 0 ||
             l.allowed != l.entitled || l.entitled == 0)) {
            return ::testing::AssertionFailure()
                   << "leaf " << spu << " is outside the active set "
                   << "but not idle";
        }
    }
    return ::testing::AssertionSuccess();
}

/** Counts a twin run reports. */
struct TwinRun
{
    std::uint64_t periods = 0;
    std::uint64_t skipped = 0;  //!< periods with no pass at all
    std::uint64_t partial = 0;  //!< passes over fewer than every leaf
    std::uint64_t suspended = 0;  //!< leaves or groups suspended
    std::uint64_t resumed = 0;    //!< leaves or groups resumed
};

/**
 * Drive a policy machine and a reference machine of @p shape through
 * the same random steps for @p rounds periods and compare them after
 * every period. Most leaves stay idle: eight "hot" leaves take most of
 * the charges. The steps charge and release pages (noting pressure
 * when a charge is refused), note pressure, suspend and resume leaves
 * and groups, charge the kernel and shared SPUs and hand pages to the
 * shared SPU (so the divisible pages move), and create leaves. Every
 * @p ckptEvery periods (0: never) the policy machine is replaced by
 * one restored from its image, and its next pass must visit every
 * leaf.
 */
void
runTwin(const TwinShape &shape, std::uint64_t seed, int rounds,
        int ckptEvery, TwinRun &out)
{
    auto lazy = std::make_unique<MemMachine>(shape, false);
    MemMachine ref(shape, true);
    Rng rng(seed);
    ASSERT_TRUE(sameLevels(*lazy, ref));
    for (int round = 0; round < rounds; ++round) {
        const int ops =
            rng.chance(0.4) ? 0 : static_cast<int>(rng.uniformInt(6));
        for (int op = 0; op < ops; ++op) {
            const std::size_t n = lazy->leaves.size();
            const std::size_t hot = std::min<std::size_t>(n, 8);
            const std::size_t pick = rng.chance(0.85)
                                         ? rng.uniformInt(hot)
                                         : rng.uniformInt(n);
            const SpuId spu = lazy->leaves[pick];
            const std::size_t roll = rng.uniformInt(100);
            const int count = 1 + static_cast<int>(rng.uniformInt(40));
            if (roll < 40) {
                for (int k = 0; k < count; ++k) {
                    const bool got = lazy->vm.tryCharge(spu);
                    ASSERT_EQ(ref.vm.tryCharge(spu), got);
                    if (!got) {
                        lazy->vm.notePressure(spu);
                        ref.vm.notePressure(spu);
                        break;
                    }
                }
            } else if (roll < 65) {
                for (int k = 0; k < count && ref.vm.levels(spu).used > 0;
                     ++k) {
                    lazy->vm.uncharge(spu);
                    ref.vm.uncharge(spu);
                }
            } else if (roll < 72) {
                lazy->vm.notePressure(spu);
                ref.vm.notePressure(spu);
            } else if (roll < 80) {
                // Suspend or resume a leaf, or (trees) a group, keeping
                // one leaf active so the tick keeps its period.
                SpuId target = spu;
                if (!lazy->groups.empty() && roll >= 76)
                    target = lazy->groups[rng.uniformInt(
                        lazy->groups.size())];
                const bool active =
                    ref.spus.spu(target).state == SpuState::Active;
                // The active leaves a suspension of target would leave.
                std::size_t left = 0;
                for (SpuId leaf : ref.spus.leafSpus())
                    left += leaf != target &&
                            ref.spus.spu(leaf).parent != target;
                if (active && left > 0) {
                    lazy->spus.suspend(target);
                    ref.spus.suspend(target);
                    ++out.suspended;
                } else if (!active) {
                    lazy->spus.resume(target);
                    ref.spus.resume(target);
                    ++out.resumed;
                }
            } else if (roll < 90) {
                // The kernel or the shared SPU takes or returns pages:
                // the divisible pages move.
                const SpuId owner = roll < 85 ? kKernelSpu : kSharedSpu;
                for (int k = 0; k < count; ++k) {
                    if (rng.chance(0.5)) {
                        const bool got = lazy->vm.tryCharge(owner);
                        ASSERT_EQ(ref.vm.tryCharge(owner), got);
                    } else if (ref.vm.levels(owner).used > 0) {
                        lazy->vm.uncharge(owner);
                        ref.vm.uncharge(owner);
                    }
                }
            } else if (roll < 95) {
                // A leaf's page becomes a shared buffer-cache page.
                if (ref.vm.levels(spu).used > 0) {
                    lazy->vm.transferCharge(spu, kSharedSpu);
                    ref.vm.transferCharge(spu, kSharedSpu);
                }
            } else if (n < static_cast<std::size_t>(shape.leaves +
                                                    shape.extraLeaves)) {
                lazy->addLeaf();
                ref.addLeaf();
            }
        }
        bool restoredNow = false;
        if (ckptEvery > 0 && round % ckptEvery == ckptEvery - 1) {
            lazy = lazy->restored();
            ASSERT_TRUE(sameLevels(*lazy, ref, false))
                << "restored at round " << round;
            restoredNow = true;
        }
        const std::uint64_t before = lazy->policy.policyIters();
        lazy->period(false);
        ref.period(true);
        const std::uint64_t visited = lazy->policy.policyIters() - before;
        ++out.periods;
        out.skipped += visited == 0;
        out.partial += visited > 0 && visited < ref.spus.leafSpus().size();
        if (restoredNow) {
            ASSERT_GE(visited, ref.spus.leafSpus().size())
                << "the first pass after a restore is a full one";
        }
        ASSERT_TRUE(sameLevels(*lazy, ref))
            << "seed " << seed << " round " << round;
    }
}

} // namespace

TEST(MemPolicyTwin, SkippingTickEqualsTheFullScanEveryPeriod)
{
    // The periodic tick skips its pass when neither the VM ledger nor
    // the SPU registry changed since the last one, and otherwise visits
    // only the active set. Driven through the same random steps as the
    // full-scan reference — with idle periods in between — both must
    // leave the same levels after every period. That includes a pass
    // that grants pages to an SPU needy only through the pressure it
    // consumed: the next pass, unchanged otherwise, takes them back,
    // so it may not be skipped.
    TwinRun run;
    for (std::uint64_t seed = 1; seed <= 12; ++seed)
        runTwin({}, seed, 200, 0, run);
    // The idle periods really took the skip, and leaves really were
    // suspended and resumed while few of them were active.
    EXPECT_GT(run.skipped, 200u);
    EXPECT_GT(run.suspended, 50u);
    EXPECT_GT(run.resumed, 50u);
}

TEST(MemPolicyTwin, MostlyIdlePopulationsMatchTheFullScan)
{
    // Big, mostly idle populations, flat and tree-shaped, some leaves
    // entitled to nothing (needy every pass, so always in the set),
    // with a checkpoint save/load every 23 periods.
    const TwinShape shapes[] = {
        {.pages = 20000, .leaves = 64},
        {.pages = 20000, .leaves = 512, .extraLeaves = 8},
        {.pages = 4000, .leaves = 256, .groups = 16, .tinyEvery = 37},
        {.pages = 1000, .leaves = 512, .groups = 24, .tinyEvery = 50},
        {.pages = 3000, .leaves = 128, .tinyEvery = 9},
    };
    for (const TwinShape &shape : shapes) {
        TwinRun run;
        for (std::uint64_t seed = 1; seed <= 3; ++seed) {
            runTwin(shape, seed, 120, 23, run);
            if (HasFatalFailure())
                return;
        }
        // The active-set path ran, not only full and skipped passes,
        // and the populations were suspended and resumed.
        EXPECT_GT(run.partial, run.periods / 5)
            << shape.leaves << " leaves";
        EXPECT_GT(run.suspended, 0u) << shape.leaves << " leaves";
        EXPECT_GT(run.resumed, 0u) << shape.leaves << " leaves";
    }
}

TEST(MemPolicyTwin, LeafEntitledToNothingStaysNeedyWithNothingToLend)
{
    // A leaf whose share floors to 0 pages is needy every pass (used >=
    // entitled, both 0), even in a pass that has nothing to lend and
    // leaves it holding nothing at allowed = entitled = 0. It must stay
    // in the active set: the next grant is split among every needy
    // leaf, it included.
    const TwinShape shape{.leaves = 3, .tinyEvery = 3};
    auto lazy = std::make_unique<MemMachine>(shape, false);
    MemMachine ref(shape, true);
    const auto period = [&lazy, &ref] {
        lazy->period(false);
        ref.period(true);
    };
    // Leaves 1 and 2 (shares 2 and 3) fill their entitlements, 367 and
    // 551 of the 920 divisible pages: 2 are left to lend, fewer than
    // the 3 needy leaves, so the pass grants nothing.
    for (MemMachine *m : {lazy.get(), &ref}) {
        for (std::size_t i : {1, 2}) {
            while (m->vm.tryCharge(m->leaves[i])) {
            }
        }
    }
    period();
    ASSERT_TRUE(sameLevels(*lazy, ref));
    ASSERT_EQ(lazy->vm.levels(lazy->leaves[0]).allowed, 0u);
    EXPECT_TRUE(lazy->vm.isActive(lazy->leaves[0]));

    // A restore rebuilds the set from the levels, which do not place
    // leaf 0 in it; the full pass after the restore must.
    lazy = lazy->restored();
    period();
    ASSERT_TRUE(sameLevels(*lazy, ref));
    EXPECT_TRUE(lazy->vm.isActive(lazy->leaves[0]));

    // Leaf 1 frees 50 pages: 52 to lend between leaf 0 and leaf 2.
    for (MemMachine *m : {lazy.get(), &ref}) {
        for (int k = 0; k < 50; ++k)
            m->vm.uncharge(m->leaves[1]);
    }
    period();
    ASSERT_TRUE(sameLevels(*lazy, ref));
    EXPECT_EQ(lazy->vm.levels(lazy->leaves[0]).allowed, 26u);
}
