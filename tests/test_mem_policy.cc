/**
 * @file
 * Unit tests for the memory sharing policy (Section 3.2): entitled
 * recomputation, lending of idle pages, Reserve Threshold, and
 * revocation via allowed-level reduction.
 */

#include <gtest/gtest.h>

#include "src/core/mem_policy.hh"
#include "src/machine/memory.hh"

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

/** One machine of the recompute twin test below. */
struct MemMachine
{
    PhysicalMemory phys{1000 * 4096};
    VirtualMemory vm{phys};
    SpuManager spus;
    EventQueue events;
    MemorySharingPolicy policy{events, vm, spus};

    MemMachine()
    {
        vm.registerSpu(kKernelSpu);
        vm.registerSpu(kSharedSpu);
        vm.setAllowed(kKernelSpu, 1000);
        vm.setAllowed(kSharedSpu, 1000);
        for (const char *name : {"a", "b", "c"})
            vm.registerSpu(spus.create({.name = name}));
        policy.start();
    }
};

} // namespace

TEST(MemPolicyTwin, RecomputeEveryPeriodEqualsTheSkippingTick)
{
    // The periodic tick skips its pass when neither the VM ledger nor
    // the SPU registry changed since the last one. Its reference calls
    // the public recompute() at every period instead. Driven through
    // the same random charges, releases, pressure notes and SPU
    // life-cycle changes — with idle periods in between — both must
    // leave the same levels after every period. That includes a pass
    // that grants pages to an SPU needy only through the pressure it
    // consumed: the next pass, unchanged otherwise, takes them back,
    // so it may not be skipped.
    std::uint64_t skipped = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        MemMachine lazy;
        MemMachine full;
        Rng rng(seed);
        const Time period = lazy.policy.config().period;
        for (int round = 0; round < 200; ++round) {
            const std::vector<SpuId> users = lazy.spus.userSpus();
            const int ops = rng.chance(0.4)
                                ? 0
                                : static_cast<int>(rng.uniformInt(6));
            for (int op = 0; op < ops; ++op) {
                const SpuId spu = users[rng.uniformInt(users.size())];
                const std::size_t roll = rng.uniformInt(100);
                if (roll < 50) {
                    for (int n = 1 + static_cast<int>(rng.uniformInt(40));
                         n > 0; --n) {
                        const bool got = lazy.vm.tryCharge(spu);
                        ASSERT_EQ(full.vm.tryCharge(spu), got);
                        if (!got) {
                            lazy.vm.notePressure(spu);
                            full.vm.notePressure(spu);
                            break;
                        }
                    }
                } else if (roll < 80) {
                    for (int n = 1 + static_cast<int>(rng.uniformInt(40));
                         n > 0 && lazy.vm.levels(spu).used > 0; --n) {
                        lazy.vm.uncharge(spu);
                        full.vm.uncharge(spu);
                    }
                } else if (roll < 88) {
                    lazy.vm.notePressure(spu);
                    full.vm.notePressure(spu);
                } else if (roll < 94) {
                    // Suspend or resume, keeping one tenant active so
                    // the tick keeps its period.
                    const bool active =
                        lazy.spus.spu(spu).state == SpuState::Active;
                    if (active && lazy.spus.leafSpus().size() > 1) {
                        lazy.spus.suspend(spu);
                        full.spus.suspend(spu);
                    } else if (!active) {
                        lazy.spus.resume(spu);
                        full.spus.resume(spu);
                    }
                } else if (users.size() < 8) {
                    const std::string name = "n" + std::to_string(round);
                    lazy.vm.registerSpu(lazy.spus.create({.name = name}));
                    full.vm.registerSpu(full.spus.create({.name = name}));
                }
            }
            const std::uint64_t before = lazy.policy.policyIters();
            lazy.events.runAll(lazy.events.now() + period);
            full.policy.recompute();
            skipped += lazy.policy.policyIters() == before;
            for (SpuId spu : full.vm.spus()) {
                const MemLevels &x = lazy.vm.levels(spu);
                const MemLevels &y = full.vm.levels(spu);
                ASSERT_TRUE(x.entitled == y.entitled &&
                            x.allowed == y.allowed && x.used == y.used &&
                            lazy.vm.pressure(spu) == full.vm.pressure(spu))
                    << "seed " << seed << " round " << round << " spu "
                    << spu;
            }
        }
    }
    // The idle periods really took the skip.
    EXPECT_GT(skipped, 200u);
}
