/**
 * @file
 * Unit tests for entitled/allowed/used accounting (Section 2.3).
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/machine/memory.hh"
#include "src/os/vm.hh"
#include "tests/invariant_test_util.hh"

using namespace piso;

namespace {

struct VmFixture : public ::testing::Test
{
    PhysicalMemory phys{100 * 4096};
    VirtualMemory vm{phys};

    void
    SetUp() override
    {
        for (SpuId s : {kKernelSpu, kSharedSpu, SpuId{2}, SpuId{3}})
            vm.registerSpu(s);
        vm.setAllowed(kKernelSpu, 100);
        vm.setAllowed(kSharedSpu, 100);
    }

    void
    charge(SpuId spu, std::uint64_t n)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            ASSERT_TRUE(vm.tryCharge(spu));
    }
};

} // namespace

TEST_F(VmFixture, RegisterIsIdempotent)
{
    vm.registerSpu(2);
    vm.registerSpu(2);
    EXPECT_EQ(vm.levels(2).used, 0u);
}

TEST_F(VmFixture, LevelsStartAtZero)
{
    const MemLevels &l = vm.levels(2);
    EXPECT_EQ(l.entitled, 0u);
    EXPECT_EQ(l.allowed, 0u);
    EXPECT_EQ(l.used, 0u);
}

TEST_F(VmFixture, ChargeRespectsAllowed)
{
    vm.setAllowed(2, 3);
    EXPECT_TRUE(vm.tryCharge(2));
    EXPECT_TRUE(vm.tryCharge(2));
    EXPECT_TRUE(vm.tryCharge(2));
    EXPECT_FALSE(vm.tryCharge(2)); // at allowed
    EXPECT_EQ(vm.levels(2).used, 3u);
    EXPECT_EQ(vm.freePages(), 97u);
}

TEST_F(VmFixture, ChargeRespectsPhysicalLimit)
{
    vm.setAllowed(2, 200);
    charge(2, 100);
    EXPECT_FALSE(vm.tryCharge(2)); // machine is out of frames
    EXPECT_EQ(vm.freePages(), 0u);
}

TEST_F(VmFixture, UnchargeReturnsFrames)
{
    vm.setAllowed(2, 10);
    charge(2, 5);
    vm.uncharge(2);
    EXPECT_EQ(vm.levels(2).used, 4u);
    EXPECT_EQ(vm.freePages(), 96u);
}

TEST_F(VmFixture, TransferChargeMovesWithoutFreePool)
{
    vm.setAllowed(2, 10);
    vm.setAllowed(3, 10);
    charge(2, 5);
    const std::uint64_t freeBefore = vm.freePages();
    vm.transferCharge(2, 3);
    EXPECT_EQ(vm.levels(2).used, 4u);
    EXPECT_EQ(vm.levels(3).used, 1u);
    EXPECT_EQ(vm.freePages(), freeBefore);
}

TEST_F(VmFixture, AtLimitAndOverAllowed)
{
    vm.setAllowed(2, 5);
    charge(2, 5);
    EXPECT_TRUE(vm.atLimit(2));
    EXPECT_EQ(vm.overAllowed(2), 0u);
    vm.setAllowed(2, 3); // revocation lowers allowed below used
    EXPECT_EQ(vm.overAllowed(2), 2u);
}

TEST_F(VmFixture, VictimIsSelfWhenAtOwnLimit)
{
    vm.setAllowed(2, 5);
    vm.setAllowed(3, 50);
    charge(2, 5);
    charge(3, 20);
    EXPECT_EQ(vm.victimSpu(2), 2);
}

TEST_F(VmFixture, VictimIsMostOverAllowed)
{
    vm.setAllowed(2, 50);
    vm.setAllowed(3, 50);
    charge(3, 30);
    vm.setAllowed(3, 10); // 3 is now 20 over
    EXPECT_EQ(vm.victimSpu(2), 3);
}

TEST_F(VmFixture, VictimFallsBackToLargestUser)
{
    vm.setAllowed(2, 90);
    vm.setAllowed(3, 90);
    charge(2, 10);
    charge(3, 30);
    // Requester 2 is under its allowed; nobody over-allowed; victim is
    // the biggest holder.
    EXPECT_EQ(vm.victimSpu(2), 3);
}

TEST_F(VmFixture, VictimNeverKernelOnFallback)
{
    charge(kKernelSpu, 40);
    vm.setAllowed(2, 90);
    charge(2, 10);
    EXPECT_EQ(vm.victimSpu(3), 2);
}

TEST_F(VmFixture, PressureCountsAndClears)
{
    vm.notePressure(2);
    vm.notePressure(2);
    EXPECT_EQ(vm.pressure(2), 2u);
    EXPECT_EQ(vm.takePressure(2), 2u);
    EXPECT_EQ(vm.pressure(2), 0u);
    EXPECT_EQ(vm.takePressure(2), 0u);
}

TEST_F(VmFixture, SpusListsRegistered)
{
    const std::vector<SpuId> spus(vm.spus().begin(), vm.spus().end());
    EXPECT_EQ(spus.size(), 4u);
    EXPECT_EQ(spus[0], kKernelSpu);
}

TEST_F(VmFixture, ReservePagesStored)
{
    vm.setReservePages(8);
    EXPECT_EQ(vm.reservePages(), 8u);
    EXPECT_EQ(vm.totalPages(), 100u);
}

TEST_F(VmFixture, UnchargeBelowZeroPanics)
{
    EXPECT_INVARIANT_FAILS(vm.uncharge(2), "zero used");
}

TEST_F(VmFixture, UnknownSpuPanics)
{
    EXPECT_INVARIANT_FAILS(vm.levels(42), "unknown SPU");
}
