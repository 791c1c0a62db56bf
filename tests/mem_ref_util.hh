#ifndef PISO_TESTS_MEM_REF_UTIL_HH
#define PISO_TESTS_MEM_REF_UTIL_HH

/**
 * @file
 * Full-scan reference for the memory sharing policy's pass.
 *
 * MemorySharingPolicy::recompute writes entitlements only when the
 * divisible pages or the SPU tree moved, and otherwise visits only the
 * VM's active set: the leaves that hold pages, have pressure pending,
 * are allowed more than their entitlement or are entitled to nothing.
 * The reference here is the pass it replaces: four loops over every
 * active leaf, each pass, with a fresh entitlement table. Run on a
 * twin machine through the same charges, pressure notes and SPU-tree
 * changes, it must leave every SPU's levels and pressure exactly as
 * the policy does (test_mem_policy.cc, MemPolicyTwin).
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/spu.hh"
#include "src/os/vm.hh"

namespace piso::testutil {

/** One sharing-policy pass over every active leaf of @p spus. */
inline void
fullScanRecompute(VirtualMemory &vm, const SpuManager &spus)
{
    const std::uint64_t total = vm.totalPages();
    const std::uint64_t kernelUsed = vm.levels(kKernelSpu).used;
    const std::uint64_t sharedUsed = vm.levels(kSharedSpu).used;
    const std::uint64_t reserve = vm.reservePages();
    const std::uint64_t overhead =
        std::min(total, kernelUsed + sharedUsed + reserve);
    const std::uint64_t divisible = total - overhead;

    const std::vector<SpuId> users = spus.leafSpus();
    if (users.empty())
        return;

    // 1. Entitlements, split down the SPU tree.
    SpuTable<std::uint64_t> entitled = spus.entitleLeaves(divisible);
    for (SpuId spu : users) {
        vm.registerSpu(spu);
        vm.setEntitled(spu, entitled[spu]);
    }

    // 2. Free frames plus pages lent out, less the reserve.
    std::uint64_t borrowedOut = 0;
    for (SpuId spu : users) {
        const MemLevels &l = vm.levels(spu);
        if (l.used > entitled[spu])
            borrowedOut += l.used - entitled[spu];
    }
    const std::uint64_t free = vm.freePages();
    const std::uint64_t lendable =
        free + borrowedOut > reserve ? free + borrowedOut - reserve : 0;

    // 3. The SPUs that want more than their entitlement.
    std::vector<SpuId> needy;
    for (SpuId spu : users) {
        const MemLevels &l = vm.levels(spu);
        const bool pressured = vm.takePressure(spu) > 0;
        if (pressured || l.used >= entitled[spu])
            needy.push_back(spu);
    }

    // 4. allowed = entitled, plus an equal split for the needy.
    const std::uint64_t grant =
        needy.empty() ? 0 : lendable / needy.size();
    for (SpuId spu : users) {
        std::uint64_t allowed = entitled[spu];
        if (grant > 0 &&
            std::find(needy.begin(), needy.end(), spu) != needy.end()) {
            allowed += grant;
        }
        vm.setAllowed(spu, allowed);
    }
}

} // namespace piso::testutil

#endif // PISO_TESTS_MEM_REF_UTIL_HH
