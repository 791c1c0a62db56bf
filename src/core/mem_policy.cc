#include "src/core/mem_policy.hh"

#include <algorithm>

#include "src/core/ledger.hh"
#include "src/util/error.hh"
#include "src/util/log.hh"
#include "src/sim/trace.hh"

namespace piso {

MemorySharingPolicy::MemorySharingPolicy(EventQueue &events,
                                         VirtualMemory &vm,
                                         SpuManager &spus,
                                         MemPolicyConfig config)
    : events_(events), vm_(vm), spus_(spus), config_(config)
{
    if (config_.period == 0)
        PISO_FATAL("memory policy period must be non-zero");
    if (config_.reserveFraction < 0.0 || config_.reserveFraction >= 1.0)
        PISO_FATAL("reserve fraction must be in [0, 1), got ",
                   config_.reserveFraction);
}

void
MemorySharingPolicy::start()
{
    const auto reserve = static_cast<std::uint64_t>(
        config_.reserveFraction *
        static_cast<double>(vm_.totalPages()));
    vm_.setReservePages(reserve);
    started_ = true;
    recompute();
    arm();
}

void
MemorySharingPolicy::arm()
{
    if (!started_ || armed_)
        return;
    armed_ = true;
    events_.scheduleAfter(config_.period, EvKind::MemPolicy, *this);
}

void
MemorySharingPolicy::fire([[maybe_unused]] EvKind kind, const EventArg &)
{
    PISO_CHECK(kind == EvKind::MemPolicy, "memory policy fired a '",
               kindName(kind), "' event");
    tick();
}

void
MemorySharingPolicy::tick()
{
    armed_ = false;
    // Nothing to entitle: stop rescheduling so an idle simulation's
    // event queue drains. arm() restarts the loop when SPUs return.
    if (spus_.leafSpus().empty())
        return;
    // O(1) skip: no ledger or SPU-tree change since the last full
    // pass means the pass would write back identical levels.
    if (config_.eagerRecompute || !seenValid_ ||
        vm_.version() != seenVmVersion_ ||
        spus_.version() != seenSpuVersion_) {
        recompute();
    }
    arm();
}

void
MemorySharingPolicy::recompute()
{
    const std::uint64_t total = vm_.totalPages();
    const std::uint64_t kernelUsed = vm_.levels(kKernelSpu).used;
    const std::uint64_t sharedUsed = vm_.levels(kSharedSpu).used;
    const std::uint64_t reserve = vm_.reservePages();
    const std::uint64_t overhead =
        std::min(total, kernelUsed + sharedUsed + reserve);
    const std::uint64_t divisible = total - overhead;

    const auto users = spus_.leafSpus();
    if (users.empty())
        return;
    policyIters_ += users.size();

    // 1. Recompute entitlements from the sharing contract, splitting
    //    the divisible pages down the SPU tree with per-level floors
    //    (a flat configuration reduces to share_i x divisible).
    SpuTable<std::uint64_t> entitled = spus_.entitleLeaves(divisible);
    for (SpuId spu : users) {
        vm_.registerSpu(spu);
        vm_.setEntitled(spu, entitled[spu]);
    }

    // 2. Idle resources available for lending: free frames plus pages
    //    already lent out, less the Reserve Threshold.
    std::uint64_t borrowedOut = 0;
    for (SpuId spu : users) {
        const MemLevels &l = vm_.levels(spu);
        if (l.used > entitled[spu])
            borrowedOut += l.used - entitled[spu];
    }
    const std::uint64_t free = vm_.freePages();
    const std::uint64_t lendable =
        free + borrowedOut > reserve ? free + borrowedOut - reserve : 0;

    // 3. Find SPUs that want more than their entitlement.
    std::vector<SpuId> needy;
    for (SpuId spu : users) {
        const MemLevels &l = vm_.levels(spu);
        const bool pressured = vm_.takePressure(spu) > 0;
        if (pressured || l.used >= entitled[spu])
            needy.push_back(spu);
    }

    // 4. Baseline allowed = entitled; lendable split equally among the
    //    needy. Over-allowed borrowers are reclaimed by the pageout
    //    daemon, Reserve hiding the lender's revocation latency.
    const std::uint64_t grant =
        needy.empty() ? 0 : lendable / needy.size();
    PISO_TRACE(TraceCat::Mem, events_.now(), "mem policy: lendable=",
               lendable, " needy=", needy.size(), " grant=", grant);
    for (SpuId spu : users) {
        std::uint64_t allowed = entitled[spu];
        if (grant > 0 &&
            std::find(needy.begin(), needy.end(), spu) != needy.end()) {
            allowed += grant;
        }
        vm_.setAllowed(spu, allowed);
    }

    // Capture the versions *after* the pass: the writes above bump
    // the VM version, and the skip must key off the state this pass
    // left behind, not the state it started from.
    seenVmVersion_ = vm_.version();
    seenSpuVersion_ = spus_.version();
    seenValid_ = true;
}

} // namespace piso
