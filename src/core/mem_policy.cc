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
    if (!seenValid_ ||
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

    const std::vector<SpuId> &users = spus_.leafSpus();
    if (users.empty())
        return;

    // 1. Recompute entitlements from the sharing contract, splitting
    //    the divisible pages down the SPU tree with per-level floors
    //    (a flat configuration reduces to share_i x divisible). They
    //    depend only on the divisible pages and the SPU tree, so they
    //    are rewritten only when either moved: a full pass, whose step
    //    4 writes every leaf's allowed level (setAllowed marks a leaf
    //    it leaves away from its entitlement). Every leaf that holds
    //    pages (a resumed one may have left the set) or is entitled to
    //    nothing (needy every pass: used >= entitled with both 0)
    //    joins the VM's active set here.
    const bool full = !entitledValid_ ||
                      divisible != entitledDivisible_ ||
                      spus_.version() != entitledSpuVersion_;
    if (full) {
        spus_.entitleLeaves(divisible, entitled_);
        for (SpuId spu : users) {
            // A leaf under a zero-share level gets no entry: 0.
            const std::uint64_t e = entitled_[spu];
            vm_.registerSpu(spu);
            vm_.setEntitled(spu, e);
            if (vm_.levels(spu).used > 0 || e == 0)
                vm_.markActive(spu);
        }
        entitledValid_ = true;
        entitledDivisible_ = divisible;
        entitledSpuVersion_ = spus_.version();
    }

    // Steps 2-4 visit every leaf on a full pass and only the active
    // set otherwise: a leaf outside it holds no page, has no pressure,
    // is entitled to something and is allowed exactly that, so it adds
    // nothing to the borrowed-out sum, is not needy, and would get its
    // allowed level written back unchanged. Set members that are not
    // managed leaves (the kernel and shared SPUs, suspended leaves)
    // have no entitlement entry and are skipped.
    const std::vector<SpuId> &visit = full ? users : vm_.activeSpus();
    policyIters_ += visit.size();

    // 2. Idle resources available for lending: free frames plus pages
    //    already lent out, less the Reserve Threshold.
    // 3. Count the SPUs that want more than their entitlement.
    std::uint64_t borrowedOut = 0;
    std::size_t needy = 0;
    bool pressureOnly = false;
    for (SpuId spu : visit) {
        const std::uint64_t *e = entitled_.find(spu);
        if (!e)
            continue;
        const MemLevels &l = vm_.levels(spu);
        const bool pressured = vm_.pressure(spu) > 0;
        if (l.used > *e)
            borrowedOut += l.used - *e;
        if (pressured || l.used >= *e)
            ++needy;
        pressureOnly |= pressured && l.used < *e;
    }
    const std::uint64_t free = vm_.freePages();
    const std::uint64_t lendable =
        free + borrowedOut > reserve ? free + borrowedOut - reserve : 0;

    // 4. Baseline allowed = entitled; lendable split equally among the
    //    needy. Over-allowed borrowers are reclaimed by the pageout
    //    daemon, Reserve hiding the lender's revocation latency.
    const std::uint64_t grant = needy == 0 ? 0 : lendable / needy;
    PISO_TRACE(TraceCat::Mem, events_.now(), "mem policy: lendable=",
               lendable, " needy=", needy, " grant=", grant);
    //    The needy flag is step 3's test again, pressure taken now.
    //    setAllowed() marks a leaf it grants pages to; a leaf visited
    //    here is otherwise marked already, so the active set does not
    //    grow under this loop.
    for (SpuId spu : visit) {
        const std::uint64_t *e = entitled_.find(spu);
        if (!e)
            continue;
        const MemLevels &l = vm_.levels(spu);
        const bool isNeedy = vm_.takePressure(spu) > 0 || l.used >= *e;
        vm_.setAllowed(spu, isNeedy ? *e + grant : *e);
    }

    // A leaf leaves the set once it is back at allowed = entitled with
    // no pages and no pressure (the write above reset it); members the
    // policy does not manage leave at once. A leaf entitled to nothing
    // stays: it is needy every pass.
    vm_.retainActive([this](SpuId spu) {
        const std::uint64_t *e = entitled_.find(spu);
        if (!e)
            return false;
        const MemLevels &l = vm_.levels(spu);
        return l.used > 0 || l.allowed != *e || *e == 0;
    });
    PISO_CHECK(idleOutsideActiveSet(), "memory policy: a leaf outside "
               "the active set holds pages, has pressure, or is not "
               "allowed exactly its entitlement");

    // Capture the versions *after* the pass: the writes above bump
    // the VM version, and the skip must key off the state this pass
    // left behind, not the state it started from. A pressure-only
    // grant is withdrawn by the next pass, so that pass must run.
    seenVmVersion_ = vm_.version();
    seenSpuVersion_ = spus_.version();
    seenValid_ = !pressureOnly;
}

bool
MemorySharingPolicy::idleOutsideActiveSet() const
{
    for (SpuId spu : spus_.leafSpus()) {
        if (vm_.isActive(spu))
            continue;
        const MemLevels &l = vm_.levels(spu);
        if (l.used != 0 || vm_.pressure(spu) != 0 ||
            l.allowed != l.entitled || l.entitled == 0)
            return false;
    }
    return true;
}

} // namespace piso
