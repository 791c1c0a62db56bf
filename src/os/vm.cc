#include "src/os/vm.hh"

#include "src/util/log.hh"

namespace piso {

VirtualMemory::VirtualMemory(PhysicalMemory &phys)
    : phys_(phys)
{
}

void
VirtualMemory::registerSpu(SpuId spu)
{
    ledger_.registerSpu(spu);
    // Room for every SPU in the active set, so marking one never
    // allocates on the charge path.
    if (perSpu_.tryEmplace(spu) && active_.capacity() < perSpu_.size())
        active_.reserve(2 * perSpu_.size());
    ++version_;
}

VirtualMemory::SpuEntry &
VirtualMemory::perSpu(SpuId spu)
{
    SpuEntry *e = perSpu_.find(spu);
    if (!e)
        PISO_PANIC("unknown SPU ", spu);
    return *e;
}

const VirtualMemory::SpuEntry &
VirtualMemory::perSpu(SpuId spu) const
{
    return const_cast<VirtualMemory *>(this)->perSpu(spu);
}

void
VirtualMemory::rebuildActive()
{
    // Loading recreated every entry unmarked.
    active_.clear();
    active_.reserve(2 * perSpu_.size());
    for (auto [spu, e] : perSpu_) {
        const MemLevels &l = ledger_.levels(spu);
        if (l.used > 0 || l.allowed != l.entitled || e.pressure > 0)
            mark(spu, e);
    }
}

void
VirtualMemory::setEntitled(SpuId spu, std::uint64_t pages)
{
    ledger_.setEntitled(spu, pages);
    ++version_;
}

void
VirtualMemory::setAllowed(SpuId spu, std::uint64_t pages)
{
    ledger_.setAllowed(spu, pages);
    if (ledger_.levels(spu).entitled != pages)
        markActive(spu);
    ++version_;
}

const MemLevels &
VirtualMemory::levels(SpuId spu) const
{
    return ledger_.levels(spu);
}

bool
VirtualMemory::tryCharge(SpuId spu)
{
    const MemLevels &l = ledger_.levels(spu);
    if (l.used >= l.allowed)
        return false;
    if (!phys_.allocate(1))
        return false;
    const bool first = l.used == 0;
    ledger_.use(spu);
    if (first)
        markActive(spu);
    ++version_;
    return true;
}

void
VirtualMemory::uncharge(SpuId spu)
{
    ledger_.release(spu);
    phys_.release(1);
    ++version_;
}

void
VirtualMemory::transferCharge(SpuId from, SpuId to)
{
    const bool first = ledger_.levels(to).used == 0;
    ledger_.transfer(from, to);
    if (first)
        markActive(to);
    ++version_;
}

bool
VirtualMemory::atLimit(SpuId spu) const
{
    return ledger_.atLimit(spu);
}

std::uint64_t
VirtualMemory::overAllowed(SpuId spu) const
{
    return ledger_.overAllowed(spu);
}

SpuId
VirtualMemory::victimSpu(SpuId requester) const
{
    // Isolation: an SPU at its own cap pays for itself.
    if (ledger_.knows(requester)) {
        const MemLevels &l = ledger_.levels(requester);
        if (l.used >= l.allowed && l.used > 0)
            return requester;
    }

    // Global shortage: most-over-allowed SPU first (borrowers being
    // revoked), then the largest non-kernel holder (SMP behaviour).
    SpuId best = kNoSpu;
    std::uint64_t bestOver = 0;
    for (SpuId spu : ledger_.spus()) {
        const std::uint64_t over = ledger_.overAllowed(spu);
        if (over > bestOver) {
            bestOver = over;
            best = spu;
        }
    }
    if (best != kNoSpu)
        return best;

    std::uint64_t bestUsed = 0;
    for (SpuId spu : ledger_.spus()) {
        if (spu == kKernelSpu)
            continue;
        const std::uint64_t used = ledger_.levels(spu).used;
        if (used > bestUsed) {
            bestUsed = used;
            best = spu;
        }
    }
    return best;
}

SpuId
VirtualMemory::weightedVictim(Rng &rng) const
{
    const ResourceLedger::SpuIds all = ledger_.spus();
    std::uint64_t total = 0;
    for (SpuId spu : all) {
        if (spu != kKernelSpu)
            total += ledger_.levels(spu).used;
    }
    if (total == 0)
        return kNoSpu;
    std::uint64_t pick = rng.uniformInt(total);
    for (SpuId spu : all) {
        if (spu == kKernelSpu)
            continue;
        const std::uint64_t used = ledger_.levels(spu).used;
        if (pick < used)
            return spu;
        pick -= used;
    }
    return kNoSpu;
}

void
VirtualMemory::notePressure(SpuId spu)
{
    SpuEntry &e = perSpu(spu);
    ++e.pressure;
    mark(spu, e);
    ++version_;
}

std::uint64_t
VirtualMemory::takePressure(SpuId spu)
{
    std::uint64_t &p = perSpu(spu).pressure;
    const std::uint64_t v = p;
    p = 0;
    if (v != 0)
        ++version_;
    return v;
}

std::uint64_t
VirtualMemory::pressure(SpuId spu) const
{
    return perSpu(spu).pressure;
}

} // namespace piso
