#include "src/core/sched_piso.hh"

#include "src/sim/trace.hh"

namespace piso {

void
PisoScheduler::setSpuParents(const SpuTable<SpuId> &parents)
{
    parents_ = parents;
}

std::size_t
PisoScheduler::kinship(const SpuTable<SpuId> &parents, SpuId a, SpuId b)
{
    const auto parentOf = [&parents](SpuId spu) {
        const SpuId *p = parents.find(spu);
        return p ? *p : kNoSpu;
    };
    std::size_t da = 0;
    for (SpuId n = a; n != kNoSpu; n = parentOf(n))
        ++da;
    std::size_t db = 0;
    for (SpuId n = b; n != kNoSpu; n = parentOf(n))
        ++db;
    // Lift the deeper SPU to the other's depth, then walk both up in
    // step: the first node they share is the deepest common ancestor,
    // and its depth is the length of the common root-down prefix.
    for (; da > db; --da)
        a = parentOf(a);
    for (; db > da; --db)
        b = parentOf(b);
    for (; a != b; --da) {
        a = parentOf(a);
        b = parentOf(b);
    }
    return da;
}

Process *
PisoScheduler::popBestKin(SpuId owner)
{
    // Flat SPU sets take the exact popBestForeign path, pick order
    // included.
    if (parents_.empty())
        return popBestForeign(owner);

    Process *best = nullptr;
    std::size_t bestKin = 0;
    if (eagerLoops_) {
        // Pre-PR-9 reference path (bench/ext_scale baseline).
        // piso-lint: allow(hot-path-full-scan) -- eager-baseline
        // reference loop, compiled out of the default path.
        for (auto [spu, queue] : ready_) {
            ++policyIters_;
            if (spu == owner)
                continue;
            const std::size_t kin = kinship(parents_, owner, spu);
            if (best && kin < bestKin)
                continue;
            for (Process *q : queue) {
                if (!best || kin > bestKin ||
                    (kin == bestKin && higherPriority(q, best))) {
                    best = q;
                    bestKin = kin;
                }
            }
        }
    } else {
        // Empty queues never produce a candidate and never move
        // bestKin, so walking only the non-empty SPUs (in the same
        // ascending order) picks the identical process.
        for (SpuId spu : nonEmpty_) {
            ++policyIters_;
            if (spu == owner)
                continue;
            const std::size_t kin = kinship(parents_, owner, spu);
            if (best && kin < bestKin)
                continue;
            for (Process *q : ready_[spu]) {
                if (!best || kin > bestKin ||
                    (kin == bestKin && higherPriority(q, best))) {
                    best = q;
                    bestKin = kin;
                }
            }
        }
    }
    if (best) {
        ready_[best->spu()].remove(best);
        noteQueueDrained(best->spu());
    }
    return best;
}

Process *
PisoScheduler::selectNext(Cpu &cpu)
{
    const SpuId owner = currentOwner(cpu);
    if (Process *p = popBest(owner))
        return p;
    // On a time-partitioned CPU the other share-holders come before
    // strangers.
    // piso-lint: allow(hot-path-full-scan) -- bounded by the SPUs
    // sharing this one CPU, not the SPU population.
    for (const auto &[spu, frac] : cpu.timeShares) {
        if (spu == owner)
            continue;
        if (Process *p = popBest(spu))
            return p;
    }
    // No home work: lend the CPU to the best process anywhere — the
    // owner's own group first — unless a recent revocation put it on
    // loan hold-off.
    if (events_.now() < cpu.noLoanBefore)
        return nullptr;
    return popBestKin(owner);
}

bool
PisoScheduler::eligibleIdle(const Cpu &cpu, const Process *p) const
{
    // Any idle CPU may run any process (the base class still prefers
    // a home CPU when one is idle), except foreigners during a loan
    // hold-off window.
    if (currentOwner(cpu) == p->spu())
        return true;
    return events_.now() >= cpu.noLoanBefore;
}

void
PisoScheduler::onReadyNoIdle(Process *p)
{
    // All CPUs are busy. If one of this SPU's own CPUs is out on loan,
    // claim it back. Only a CPU where the SPU holds a share can have
    // it as its current owner.
    for (CpuId id : cpusOf(p->spu())) {
        Cpu &c = cpus_[static_cast<std::size_t>(id)];
        if (c.loaned && currentOwner(c) == p->spu()) {
            reclaim(c);
            return;
        }
    }
}

void
PisoScheduler::reclaim(Cpu &cpu)
{
    // Immediately under the IPI model, at the next clock tick
    // (<= 10 ms) otherwise.
    if (ipiRevoke_)
        revoke(cpu);
    else
        cpu.revokePending = true;
}

void
PisoScheduler::revoke(Cpu &cpu)
{
    ++revocations_;
    PISO_TRACE(TraceCat::Sched, events_.now(), "revoke loan of cpu",
               cpu.id, " from ",
               cpu.running ? cpu.running->name() : "<idle>");
    if (loanHoldoff_ > 0)
        cpu.noLoanBefore = events_.now() + loanHoldoff_;
    preemptCpu(cpu);
}

void
PisoScheduler::policyTick()
{
    QuotaScheduler::policyTick();
    for (auto &c : cpus_) {
        if (c.revokePending && c.loaned && c.running &&
            readyCount(currentOwner(c)) > 0) {
            revoke(c);
        } else if (c.revokePending && !c.loaned) {
            c.revokePending = false;
        }
    }
}

int
PisoScheduler::loanedCount() const
{
    int n = 0;
    for (const auto &c : cpus_)
        n += c.loaned ? 1 : 0;
    return n;
}

} // namespace piso
