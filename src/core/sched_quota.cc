#include "src/core/sched_quota.hh"

#include <algorithm>

namespace piso {

std::size_t
QuotaScheduler::readyCount(SpuId spu) const
{
    const auto *queue = ready_.find(spu);
    return queue ? queue->size() : 0;
}

void
QuotaScheduler::enqueueReady(Process *p)
{
    ready_[p->spu()].push_back(p);
    nonEmpty_.insert(p->spu());
}

Process *
QuotaScheduler::popBest(SpuId spu)
{
    auto *qp = ready_.find(spu);
    if (!qp || qp->empty())
        return nullptr;
    auto &queue = *qp;
    policyIters_ += queue.size();
    auto best = queue.begin();
    for (auto q = std::next(queue.begin()); q != queue.end(); ++q) {
        if (higherPriority(*q, *best))
            best = q;
    }
    Process *p = *best;
    queue.erase(best);
    noteQueueDrained(spu);
    return p;
}

Process *
QuotaScheduler::popBestForeign(SpuId exclude)
{
    // Only SPUs with waiting work can contribute a candidate, and
    // nonEmpty_ iterates them in the same ascending-id order a full
    // table scan would: the pick is identical (tests/sched_ref_util.hh
    // keeps that scan as the reference).
    Process *best = nullptr;
    for (SpuId spu : nonEmpty_) {
        ++policyIters_;
        if (spu == exclude)
            continue;
        for (Process *q : ready_[spu]) {
            if (!best || higherPriority(q, best))
                best = q;
        }
    }
    if (best) {
        ready_[best->spu()].remove(best);
        noteQueueDrained(best->spu());
    }
    return best;
}

Process *
QuotaScheduler::selectNext(Cpu &cpu)
{
    return popBest(currentOwner(cpu));
}

bool
QuotaScheduler::eligibleIdle(const Cpu &cpu, const Process *p) const
{
    return currentOwner(cpu) == p->spu();
}

void
QuotaScheduler::policyTick()
{
    // Time-partitioned CPUs: when ownership rotates, evict a process
    // of the previous owner if the new owner has work.
    for (auto &c : cpus_) {
        if (c.timeShares.empty() || !c.running)
            continue;
        const SpuId owner = currentOwner(c);
        if (c.running->spu() != owner && readyCount(owner) > 0)
            preemptCpu(c);
    }
}

void
QuotaScheduler::idlePass()
{
    // A CPU that never lends only picks from its current owner's
    // queue, and that owner holds a share on it: only the CPUs of SPUs
    // with ready work can pick. Visit them in the ascending id order of
    // the full pass.
    for (SpuId spu : nonEmpty_) {
        ++policyIters_;
        const std::vector<CpuId> &own = cpusOf(spu);
        idleScan_.insert(idleScan_.end(), own.begin(), own.end());
    }
    std::sort(idleScan_.begin(), idleScan_.end());
    idleScan_.erase(std::unique(idleScan_.begin(), idleScan_.end()),
                    idleScan_.end());
    for (CpuId id : idleScan_) {
        Cpu &c = cpus_[static_cast<std::size_t>(id)];
        if (!c.running)
            dispatch(c);
    }
    idleScan_.clear();
}

} // namespace piso
