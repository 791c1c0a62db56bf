#include "src/core/sched_quota.hh"

#include <algorithm>
#include <functional>

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
    std::vector<Process *> &queue = ready_[p->spu()];
    if (queue.empty()) {
        nonEmpty_.insert(
            std::lower_bound(nonEmpty_.begin(), nonEmpty_.end(), p->spu()),
            p->spu());
    }
    queue.push_back(p);
    PISO_CHECK(readyIndexHolds(), "ready index out of step after "
               "enqueueing pid ", p->pid());
}

Process *
QuotaScheduler::takeReady(SpuId spu, std::size_t at)
{
    std::vector<Process *> &queue = ready_[spu];
    Process *p = queue[at];
    queue.erase(queue.begin() + static_cast<std::ptrdiff_t>(at));
    if (queue.empty()) {
        nonEmpty_.erase(
            std::lower_bound(nonEmpty_.begin(), nonEmpty_.end(), spu));
    }
    PISO_CHECK(readyIndexHolds(), "ready index out of step after "
               "taking pid ", p->pid(), " off spu ", spu);
    return p;
}

bool
QuotaScheduler::readyIndexHolds() const
{
    if (std::adjacent_find(nonEmpty_.begin(), nonEmpty_.end(),
                           std::greater_equal<>()) != nonEmpty_.end())
        return false;
    std::size_t nonEmpty = 0;
    for (auto [spu, queue] : ready_) {
        if (queue.empty())
            continue;
        if (!std::binary_search(nonEmpty_.begin(), nonEmpty_.end(), spu))
            return false;
        ++nonEmpty;
    }
    return nonEmpty == nonEmpty_.size();
}

Process *
QuotaScheduler::popBest(SpuId spu)
{
    const auto *queue = ready_.find(spu);
    if (!queue || queue->empty())
        return nullptr;
    policyIters_ += queue->size();
    // Strictly higher priority replaces the best: on a tie the earliest
    // entry wins.
    std::size_t best = 0;
    for (std::size_t i = 1; i < queue->size(); ++i) {
        if (higherPriority((*queue)[i], (*queue)[best]))
            best = i;
    }
    return takeReady(spu, best);
}

Process *
QuotaScheduler::popBestForeign(SpuId exclude)
{
    // Only SPUs with waiting work can contribute a candidate, and
    // nonEmpty_ iterates them in the same ascending-id order a full
    // table scan would: the pick is identical (tests/sched_ref_util.hh
    // keeps that scan as the reference).
    Process *best = nullptr;
    std::size_t bestAt = 0;
    for (SpuId spu : nonEmpty_) {
        ++policyIters_;
        if (spu == exclude)
            continue;
        const std::vector<Process *> &queue = ready_[spu];
        for (std::size_t i = 0; i < queue.size(); ++i) {
            if (!best || higherPriority(queue[i], best)) {
                best = queue[i];
                bestAt = i;
            }
        }
    }
    return best ? takeReady(best->spu(), bestAt) : nullptr;
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

void
QuotaScheduler::ckptReady(CkptIo &io, const ProcessByPid &byPid,
                          std::size_t spuBound)
{
    ready_.table(io, spuBound, [&io, &byPid](std::vector<Process *> &q) {
        ckptProcesses(io, q, byPid);
    });
    if (!io.loading())
        return;
    nonEmpty_.clear();
    // Restore-time rebuild of the active set, not an event callback;
    // the table iterates in ascending id order.
    for (auto [spu, queue] : ready_) {
        if (!queue.empty())
            nonEmpty_.push_back(spu);
    }
}

} // namespace piso
