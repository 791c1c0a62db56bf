#include "src/os/sched_smp.hh"

namespace piso {

Process *
SmpScheduler::selectNext(Cpu &)
{
    if (ready_.empty())
        return nullptr;
    policyIters_ += ready_.size();
    // Strictly higher priority replaces the best: on a tie the earliest
    // entry wins.
    std::size_t best = 0;
    for (std::size_t i = 1; i < ready_.size(); ++i) {
        if (higherPriority(ready_[i], ready_[best]))
            best = i;
    }
    Process *p = ready_[best];
    ready_.erase(ready_.begin() + static_cast<std::ptrdiff_t>(best));
    return p;
}

void
SmpScheduler::enqueueReady(Process *p)
{
    ready_.push_back(p);
}

bool
SmpScheduler::eligibleIdle(const Cpu &, const Process *) const
{
    return true;
}

} // namespace piso
