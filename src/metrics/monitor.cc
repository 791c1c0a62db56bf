#include "src/metrics/monitor.hh"

#include "src/util/error.hh"
#include "src/util/log.hh"

namespace piso {

SpuMonitor::SpuMonitor(EventQueue &events, VirtualMemory &vm,
                       CpuScheduler &sched, std::vector<SpuId> spus,
                       Time period)
    : events_(events), vm_(vm), sched_(sched), spus_(std::move(spus)),
      period_(period)
{
    if (period_ == 0)
        PISO_FATAL("monitor period must be non-zero");
    if (spus_.empty())
        PISO_FATAL("monitor needs at least one SPU");
}

void
SpuMonitor::start()
{
    sample();
}

void
SpuMonitor::sample()
{
    MonitorSample s;
    s.when = events_.now();
    s.freePages = vm_.freePages();
    for (SpuId spu : spus_) {
        const MemLevels &l = vm_.levels(spu);
        SpuSample ss;
        ss.entitled = l.entitled;
        ss.allowed = l.allowed;
        ss.used = l.used;
        ss.cpuTime = sched_.spuCpuTime(spu);
        s.spus[spu] = ss;
    }
    samples_.push_back(std::move(s));
    events_.scheduleAfter(period_, EvKind::SpuMonitor, *this);
}

void
SpuMonitor::fire([[maybe_unused]] EvKind kind, const EventArg &)
{
    PISO_CHECK(kind == EvKind::SpuMonitor, "SPU monitor fired a '",
               kindName(kind), "' event");
    sample();
}

double
SpuMonitor::cpuShareAt(std::size_t i, SpuId spu) const
{
    if (i == 0 || i >= samples_.size())
        return 0.0;
    const Time prev = samples_[i - 1].spus.at(spu).cpuTime;
    const Time cur = samples_[i].spus.at(spu).cpuTime;
    const Time span = samples_[i].when - samples_[i - 1].when;
    if (span == 0)
        return 0.0;
    return toSeconds(cur - prev) / toSeconds(span);
}

std::uint64_t
SpuMonitor::peakUsed(SpuId spu) const
{
    std::uint64_t peak = 0;
    for (const MonitorSample &s : samples_) {
        if (const SpuSample *ss = s.spus.find(spu))
            peak = std::max(peak, ss->used);
    }
    return peak;
}

} // namespace piso
