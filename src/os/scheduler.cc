#include "src/os/scheduler.hh"

#include <algorithm>
#include <cmath>

#include "src/util/log.hh"
#include "src/sim/trace.hh"
#include "src/util/error.hh"

namespace piso {

CpuScheduler::CpuScheduler(EventQueue &events, int numCpus, Time tickPeriod,
                           Time timeSlice)
    : events_(events), tickPeriod_(tickPeriod), timeSlice_(timeSlice)
{
    if (numCpus < 1)
        PISO_FATAL("machine needs at least one CPU, got ", numCpus);
    if (tickPeriod_ == 0 || timeSlice_ == 0)
        PISO_FATAL("tick period and time slice must be non-zero");

    cpus_.resize(static_cast<std::size_t>(numCpus));
    for (int i = 0; i < numCpus; ++i)
        cpus_[static_cast<std::size_t>(i)].id = i;
    rebuildCpuIndex();
}

void
CpuScheduler::start()
{
    if (!client_)
        PISO_FATAL("scheduler started without a client");
    lastDecay_ = events_.now();
    for (auto &c : cpus_)
        c.idleSince = events_.now();
    events_.scheduleAfter(tickPeriod_, EvKind::SchedTick, *this);
}

void
CpuScheduler::processCreated(Process *p)
{
    all_.push_back(p);
    p->bindDecayEpoch(&decayEpoch_);
}

bool
CpuScheduler::higherPriority(const Process *a, const Process *b)
{
    if (a->priority() != b->priority())
        return a->priority() < b->priority();
    return a->readySince < b->readySince;
}

void
CpuScheduler::processReady(Process *p)
{
    if (p->state() == ProcState::Ready || p->state() == ProcState::Running)
        PISO_PANIC("processReady on ", procStateName(p->state()),
                   " process ", p->name());

    p->setState(ProcState::Ready);
    p->readySince = events_.now();

    const CpuId id = idleCpuFor(p);
    enqueueReady(p);
    if (id != kNoCpu)
        dispatch(cpus_[static_cast<std::size_t>(id)]);
    else
        onReadyNoIdle(p);
}

CpuId
CpuScheduler::idleCpuFor(const Process *p) const
{
    // Prefer the lowest-id idle CPU p is eligible for whose home SPU is
    // p's own or none, to keep loans short; failing that, the lowest-id
    // eligible idle CPU at all. Every preferred CPU is in cpusOf(spu) or
    // unownedCpus_, so one ascending merge of the two finds the first
    // preferred CPU and the first other eligible CPU among them.
    const SpuId spu = p->spu();
    const std::vector<CpuId> &own = cpusOf(spu);
    auto a = own.begin();
    auto b = unownedCpus_.begin();
    CpuId fallback = kNoCpu;
    while (a != own.end() || b != unownedCpus_.end()) {
        const bool fromOwn =
            b == unownedCpus_.end() || (a != own.end() && *a < *b);
        const CpuId id = fromOwn ? *a++ : *b++;
        const Cpu &c = cpus_[static_cast<std::size_t>(id)];
        if (!c.online || c.running || !eligibleIdle(c, p))
            continue;
        if (c.homeSpu == spu || c.homeSpu == kNoSpu)
            return id;
        if (fallback == kNoCpu)
            fallback = id;
    }
    // A policy that never lends has no eligible CPU outside the merge.
    // One that lends may take any CPU: only ids below the candidate
    // found can still beat it.
    if (confinedToOwnCpus())
        return fallback;
    const CpuId end = fallback == kNoCpu ? numCpus() : fallback;
    for (CpuId id = 0; id < end; ++id) {
        const Cpu &c = cpus_[static_cast<std::size_t>(id)];
        if (c.online && !c.running && eligibleIdle(c, p))
            return id;
    }
    return fallback;
}

void
CpuScheduler::freeCpu(Process *p, bool requeue)
{
    if (p->runningOn == kNoCpu)
        PISO_PANIC("freeing CPU of non-running process ", p->name());

    Cpu &c = cpus_.at(static_cast<std::size_t>(p->runningOn));
    const Time busy = events_.now() - c.lastDispatch;
    c.busyTime += busy;
    spuCpuTime_[p->spu()] += busy;

    c.running = nullptr;
    c.loaned = false;
    c.idleSince = events_.now();
    p->runningOn = kNoCpu;

    if (requeue)
        enqueueReady(p);
    dispatch(c);
}

void
CpuScheduler::processBlocked(Process *p)
{
    if (p->state() != ProcState::Running)
        PISO_PANIC("processBlocked on ", procStateName(p->state()),
                   " process ", p->name());
    p->setState(ProcState::Blocked);
    p->lastBlockStart = events_.now();
    freeCpu(p, false);
}

void
CpuScheduler::processExited(Process *p)
{
    if (p->state() != ProcState::Running)
        PISO_PANIC("processExited on ", procStateName(p->state()),
                   " process ", p->name());
    p->setState(ProcState::Exited);
    p->endTime = events_.now();
    // An exited process leaves the decay registry: settle the decay
    // it has seen, then detach so later epoch bumps no longer apply.
    p->foldDecay();
    p->bindDecayEpoch(nullptr);
    all_.erase(std::remove(all_.begin(), all_.end(), p), all_.end());
    freeCpu(p, false);
}

void
CpuScheduler::dispatch(Cpu &cpu)
{
    if (cpu.running)
        PISO_PANIC("dispatch on busy cpu", cpu.id);
    if (!cpu.online)
        return;

    Process *p = selectNext(cpu);
    if (!p) {
        cpu.revokePending = false;
        return;
    }

    cpu.idleTime += events_.now() - cpu.idleSince;
    cpu.running = p;
    cpu.lastDispatch = events_.now();
    cpu.loaned = cpu.homeSpu != kNoSpu && p->spu() != cpu.homeSpu;
    if (!cpu.loaned)
        cpu.revokePending = false;

    PISO_TRACE(TraceCat::Sched, events_.now(), "dispatch ", p->name(),
               " on cpu", cpu.id, cpu.loaned ? " (loan)" : "");
    p->runningOn = cpu.id;
    p->setState(ProcState::Running);
    p->sliceUsed = 0;
    if (p->lastBlockStart != 0) {
        p->blockedTime += events_.now() - p->lastBlockStart;
        p->lastBlockStart = 0;
    }
    // The client reads cpu.lastSpu (previous cache occupant) inside
    // startRunning; update it afterwards — unless p already blocked
    // and a nested dispatch filled the CPU with someone else.
    client_->startRunning(*p);
    if (cpu.running == p)
        cpu.lastSpu = p->spu();
}

void
CpuScheduler::preemptCpu(Cpu &cpu)
{
    Process *p = cpu.running;
    if (!p)
        return;
    PISO_TRACE(TraceCat::Sched, events_.now(), "preempt ", p->name(),
               " on cpu", cpu.id);
    client_->stopRunning(*p);
    p->setState(ProcState::Ready);
    p->readySince = events_.now();
    freeCpu(p, true);
}

SpuId
CpuScheduler::currentOwner(const Cpu &cpu) const
{
    if (cpu.timeShares.empty())
        return cpu.homeSpu;
    const double pos =
        static_cast<double>(events_.now() % sharePeriod_) /
        static_cast<double>(sharePeriod_);
    double acc = 0.0;
    for (const auto &[spu, frac] : cpu.timeShares) {
        acc += frac;
        if (pos < acc)
            return spu;
    }
    return cpu.timeShares.back().first;
}

void
CpuScheduler::onReadyNoIdle(Process *)
{
}

void
CpuScheduler::policyTick()
{
}

void
CpuScheduler::idlePass()
{
    // Idle CPUs whose eligibility changed since they went idle (time
    // partition rotated, a loan hold-off expired) have no other event
    // to wake them: give them a dispatch chance every tick. With
    // nothing ready no dispatch can pick, and a dispatch that picks
    // nothing only clears revokePending, which is already false on
    // every idle online CPU: the pass would change nothing.
    if (!anyReady())
        return;
    for (auto &c : cpus_) {
        if (!c.running)
            dispatch(c);
    }
}

const std::vector<CpuId> &
CpuScheduler::cpusOf(SpuId spu) const
{
    static const std::vector<CpuId> kNone;
    const std::vector<CpuId> *own = spuCpus_.find(spu);
    return own ? *own : kNone;
}

void
CpuScheduler::rebuildCpuIndex()
{
    for (auto [spu, own] : spuCpus_)
        own.clear();
    unownedCpus_.clear();
    const auto add = [this](SpuId spu, CpuId id) {
        std::vector<CpuId> &own = spuCpus_[spu];
        if (own.empty() || own.back() != id)
            own.push_back(id);
    };
    for (const Cpu &c : cpus_) {
        if (c.homeSpu == kNoSpu)
            unownedCpus_.push_back(c.id);
        else
            add(c.homeSpu, c.id);
        for (const auto &[spu, frac] : c.timeShares)
            add(spu, c.id);
    }
}

void
CpuScheduler::fire([[maybe_unused]] EvKind kind, const EventArg &)
{
    PISO_CHECK(kind == EvKind::SchedTick, "CPU scheduler fired a '",
               kindName(kind), "' event");
    tick();
}

void
CpuScheduler::tick()
{
    const Time now = events_.now();

    // Charge the tick to whoever is running (degrading priorities).
    for (auto &c : cpus_) {
        if (c.running) {
            c.running->chargeCpu(toSeconds(tickPeriod_));
            c.running->sliceUsed += tickPeriod_;
        }
    }

    // Decay recent usage by half every second, IRIX-style, in O(1):
    // bump the epoch and let each process fold the halving in when its
    // priority is next read — the same multiply sequence a sweep over
    // every process would run, so the values are bit-exact with it.
    if (now - lastDecay_ >= decayPeriod_) {
        ++decayEpoch_;
        lastDecay_ = now;
    }

    // Expired slices: round-robin among equal-priority processes. The
    // re-dispatch picks the best ready process, which may be the same
    // one if nothing better waits.
    for (auto &c : cpus_) {
        if (c.running && c.running->sliceUsed >= timeSlice_)
            preemptCpu(c);
    }

    policyTick();
    idlePass();

    events_.scheduleAfter(tickPeriod_, EvKind::SchedTick, *this);
}

Time
CpuScheduler::spuCpuTime(SpuId spu) const
{
    const Time *accrued = spuCpuTime_.find(spu);
    Time t = accrued ? *accrued : 0;
    // Include the in-flight portion of currently running processes.
    for (const auto &c : cpus_) {
        if (c.running && c.running->spu() == spu)
            t += events_.now() - c.lastDispatch;
    }
    return t;
}

Time
CpuScheduler::totalIdleTime() const
{
    Time t = 0;
    for (const auto &c : cpus_) {
        t += c.idleTime;
        if (!c.running && c.online)
            t += events_.now() - c.idleSince;
    }
    return t;
}

int
CpuScheduler::onlineCpus() const
{
    int n = 0;
    for (const auto &c : cpus_)
        n += c.online ? 1 : 0;
    return n;
}

void
CpuScheduler::setCpuOnline(CpuId cpuId, bool online)
{
    Cpu &c = cpus_.at(static_cast<std::size_t>(cpuId));
    if (c.online == online)
        return;
    if (online) {
        c.online = true;
        c.idleSince = events_.now();
        PISO_TRACE(TraceCat::Sched, events_.now(), "cpu", c.id,
                   " online");
        return;
    }
    // Close out the idle clock before the CPU stops being idle-capable,
    // then mark it offline so the dispatch from preemptCpu's freeCpu is
    // a no-op and the evicted process stays queued for the others.
    if (!c.running)
        c.idleTime += events_.now() - c.idleSince;
    c.online = false;
    c.homeSpu = kNoSpu;
    c.timeShares.clear();
    c.revokePending = false;
    rebuildCpuIndex();
    PISO_TRACE(TraceCat::Sched, events_.now(), "cpu", c.id, " offline");
    if (c.running)
        preemptCpu(c);
}

int
CpuScheduler::takeCpusOffline(int count)
{
    int taken = 0;
    for (auto it = cpus_.rbegin();
         it != cpus_.rend() && taken < count && onlineCpus() > 1; ++it) {
        if (!it->online)
            continue;
        setCpuOnline(it->id, false);
        ++taken;
    }
    return taken;
}

int
CpuScheduler::bringCpusOnline(int count)
{
    int brought = 0;
    for (auto &c : cpus_) {
        if (brought >= count)
            break;
        if (c.online)
            continue;
        setCpuOnline(c.id, true);
        ++brought;
    }
    return brought;
}

void
CpuScheduler::repartitionCpus(const SpuTable<double> &cpuShares)
{
    for (auto &c : cpus_) {
        c.homeSpu = kNoSpu;
        c.timeShares.clear();
        c.revokePending = false;
        // A previously loaned CPU may now be home for its process.
        if (c.running)
            c.loaned = false;
    }
    partitionCpus(cpuShares);
    for (auto &c : cpus_) {
        if (c.running && c.homeSpu != kNoSpu)
            c.loaned = c.running->spu() != c.homeSpu;
    }
    // CPUs that changed hands while idle must pick up their new
    // owner's waiting work now.
    for (auto &c : cpus_) {
        if (!c.running)
            dispatch(c);
    }
}

void
CpuScheduler::partitionCpus(const SpuTable<double> &cpuShares)
{
    if (cpuShares.empty()) {
        // repartitionCpus() has just cleared every CPU's ownership.
        rebuildCpuIndex();
        return;
    }

    double total = 0.0;
    for (const auto &[spu, share] : cpuShares)
        total += share;
    if (total <= 0.0)
        PISO_FATAL("CPU shares sum to zero");

    // Only online CPUs are divisible capacity; after a fault takes CPUs
    // away the same shares re-spread proportionally over what is left.
    std::vector<std::size_t> online;
    for (std::size_t i = 0; i < cpus_.size(); ++i) {
        if (cpus_[i].online)
            online.push_back(i);
    }
    if (online.empty())
        PISO_FATAL("partitioning a machine with no online CPUs");

    // Scale shares to CPU counts.
    const double scale = static_cast<double>(online.size()) / total;
    std::size_t next = 0;

    // First pass: dedicated CPUs for the integral part of each share.
    std::vector<std::pair<SpuId, double>> fractions;
    for (const auto &[spu, share] : cpuShares) {
        const double cpus = share * scale;
        auto whole = static_cast<std::size_t>(std::floor(cpus + 1e-9));
        for (std::size_t i = 0; i < whole && next < online.size(); ++i)
            cpus_[online[next++]].homeSpu = spu;
        const double frac = cpus - static_cast<double>(whole);
        if (frac > 1e-9)
            fractions.emplace_back(spu, frac);
    }

    // Second pass: pack fractional remainders onto the leftover CPUs as
    // time shares (Section 3.1's time partitioning of remainder CPUs).
    for (; next < online.size(); ++next) {
        Cpu &c = cpus_[online[next]];
        double room = 1.0;
        while (!fractions.empty() && room > 1e-9) {
            auto &[spu, frac] = fractions.front();
            const double take = std::min(room, frac);
            c.timeShares.emplace_back(spu, take);
            room -= take;
            frac -= take;
            if (frac <= 1e-9)
                fractions.erase(fractions.begin());
        }
        if (!c.timeShares.empty())
            c.homeSpu = c.timeShares.front().first;
    }
    rebuildCpuIndex();
}

void
CpuScheduler::ckpt(CkptIo &io, const ProcessByPid &byPid,
                   std::size_t spuBound)
{
    io.time(lastDecay_);
    spuCpuTime_.table(io, spuBound, [&io](Time &t) { io.time(t); });

    io.expect(cpus_.size(), "CPU");
    for (Cpu &c : cpus_) {
        io.i64(c.homeSpu);
        io.seq(c.timeShares, [&io](std::pair<SpuId, double> &share) {
            io.i64(share.first);
            io.f64(share.second);
        });
        // Set the running pointer directly: the process is already
        // mid-segment in the image, so startRunning must NOT run.
        Pid running = c.running ? c.running->pid() : kNoPid;
        io.i64(running);
        if (io.loading())
            c.running = running == kNoPid ? nullptr : byPid(running);
        io.boolean(c.online);
        io.boolean(c.loaned);
        io.boolean(c.revokePending);
        io.i64(c.lastSpu);
        io.time(c.noLoanBefore);
        io.time(c.lastDispatch);
        io.time(c.idleSince);
        io.time(c.busyTime);
        io.time(c.idleTime);
    }

    // Registration order of live processes (pid order is preserved by
    // the std::remove-based erase in processExited).
    ckptProcesses(io, all_, byPid);

    ckptReady(io, byPid, spuBound);
    if (io.loading())
        rebuildCpuIndex();
}

} // namespace piso
