#include "src/os/kernel.hh"

#include <algorithm>

#include "src/util/log.hh"
#include "src/sim/trace.hh"
#include "src/util/error.hh"

namespace piso {

namespace {

/** An I/O tag as an event operand: slot and generation in the value,
 *  the attempt in aux. */
EventArg
eventArg(const IoTag &tag)
{
    return EventArg{static_cast<std::int64_t>(
                        std::uint64_t{tag.generation} << 32 | tag.slot),
                    static_cast<std::uint32_t>(tag.attempt)};
}

IoTag
ioTag(const EventArg &arg)
{
    const auto v = static_cast<std::uint64_t>(arg.value);
    return IoTag{static_cast<std::uint32_t>(v),
                 static_cast<std::uint32_t>(v >> 32),
                 static_cast<std::int32_t>(arg.aux)};
}

} // namespace

Kernel::Kernel(EventQueue &events, VirtualMemory &vm, BufferCache &cache,
               FileSystem &fs, CpuScheduler &sched,
               std::vector<DiskDevice *> disks, Rng rng,
               KernelConfig config)
    : events_(events), vm_(vm), cache_(cache), fs_(fs), sched_(sched),
      disks_(std::move(disks)), rng_(rng), config_(config)
{
    if (disks_.empty())
        PISO_FATAL("kernel needs at least one disk");
    for (DiskDevice *d : disks_)
        d->setSink(*this);
    sched_.setClient(this);
    vm_.registerSpu(kKernelSpu);
    vm_.registerSpu(kSharedSpu);
}

void
Kernel::setSpuDisk(SpuId spu, DiskId disk)
{
    if (disk < 0 || static_cast<std::size_t>(disk) >= disks_.size())
        PISO_FATAL("SPU ", spu, " assigned to unknown disk ", disk);
    spuDisk_[spu] = disk;
}

void
Kernel::setNetwork(NetworkInterface *net)
{
    net_ = net;
    if (net_ != nullptr)
        net_->setSink(*this);
}

void
Kernel::start()
{
    if (started_)
        PISO_FATAL("kernel started twice");
    started_ = true;
    sched_.start();
    events_.scheduleAfter(config_.bdflushPeriod, EvKind::Bdflush, *this);
    events_.scheduleAfter(config_.pageoutPeriod, EvKind::Pageout, *this);
}

void
Kernel::fire(EvKind kind, const EventArg &arg)
{
    switch (kind) {
      case EvKind::SegEnd:
        segmentEnd(*process(static_cast<Pid>(arg.value)));
        return;
      case EvKind::ProcStart: {
        Process *p = process(static_cast<Pid>(arg.value));
        p->startEvent = kNoEvent;
        sched_.processReady(p);
        return;
      }
      case EvKind::SleepWake: {
        Process *p = process(static_cast<Pid>(arg.value));
        p->wakeEvent = kNoEvent;
        wakeProcess(*p);
        return;
      }
      case EvKind::Bdflush:
        bdflushPeriodicHelper();
        return;
      case EvKind::Pageout:
        pageoutDaemonHelper();
        return;
      case EvKind::BdflushKick:
        bdflush();
        return;
      case EvKind::IoTimeout:
        ioTimedOut(ioTag(arg));
        return;
      case EvKind::IoRetry: {
        const IoTag tag = ioTag(arg);
        PISO_CHECK(ops_[tag.slot].generation == tag.generation,
                   "retry of a freed I/O op in slot ", tag.slot);
        retryIo(tag.slot);
        return;
      }
      default:
        PISO_PANIC("kernel fired a '", kindName(kind), "' event");
    }
}

// --------------------------------------------------------------------
// Process management
// --------------------------------------------------------------------

Process *
Kernel::createProcess(SpuId spu, JobId job, std::string name,
                      std::unique_ptr<Behavior> behavior, Time startAt)
{
    vm_.registerSpu(spu);
    auto proc = std::make_unique<Process>(nextPid_++, spu, job,
                                          std::move(name),
                                          std::move(behavior), rng_.fork());
    Process *p = proc.get();
    processes_.push_back(std::move(proc));
    spuProcs_[spu].push_back(p);
    ++live_;

    p->startTime = startAt;
    sched_.processCreated(p);
    const Time when = std::max(startAt, events_.now());
    p->startEvent =
        events_.schedule(when, EvKind::ProcStart, *this, {p->pid()});
    return p;
}

Process *
Kernel::process(Pid pid) const
{
    // Pids are dense from 1 in creation order, and processes are
    // never erased.
    if (pid < 1 || static_cast<std::size_t>(pid) > processes_.size())
        return nullptr;
    return processes_[static_cast<std::size_t>(pid - 1)].get();
}

int
Kernel::createBarrier(int width)
{
    if (width < 1)
        PISO_FATAL("barrier width must be >= 1, got ", width);
    barriers_.push_back(Barrier{width, {}});
    return static_cast<int>(barriers_.size()) - 1;
}

int
Kernel::createLock(bool readersWriter)
{
    return locks_.create(readersWriter);
}

bool
Kernel::ioIdle() const
{
    for (const DiskDevice *d : disks_) {
        if (d->busy() || d->queueDepth() > 0)
            return false;
    }
    return cache_.dirtyCount() == 0;
}

void
Kernel::blockProcess(Process &p)
{
    sched_.processBlocked(&p);
}

void
Kernel::wakeProcess(Process &p)
{
    if (p.state() == ProcState::Blocked)
        sched_.processReady(&p);
}

// --------------------------------------------------------------------
// SchedClient: segment execution
// --------------------------------------------------------------------

void
Kernel::startRunning(Process &p)
{
    // A permanent I/O failure terminates the process the next time it
    // gets a CPU (the failed-action outcome reaches job accounting via
    // onProcessExit).
    if (p.ioFailed) {
        PISO_TRACE(TraceCat::Kernel, events_.now(), p.name(),
                   " killed by failed I/O");
        p.segmentStart = events_.now();
        doExit(p);
        return;
    }

    if (config_.cacheAffinityCost > 0) {
        const Cpu &c = sched_.cpu(p.runningOn);
        const bool migrated =
            p.lastRanOn != kNoCpu && p.lastRanOn != p.runningOn;
        const bool polluted =
            c.lastSpu != kNoSpu && c.lastSpu != p.spu();
        if (migrated || polluted) {
            p.computeRemaining += config_.cacheAffinityCost;
            stats_.affinityPenalties.add();
        }
    }
    p.lastRanOn = p.runningOn;

    p.segmentStart = events_.now();
    if (p.computeRemaining > 0)
        beginSegment(p);
    else
        advance(p);
}

void
Kernel::stopRunning(Process &p)
{
    if (p.segmentEvent != kNoEvent) {
        events_.cancel(p.segmentEvent);
        p.segmentEvent = kNoEvent;
    }
    p.segmentFaults = false;
    chargeSegment(p);
}

void
Kernel::chargeSegment(Process &p)
{
    const Time elapsed = events_.now() - p.segmentStart;
    p.cpuTime += elapsed;
    p.computeRemaining -= std::min(elapsed, p.computeRemaining);
    p.segmentStart = events_.now();
}

Time
Kernel::sampleFaultTime(Process &p)
{
    if (p.workingSet == 0)
        return kTimeNever;
    // Growth phase: linear first-touch faulting.
    if (p.everTouched < p.workingSet)
        return p.rng().exponentialTime(p.growInterval);
    if (p.resident >= p.workingSet)
        return kTimeNever;
    // Steady state: a touch refaults with probability (1 - res/ws).
    const double deficit =
        1.0 - static_cast<double>(p.resident) /
                  static_cast<double>(p.workingSet);
    const double mean = static_cast<double>(p.touchInterval) / deficit;
    return static_cast<Time>(p.rng().exponential(mean));
}

void
Kernel::beginSegment(Process &p)
{
    if (p.computeRemaining == 0)
        PISO_PANIC("beginSegment with no compute for ", p.name());
    if (p.state() != ProcState::Running)
        PISO_PANIC("beginSegment on ", procStateName(p.state()),
                   " process ", p.name());

    const Time fault_in = sampleFaultTime(p);
    Time seg;
    if (fault_in < p.computeRemaining) {
        seg = std::max<Time>(fault_in, 1);
        p.segmentFaults = true;
    } else {
        seg = p.computeRemaining;
        p.segmentFaults = false;
    }
    p.segmentStart = events_.now();
    p.segmentEvent =
        events_.scheduleAfter(seg, EvKind::SegEnd, *this, {p.pid()});
}

void
Kernel::segmentEnd(Process &p)
{
    p.segmentEvent = kNoEvent;
    chargeSegment(p);

    if (p.segmentFaults) {
        p.segmentFaults = false;
        pageFault(p);
        return;
    }

    if (p.computeRemaining > 0) {
        // Can only happen through rounding; just continue.
        beginSegment(p);
        return;
    }

    if (p.lockHeld >= 0) {
        auto granted = locks_.release(p.lockHeld, &p);
        p.lockHeld = -1;
        // Undo any inherited priority boost.
        if (const double *boosted = boostedNice_.find(p.pid())) {
            p.nice = *boosted;
            boostedNice_.erase(p.pid());
        }
        for (Process *q : granted)
            wakeProcess(*q);
    }
    advance(p);
}

void
Kernel::advance(Process &p)
{
    int guard = 0;
    while (true) {
        if (++guard > 100000)
            PISO_PANIC("process ", p.name(),
                       " spins on zero-cost actions");

        Action a;
        if (p.pendingAction) {
            a = *p.pendingAction;
            p.pendingAction.reset();
        } else {
            BehaviorContext ctx{events_.now(), p.rng()};
            a = p.behavior().next(p, ctx);
        }

        switch (execute(p, a)) {
          case Exec::Continue:
            continue;
          case Exec::Compute:
            beginSegment(p);
            return;
          case Exec::Blocked:
            return;
        }
    }
}

Kernel::Exec
Kernel::execute(Process &p, const Action &a)
{
    return std::visit(
        [&](const auto &act) -> Exec {
            using T = std::decay_t<decltype(act)>;
            if constexpr (std::is_same_v<T, ComputeAction>) {
                p.computeRemaining = std::max<Time>(act.duration, 1);
                return Exec::Compute;
            } else if constexpr (std::is_same_v<T, ReadAction>) {
                return doRead(p, act);
            } else if constexpr (std::is_same_v<T, WriteAction>) {
                return doWrite(p, act);
            } else if constexpr (std::is_same_v<T, GrowMemAction>) {
                p.workingSet += act.pages;
                return Exec::Continue;
            } else if constexpr (std::is_same_v<T, ShrinkMemAction>) {
                const std::uint64_t drop =
                    std::min(act.pages, p.resident);
                for (std::uint64_t i = 0; i < drop; ++i)
                    vm_.uncharge(p.spu());
                p.resident -= drop;
                p.workingSet -= std::min(act.pages, p.workingSet);
                p.everTouched = std::min(p.everTouched, p.workingSet);
                return Exec::Continue;
            } else if constexpr (std::is_same_v<T, SleepAction>) {
                p.wakeEvent = events_.scheduleAfter(
                    act.duration, EvKind::SleepWake, *this, {p.pid()});
                blockProcess(p);
                return Exec::Blocked;
            } else if constexpr (std::is_same_v<T, BarrierAction>) {
                return doBarrier(p, act);
            } else if constexpr (std::is_same_v<T, LockAction>) {
                return doLock(p, act);
            } else if constexpr (std::is_same_v<T, SendAction>) {
                if (!net_)
                    PISO_FATAL("SendAction without a network interface "
                               "(set SystemConfig::networkBitsPerSec)");
                NetMessage msg;
                msg.spu = p.spu();
                msg.pid = p.pid();
                msg.bytes = act.bytes;
                msg.tag = tagOf(ops_[newOp(IoOp{
                    .kind = IoKind::NetSend, .attempt = 1, .proc = &p})]);
                net_->submit(msg);
                blockProcess(p);
                return Exec::Blocked;
            } else {
                static_assert(std::is_same_v<T, ExitAction>);
                doExit(p);
                return Exec::Blocked;
            }
        },
        a);
}

Kernel::Exec
Kernel::doBarrier(Process &p, const BarrierAction &a)
{
    if (a.barrier < 0 ||
        static_cast<std::size_t>(a.barrier) >= barriers_.size())
        PISO_PANIC("unknown barrier ", a.barrier);
    Barrier &b = barriers_[static_cast<std::size_t>(a.barrier)];

    if (static_cast<int>(b.waiting.size()) + 1 >= b.width) {
        auto waiting = std::move(b.waiting);
        b.waiting.clear();
        for (Process *q : waiting)
            releaseFromBarrier(*q);
        return Exec::Continue;
    }
    b.waiting.push_back(&p);
    if (a.spin) {
        // Busy-wait: keep the CPU and burn cycles until released.
        p.spinning = true;
        p.computeRemaining = kTimeNever / 2;
        return Exec::Compute;
    }
    blockProcess(p);
    return Exec::Blocked;
}

void
Kernel::releaseFromBarrier(Process &q)
{
    if (!q.spinning) {
        wakeProcess(q);
        return;
    }
    q.spinning = false;
    q.computeRemaining = 0;
    if (q.state() == ProcState::Running) {
        // Stop the spin segment and move on to the next action.
        if (q.segmentEvent != kNoEvent) {
            events_.cancel(q.segmentEvent);
            q.segmentEvent = kNoEvent;
        }
        q.segmentFaults = false;
        const Time elapsed = events_.now() - q.segmentStart;
        q.cpuTime += elapsed;
        q.segmentStart = events_.now();
        advance(q);
    }
    // If Ready (preempted mid-spin), computeRemaining is now zero, so
    // the next dispatch advances straight to the next action.
}

Kernel::Exec
Kernel::doLock(Process &p, const LockAction &a)
{
    // The hold time executes as a compute segment; release happens in
    // segmentEnd when the hold completes.
    p.computeRemaining = std::max<Time>(a.hold, kUs);
    p.lockHeld = a.lock;
    if (locks_.acquire(a.lock, &p, a.exclusive))
        return Exec::Compute;

    // Priority inheritance (Section 3.4): transfer the blocked
    // process's priority to the holders so a starved holder cannot
    // stall a high-priority waiter.
    PISO_TRACE(TraceCat::Lock, events_.now(), p.name(),
               " blocks on lock", a.lock);
    if (config_.lockPriorityInheritance) {
        for (Process *q : locks_.holdersOf(a.lock)) {
            if (q->priority() > p.priority()) {
                PISO_TRACE(TraceCat::Lock, events_.now(), q->name(),
                           " inherits priority of ", p.name());
                if (!boostedNice_.contains(q->pid()))
                    boostedNice_[q->pid()] = q->nice;
                // Inherit the waiter's priority and keep it through
                // the rest of the critical section (the holder's own
                // usage during the hold must not re-demote it).
                q->nice -= (q->priority() - p.priority()) +
                           toSeconds(q->computeRemaining);
            }
        }
    }
    blockProcess(p);
    return Exec::Blocked;
}

void
Kernel::doExit(Process &p)
{
    for (std::uint64_t i = 0; i < p.resident; ++i)
        vm_.uncharge(p.spu());
    p.resident = 0;
    p.workingSet = 0;
    p.everTouched = 0;

    auto &procs = spuProcs_[p.spu()];
    procs.erase(std::remove(procs.begin(), procs.end(), &p), procs.end());

    PISO_TRACE(TraceCat::Kernel, events_.now(), "exit ", p.name(),
               " cpu=", formatTime(p.cpuTime), " blocked=",
               formatTime(p.blockedTime));
    --live_;
    sched_.processExited(&p);
    if (onProcessExit)
        onProcessExit(p);
}

// --------------------------------------------------------------------
// Memory management
// --------------------------------------------------------------------

void
Kernel::swapLocation(SpuId spu, DiskId &disk, std::uint64_t &sector,
                     Rng &rng, std::uint64_t pages)
{
    const DiskId *d = spuDisk_.find(spu);
    disk = d ? *d : 0;

    FileId extent;
    if (const FileId *known = swapExtent_.find(spu)) {
        extent = *known;
    } else {
        const std::uint64_t bytes =
            config_.swapExtentPages *
            static_cast<std::uint64_t>(fs_.blockBytes());
        extent = fs_.createExtent(disk, bytes);
        swapExtent_[spu] = extent;
    }
    const FileInfo &f = fs_.file(extent);
    const std::uint32_t spb = fs_.sectorsPerBlock();
    const std::uint64_t extentPages = f.sectors / spb;
    if (pages > extentPages)
        PISO_PANIC("pageout cluster of ", pages,
                   " pages exceeds the swap extent");
    // Clamp so a multi-page cluster stays inside the extent.
    const std::uint64_t lastStart = extentPages - pages;
    sector = f.startSector + rng.uniformInt(lastStart + 1) * spb;
    disk = f.disk;
}

Kernel::Reclaimed
Kernel::reclaimPage(SpuId victim)
{
    Reclaimed r;

    // 1. A clean buffer-cache page of the victim: free and instant.
    SpuId owner = kNoSpu;
    if (cache_.stealClean(victim, owner)) {
        r.found = true;
        r.dirty = false;
        r.from = owner;
        return r;
    }

    // 2. An anonymous page of the victim's largest process.
    if (const std::vector<Process *> *procs = spuProcs_.find(victim)) {
        Process *vp = nullptr;
        for (Process *q : *procs) {
            if (q->resident > 0 && (!vp || q->resident > vp->resident))
                vp = q;
        }
        if (vp) {
            --vp->resident;
            r.found = true;
            r.from = victim;
            r.dirty = vp->rng().chance(vp->dirtyFraction);
            if (r.dirty)
                swapLocation(victim, r.disk, r.sector, vp->rng());
            return r;
        }
    }

    // 3. A dirty buffer-cache page of the victim: must be written to
    //    its home location first.
    CacheBlock *dirtyBlk = nullptr;
    cache_.forEachDirty([&](CacheBlock &blk) {
        if (!dirtyBlk && blk.owner == victim && !cache_.hasWaiters(blk))
            dirtyBlk = &blk;
    });
    if (dirtyBlk) {
        const FileInfo &f = fs_.file(dirtyBlk->key.file);
        r.found = true;
        r.dirty = true;
        r.from = victim;
        r.disk = f.disk;
        r.sector = fs_.blockSector(dirtyBlk->key.file,
                                   dirtyBlk->key.block);
        // The block leaves the cache now; the data is written from
        // limbo (the frame is reused once the write completes).
        cache_.markClean(*dirtyBlk);
        cache_.remove(dirtyBlk->key);
        return r;
    }

    return r;
}

Kernel::Reclaimed
Kernel::reclaimAny(SpuId requester)
{
    SpuId first = vm_.victimSpu(requester);
    // Self-reclaim (isolation) and over-allowed reclaim (revocation)
    // are deterministic; a plain global shortage victimises SPUs in
    // proportion to their footprint, like global LRU.
    if (first != kNoSpu && first != requester &&
        vm_.overAllowed(first) == 0) {
        const SpuId weighted = vm_.weightedVictim(rng_);
        if (weighted != kNoSpu)
            first = weighted;
    }
    if (first != kNoSpu) {
        Reclaimed r = reclaimPage(first);
        if (r.found)
            return r;
    }
    // Fall back to the largest non-kernel users.
    std::vector<SpuId> order = vm_.spus();
    std::sort(order.begin(), order.end(), [this](SpuId a, SpuId b) {
        return vm_.levels(a).used > vm_.levels(b).used;
    });
    for (SpuId spu : order) {
        if (spu == kKernelSpu || spu == first)
            continue;
        Reclaimed r = reclaimPage(spu);
        if (r.found)
            return r;
    }
    return Reclaimed{};
}

void
Kernel::writeReclaimedPage(const Reclaimed &r, Process &p, FrameGrant grant)
{
    stats_.pageoutWrites.add();
    issueIo(newOp(IoOp{.kind = IoKind::FramePageout,
                       .grant = grant,
                       .disk = r.disk,
                       .spu = kSharedSpu,
                       .proc = &p,
                       .sector = r.sector,
                       .sectors = fs_.sectorsPerBlock(),
                       .grantSpu = p.spu(),
                       .from = r.from}));
}

bool
Kernel::acquireFrame(Process &p, FrameGrant grant)
{
    const SpuId spu = p.spu();
    if (vm_.tryCharge(spu))
        return true;
    if (vm_.atLimit(spu))
        vm_.notePressure(spu);

    Reclaimed r = reclaimAny(spu);
    if (!r.found)
        PISO_FATAL("no reclaimable memory anywhere (machine too small "
                   "for the workload)");
    PISO_TRACE(TraceCat::Mem, events_.now(), "reclaim from spu", r.from,
               r.dirty ? " (dirty, writeback)" : " (clean)", " for ",
               p.name());

    if (!r.dirty) {
        vm_.transferCharge(r.from, spu);
        return true;
    }

    writeReclaimedPage(r, p, grant);
    return false;
}

void
Kernel::grantFrame(Process &p, FrameGrant grant)
{
    switch (grant) {
      case FrameGrant::ZeroFill:
        ++p.everTouched;
        ++p.resident;
        wakeProcess(p);
        return;
      case FrameGrant::SwapIn:
        startSwapIn(p);
        return;
    }
}

bool
Kernel::frameForCache(SpuId spu)
{
    if (vm_.tryCharge(spu))
        return true;

    SpuId owner = kNoSpu;
    if (vm_.atLimit(spu)) {
        vm_.notePressure(spu);
        // Isolation: recycle only the SPU's own clean cache pages.
        if (cache_.stealClean(spu, owner))
            return true; // charge stays with the same SPU
        return false;
    }
    // Global shortage: steal any clean cache page.
    if (cache_.stealClean(kNoSpu, owner)) {
        vm_.transferCharge(owner, spu);
        return true;
    }
    return false;
}

void
Kernel::pageFault(Process &p)
{
    const bool zero_fill = p.everTouched < p.workingSet;

    PISO_TRACE(TraceCat::Mem, events_.now(), "fault ", p.name(),
               zero_fill ? " (zero-fill)" : " (refault)", " resident=",
               p.resident, "/", p.workingSet);
    if (zero_fill) {
        stats_.zeroFills.add();
        ++p.zeroFillFaults;
        if (acquireFrame(p, FrameGrant::ZeroFill)) {
            ++p.everTouched;
            ++p.resident;
            p.computeRemaining += config_.zeroFillCost;
            if (numa_ != nullptr) {
                p.computeRemaining += numa_->touchCost(
                    p.runningOn, p.spu(), vm_.pageBytes(),
                    events_.now());
            }
            beginSegment(p);
            return;
        }
        blockProcess(p);
        return;
    }

    // Refault: get a frame, then read the page back from swap.
    stats_.refaults.add();
    ++p.refaults;
    const bool have_frame = acquireFrame(p, FrameGrant::SwapIn);
    blockProcess(p);
    if (have_frame)
        startSwapIn(p);
}

void
Kernel::startSwapIn(Process &p)
{
    DiskId d;
    std::uint64_t sector;
    swapLocation(p.spu(), d, sector, p.rng());
    ++p.diskReads;
    issueIo(newOp(IoOp{.kind = IoKind::SwapIn,
                       .disk = d,
                       .spu = p.spu(),
                       .proc = &p,
                       .sector = sector,
                       .sectors = fs_.sectorsPerBlock()}));
}

void
Kernel::flushClusteredPageouts(
    const std::map<std::pair<SpuId, DiskId>, std::uint64_t> &dirty)
{
    // Real pagers cluster pageouts: contiguous swap slots, one large
    // request instead of a random single-page write per victim page.
    const std::uint32_t spb = fs_.sectorsPerBlock();
    const std::uint64_t maxPages = config_.maxIoSectors / spb;
    for (const auto &[key, total] : dirty) {
        const auto [spu, diskId] = key;
        std::uint64_t remaining = total;
        while (remaining > 0) {
            const std::uint64_t n = std::min(remaining, maxPages);
            remaining -= n;
            DiskId d;
            std::uint64_t sector;
            swapLocation(spu, d, sector, rng_, n);
            stats_.pageoutWrites.add(n);
            issueIo(newOp(IoOp{
                .kind = IoKind::ClusterPageout,
                .disk = d,
                .spu = kSharedSpu,
                .sector = sector,
                .sectors = static_cast<std::uint32_t>(n * spb),
                .count = n,
                .from = spu}));
        }
    }
}

void
Kernel::pageoutDaemon()
{
    // Dirty evictions are accumulated per (SPU, disk) and written as
    // clustered requests at the end of the pass.
    std::map<std::pair<SpuId, DiskId>, std::uint64_t> dirty;
    auto spuDisk = [this](SpuId spu) {
        const DiskId *d = spuDisk_.find(spu);
        return d ? *d : DiskId{0};
    };

    // 1. Enforce allowed levels: reclaim from over-allowed SPUs
    //    (revocation of lent memory, Section 3.2).
    for (SpuId spu : vm_.spus()) {
        if (spu == kKernelSpu)
            continue;
        std::uint64_t over = vm_.overAllowed(spu);
        std::uint64_t n = std::min(over, config_.pageoutBatch);
        for (std::uint64_t i = 0; i < n; ++i) {
            Reclaimed r = reclaimPage(spu);
            if (!r.found)
                break;
            if (!r.dirty)
                vm_.uncharge(r.from);
            else
                ++dirty[{r.from, spuDisk(r.from)}];
        }
    }

    // 2. SMP-style global replacement with hysteresis: wake when free
    //    drops under half the reserve, refill to the full reserve.
    if (config_.globalReplacement &&
        vm_.freePages() < vm_.reservePages() / 2) {
        std::uint64_t guard = config_.pageoutBatch;
        while (vm_.freePages() + pendingPageouts(dirty) <
                   vm_.reservePages() &&
               guard-- > 0) {
            Reclaimed r = reclaimAny(kNoSpu);
            if (!r.found)
                break;
            if (!r.dirty)
                vm_.uncharge(r.from);
            else
                ++dirty[{r.from, spuDisk(r.from)}];
        }
    }

    flushClusteredPageouts(dirty);
}

std::uint64_t
Kernel::pendingPageouts(
    const std::map<std::pair<SpuId, DiskId>, std::uint64_t> &dirty)
{
    std::uint64_t n = 0;
    for (const auto &[key, count] : dirty)
        n += count;
    return n;
}

// --------------------------------------------------------------------
// I/O path: fault handling (timeout, bounded retry, propagation)
// --------------------------------------------------------------------

const SpuFaultStats &
Kernel::spuFaults(SpuId spu) const
{
    return spuFaults_[spu];
}

Time
Kernel::retryBackoff(Time base, int attempt)
{
    // Exponential, but capped: a large configured base with a high
    // attempt count must saturate at the cap rather than overflow Time
    // (base << shift silently wrapped before). One minute dwarfs any
    // real ioRetryLimit schedule while keeping the default 20 ms base
    // schedule (20/40/80 ms ...) bit-for-bit unchanged.
    return retryBackoffClamped(base, attempt, 60 * kSec);
}

std::uint32_t
Kernel::newOp(const IoOp &op)
{
    std::uint32_t slot;
    if (!freeOps_.empty()) {
        slot = freeOps_.back();
        freeOps_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(ops_.size());
        ops_.emplace_back();
        opKeys_.emplace_back();
    }
    const std::uint32_t generation = ops_[slot].generation;
    ops_[slot] = op;
    ops_[slot].generation = generation;
    ops_[slot].slot = slot;
    ++liveOps_;
    return slot;
}

void
Kernel::freeOp(std::uint32_t slot)
{
    IoOp &op = ops_[slot];
    PISO_CHECK(op.settled, "freeing I/O op slot ", slot,
               " before it settled");
    // Any tag still naming this slot is stale from here on.
    ++op.generation;
    opKeys_[slot].clear();
    freeOps_.push_back(slot);
    --liveOps_;
}

Kernel::IoOp *
Kernel::liveOp(const IoTag &tag)
{
    PISO_CHECK(tag.slot < ops_.size(), "I/O tag names op slot ", tag.slot,
               " of ", ops_.size());
    IoOp &op = ops_[tag.slot];
    // A completion from an attempt the watchdog already gave up on is
    // stale: the retry (or the failure path) owns the I/O now. One from
    // a settled operation is stale too, even once the slot is reused.
    if (op.generation != tag.generation || op.settled ||
        op.attempt != tag.attempt)
        return nullptr;
    return &op;
}

IoTag
Kernel::tagOf(const IoOp &op)
{
    return IoTag{op.slot, op.generation, op.attempt};
}

DiskRequest
Kernel::requestFor(const IoOp &op) const
{
    PISO_CHECK(op.kind != IoKind::FlushWrite && op.kind != IoKind::NetSend,
               "no retryable disk request for I/O kind ",
               static_cast<int>(op.kind));
    DiskRequest req;
    req.spu = op.spu;
    req.startSector = op.sector;
    req.sectors = op.sectors;
    req.write = op.kind != IoKind::DemandRead &&
                op.kind != IoKind::ReadAhead && op.kind != IoKind::SwapIn;
    req.tag = tagOf(op);
    if (op.kind == IoKind::FramePageout ||
        op.kind == IoKind::ClusterPageout) {
        // Scheduled under the shared SPU, charged to the pages' owner.
        req.charges.emplace_back(op.from, op.sectors);
    } else {
        req.pid = op.proc->pid();
    }
    return req;
}

void
Kernel::issueIo(std::uint32_t slot)
{
    IoOp &op = ops_[slot];
    ++op.attempt;
    if (config_.ioTimeout > 0) {
        op.timeoutEvent =
            events_.scheduleAfter(config_.ioTimeout, EvKind::IoTimeout,
                                  *this, eventArg(tagOf(op)));
    }
    disks_.at(static_cast<std::size_t>(op.disk))->submit(requestFor(op));
}

void
Kernel::ioTimedOut(const IoTag &tag)
{
    IoOp *op = liveOp(tag);
    if (!op)
        return;
    op->timeoutEvent = kNoEvent;
    stats_.ioTimeouts.add();
    spuFaults_[op->spu].ioTimeouts.add();
    PISO_TRACE(TraceCat::Disk, events_.now(), "io timeout disk", op->disk,
               " spu", op->spu, " attempt ", tag.attempt);
    ioAttemptFailed(tag.slot);
}

void
Kernel::diskComplete(const DiskRequest &r)
{
    const std::uint32_t slot = r.tag.slot;
    IoOp *op = liveOp(r.tag);
    if (!op)
        return;
    if (op->kind == IoKind::FlushWrite) {
        // Delayed writes re-dirty on failure rather than retry:
        // clearing the flushing flag re-exposes the blocks to the next
        // bdflush pass (or its dead-disk drop).
        const DiskId disk = op->disk;
        flushBacklog_[disk] -= op->sectors;
        if (r.failed)
            stats_.diskErrors.add();
        settleIo(slot, !r.failed);
        wakeThrottled(disk);
        return;
    }
    if (op->timeoutEvent != kNoEvent) {
        events_.cancel(op->timeoutEvent);
        op->timeoutEvent = kNoEvent;
    }
    if (!r.failed) {
        settleIo(slot, true);
        return;
    }
    stats_.diskErrors.add();
    spuFaults_[op->spu].diskErrors.add();
    ioAttemptFailed(slot);
}

void
Kernel::netComplete(const NetMessage &msg)
{
    PISO_CHECK(liveOp(msg.tag) != nullptr,
               "network completion for a settled op");
    settleIo(msg.tag.slot, true);
}

void
Kernel::ioAttemptFailed(std::uint32_t slot)
{
    IoOp &op = ops_[slot];
    const bool diskDead =
        disks_.at(static_cast<std::size_t>(op.disk))->dead();
    if (op.attempt > config_.ioRetryLimit || diskDead) {
        stats_.failedIos.add();
        spuFaults_[op.spu].failedOps.add();
        PISO_TRACE(TraceCat::Disk, events_.now(), "io failed disk",
                   op.disk, " spu", op.spu, " after ", op.attempt,
                   " attempts", diskDead ? " (disk dead)" : "");
        settleIo(slot, false);
        return;
    }
    stats_.ioRetries.add();
    spuFaults_[op.spu].ioRetries.add();
    const Time delay = retryBackoff(config_.ioRetryBackoff, op.attempt);
    PISO_TRACE(TraceCat::Disk, events_.now(), "io retry disk", op.disk,
               " spu", op.spu, " attempt ", op.attempt + 1, " in ",
               formatTime(delay));
    ++op.pendingRetries;
    events_.scheduleAfter(delay, EvKind::IoRetry, *this,
                          eventArg(tagOf(op)));
}

void
Kernel::retryIo(std::uint32_t slot)
{
    PISO_CHECK(ops_[slot].pendingRetries > 0, "unexpected retry of the "
               "I/O op in slot ", slot);
    --ops_[slot].pendingRetries;
    issueIo(slot);
    const IoOp &op = ops_[slot];
    if (op.settled && op.pendingRetries == 0)
        freeOp(slot);
}

void
Kernel::settleIo(std::uint32_t slot, bool ok)
{
    PISO_INVARIANT(!ops_[slot].settled, "I/O op in slot ", slot,
                   " settled twice");
    ops_[slot].settled = true;
    // A copy: the outcome may start new I/O, which can grow the slab.
    const IoOp op = ops_[slot];
    if (ok)
        ioSucceeded(op);
    else
        ioFailed(op);
    if (ops_[slot].pendingRetries == 0)
        freeOp(slot);
}

void
Kernel::ioSucceeded(const IoOp &op)
{
    switch (op.kind) {
      case IoKind::DemandRead:
        validateBlocks(op);
        ioArrived(*op.proc);
        return;
      case IoKind::ReadAhead:
        validateBlocks(op);
        return;
      case IoKind::BypassWrite:
        ioArrived(*op.proc);
        return;
      case IoKind::SyncWrite:
        for (std::uint64_t b = op.first; b < op.first + op.count; ++b) {
            if (CacheBlock *blk = cache_.find(BlockKey{op.file, b}))
                cache_.markClean(*blk);
        }
        ioArrived(*op.proc);
        return;
      case IoKind::SwapIn:
        ++op.proc->resident;
        wakeProcess(*op.proc);
        return;
      case IoKind::FramePageout:
        vm_.transferCharge(op.from, op.grantSpu);
        grantFrame(*op.proc, op.grant);
        return;
      case IoKind::ClusterPageout:
        for (std::uint64_t i = 0; i < op.count; ++i)
            vm_.uncharge(op.from);
        return;
      case IoKind::FlushWrite:
        for (const BlockKey &k : opKeys_[op.slot]) {
            if (CacheBlock *blk = cache_.find(k))
                cache_.markClean(*blk);
        }
        return;
      case IoKind::NetSend:
        wakeProcess(*op.proc);
        return;
    }
}

void
Kernel::ioFailed(const IoOp &op)
{
    switch (op.kind) {
      case IoKind::DemandRead:
        dropFailedReadBlocks(op);
        failProcessIo(*op.proc);
        return;
      case IoKind::ReadAhead:
        // Speculative read: nobody is blocked on it unless they found
        // the in-flight block and queued as waiters — those are
        // released by the drop.
        dropFailedReadBlocks(op);
        return;
      case IoKind::BypassWrite:
        failProcessIo(*op.proc);
        return;
      case IoKind::SyncWrite:
        // The sync write is reported failed to the writer; the blocks
        // stay dirty for bdflush (which drops them if the disk is
        // truly gone).
        for (std::uint64_t b = op.first; b < op.first + op.count; ++b) {
            if (CacheBlock *blk = cache_.find(BlockKey{op.file, b}))
                blk->flushing = false;
        }
        failProcessIo(*op.proc);
        return;
      case IoKind::SwapIn:
        // The frame is charged and stays with the process, but its
        // backing data is gone: fatal for the process.
        ++op.proc->resident;
        op.proc->ioFailed = true;
        wakeProcess(*op.proc);
        return;
      case IoKind::FramePageout:
        // The frame must be granted whether or not the writeback made
        // it to disk; a permanently failed write means the victim
        // page's data is lost, not that the waiting allocation may
        // hang.
        stats_.lostWrites.add();
        vm_.transferCharge(op.from, op.grantSpu);
        grantFrame(*op.proc, op.grant);
        return;
      case IoKind::ClusterPageout:
        // Evicted pages whose writeback failed: data lost, but the
        // frames still return to the pool.
        stats_.lostWrites.add(op.count);
        for (std::uint64_t i = 0; i < op.count; ++i)
            vm_.uncharge(op.from);
        return;
      case IoKind::FlushWrite:
        for (const BlockKey &k : opKeys_[op.slot]) {
            if (CacheBlock *blk = cache_.find(k))
                blk->flushing = false;
        }
        return;
      case IoKind::NetSend:
        PISO_PANIC("network sends do not fail");
    }
}

void
Kernel::failProcessIo(Process &p)
{
    p.ioFailed = true;
    ioArrived(p);
}

void
Kernel::validateBlocks(const IoOp &op)
{
    for (std::uint64_t b = op.first; b < op.first + op.count; ++b) {
        if (CacheBlock *blk = cache_.find(BlockKey{op.file, b}))
            cache_.markValid(*blk, [this](Process &q) { ioArrived(q); });
    }
}

void
Kernel::dropFailedReadBlocks(const IoOp &op)
{
    for (std::uint64_t b = op.first; b < op.first + op.count; ++b) {
        const BlockKey key{op.file, b};
        CacheBlock *blk = cache_.find(key);
        if (!blk)
            continue;
        // Release the waiters so nobody hangs on the block, then drop
        // it (the data never arrived) and return the frame.
        cache_.markValid(*blk, [this](Process &q) { ioArrived(q); });
        const SpuId owner = blk->owner;
        cache_.remove(key);
        vm_.uncharge(owner);
    }
}

// --------------------------------------------------------------------
// I/O path
// --------------------------------------------------------------------

void
Kernel::ioArrived(Process &p)
{
    if (p.pendingIo <= 0)
        PISO_PANIC("spurious I/O completion for ", p.name());
    if (--p.pendingIo == 0)
        wakeProcess(p);
}

namespace {

/** Contiguous run of block numbers. */
struct BlockRun
{
    std::uint64_t first = 0;
    std::uint64_t count = 0;
};

/** Call @p fn(BlockRun) on each contiguous run of <= maxBlocks of a
 *  sorted block list, in order. */
template <typename Fn>
void
forEachRun(const std::vector<std::uint64_t> &blocks, std::uint64_t maxBlocks,
           Fn &&fn)
{
    std::size_t i = 0;
    while (i < blocks.size()) {
        BlockRun run{blocks[i], 1};
        while (i + run.count < blocks.size() &&
               blocks[i + run.count] == run.first + run.count &&
               run.count < maxBlocks)
            ++run.count;
        fn(run);
        i += run.count;
    }
}

} // namespace

Kernel::Exec
Kernel::doRead(Process &p, const ReadAction &a)
{
    const FileInfo &f = fs_.file(a.file);
    const std::uint64_t first = a.offset / fs_.blockBytes();
    const std::uint64_t nblocks = fs_.blockCount(a.file, a.offset, a.bytes);
    const std::uint32_t spb = fs_.sectorsPerBlock();
    const std::uint64_t maxBlocks = config_.maxIoSectors / spb;

    std::vector<std::uint64_t> &missing = blockScratch_;
    missing.clear();
    for (std::uint64_t b = first; b < first + nblocks; ++b) {
        BlockKey key{a.file, b};
        CacheBlock *blk = cache_.find(key);
        if (blk) {
            cache_.touch(*blk);
            if (blk->owner != p.spu() && blk->owner != kSharedSpu &&
                blk->owner != kNoSpu) {
                // Second SPU touches the page: reclassify as shared.
                vm_.transferCharge(blk->owner, kSharedSpu);
                cache_.setOwner(*blk, kSharedSpu);
            }
            if (blk->valid) {
                stats_.cacheHits.add();
            } else {
                // In flight (read-ahead); wait for it.
                stats_.cacheMisses.add();
                ++p.pendingIo;
                cache_.addWaiter(*blk, p);
            }
            continue;
        }
        stats_.cacheMisses.add();
        missing.push_back(b);
    }

    forEachRun(missing, maxBlocks, [&](const BlockRun &run) {
        // Insert cache entries for the blocks we can hold; blocks with
        // no frame are read but not cached (bypass). Once a frame is
        // refused, every later one is too (a refusal changes nothing
        // it depends on), so the cached blocks are a prefix of the run.
        std::uint64_t cached = 0;
        for (std::uint64_t i = 0; i < run.count; ++i) {
            if (frameForCache(p.spu())) {
                PISO_CHECK(cached == i, "cache frame granted after a "
                           "refusal in one read run");
                cache_.insert(BlockKey{a.file, run.first + i}, p.spu(),
                              false);
                ++cached;
            }
        }
        ++p.pendingIo;
        ++p.diskReads;
        stats_.readRequests.add();
        issueIo(newOp(IoOp{
            .kind = IoKind::DemandRead,
            .disk = f.disk,
            .spu = p.spu(),
            .proc = &p,
            .sector = fs_.blockSector(a.file, run.first),
            .sectors = static_cast<std::uint32_t>(run.count * spb),
            .file = a.file,
            .first = run.first,
            .count = cached}));
    });

    maybeReadAhead(p, a.file, first + nblocks);

    // Copying between cache and user buffers costs CPU; it runs as a
    // compute segment once any blocking I/O has completed.
    p.computeRemaining += nblocks * config_.copyCostPerBlock;

    if (p.pendingIo > 0) {
        blockProcess(p);
        return Exec::Blocked;
    }
    return p.computeRemaining > 0 ? Exec::Compute : Exec::Continue;
}

void
Kernel::maybeReadAhead(Process &p, FileId file, std::uint64_t endBlock)
{
    const auto key = std::make_pair(p.pid(), file);
    auto it = readCursor_.find(key);
    const bool sequential = it != readCursor_.end() &&
                            it->second <= endBlock &&
                            endBlock - it->second <=
                                config_.readAheadBlocks;
    readCursor_[key] = endBlock;
    if (!sequential)
        return;

    const FileInfo &f = fs_.file(file);
    const std::uint32_t spb = fs_.sectorsPerBlock();
    const std::uint64_t fileBlocks = f.sectors / spb;
    const std::uint64_t last =
        std::min<std::uint64_t>(endBlock + config_.readAheadBlocks,
                                fileBlocks);

    std::vector<std::uint64_t> &toFetch = blockScratch_;
    toFetch.clear();
    for (std::uint64_t b = endBlock; b < last; ++b) {
        BlockKey bkey{file, b};
        if (cache_.find(bkey))
            continue;
        if (!frameForCache(p.spu()))
            break; // no memory: stop prefetching
        cache_.insert(bkey, p.spu(), false);
        toFetch.push_back(b);
    }

    const std::uint64_t maxBlocks = config_.maxIoSectors / spb;
    forEachRun(toFetch, maxBlocks, [&](const BlockRun &run) {
        stats_.readAheadRequests.add();
        issueIo(newOp(IoOp{
            .kind = IoKind::ReadAhead,
            .disk = f.disk,
            .spu = p.spu(),
            .proc = &p,
            .sector = fs_.blockSector(file, run.first),
            .sectors = static_cast<std::uint32_t>(run.count * spb),
            .file = file,
            .first = run.first,
            .count = run.count}));
    });
}

bool
Kernel::throttled(DiskId disk) const
{
    const std::uint64_t *backlog = flushBacklog_.find(disk);
    return backlog && *backlog > config_.writeThrottleSectors;
}

void
Kernel::submitFlushWrite(std::uint32_t slot, DiskRequest req)
{
    IoOp &op = ops_[slot];
    op.attempt = 1;
    op.sectors = req.sectors;
    flushBacklog_[op.disk] += req.sectors;
    req.tag = tagOf(op);
    disks_.at(static_cast<std::size_t>(op.disk))->submit(std::move(req));
}

void
Kernel::wakeThrottled(DiskId disk)
{
    if (flushBacklog_[disk] > config_.writeThrottleSectors / 2)
        return;
    std::vector<Process *> *list = throttleWaiters_.find(disk);
    if (!list || list->empty())
        return;
    auto waiters = std::move(*list);
    list->clear();
    for (Process *q : waiters)
        wakeProcess(*q);
}

Kernel::Exec
Kernel::doWrite(Process &p, const WriteAction &a)
{
    const FileInfo &f = fs_.file(a.file);

    // Delayed-write throttling: too much flush backlog on this disk
    // parks the writer until the queue half-drains.
    if (!a.sync && throttled(f.disk)) {
        PISO_TRACE(TraceCat::Disk, events_.now(), p.name(),
                   " throttled on disk", f.disk);
        stats_.throttleStalls.add();
        p.pendingAction = a;
        throttleWaiters_[f.disk].push_back(&p);
        blockProcess(p);
        return Exec::Blocked;
    }

    const std::uint64_t first = a.offset / fs_.blockBytes();
    const std::uint64_t nblocks = fs_.blockCount(a.file, a.offset, a.bytes);
    const std::uint32_t spb = fs_.sectorsPerBlock();
    const std::uint64_t maxBlocks = config_.maxIoSectors / spb;

    std::vector<std::uint64_t> &bypass = blockScratch_;
    std::vector<std::uint64_t> &dirtied = syncScratch_;
    bypass.clear();
    dirtied.clear();
    for (std::uint64_t b = first; b < first + nblocks; ++b) {
        BlockKey key{a.file, b};
        CacheBlock *blk = cache_.find(key);
        if (blk) {
            cache_.touch(*blk);
            if (blk->owner != p.spu() && blk->owner != kSharedSpu &&
                blk->owner != kNoSpu) {
                vm_.transferCharge(blk->owner, kSharedSpu);
                cache_.setOwner(*blk, kSharedSpu);
            }
            cache_.markDirty(*blk);
            dirtied.push_back(b);
        } else if (frameForCache(p.spu())) {
            CacheBlock &nb = cache_.insert(key, p.spu(), true);
            cache_.markDirty(nb);
            dirtied.push_back(b);
        } else {
            bypass.push_back(b);
        }
    }

    // Write-through for blocks that found no frame: the process's own
    // (blocking) requests.
    const auto startWrite = [&](IoKind kind, const BlockRun &run) {
        ++p.pendingIo;
        ++p.diskWrites;
        issueIo(newOp(IoOp{
            .kind = kind,
            .disk = f.disk,
            .spu = p.spu(),
            .proc = &p,
            .sector = fs_.blockSector(a.file, run.first),
            .sectors = static_cast<std::uint32_t>(run.count * spb),
            .file = a.file,
            .first = run.first,
            .count = run.count}));
    };

    // Write-through for blocks that found no frame: the process's own
    // (blocking) requests.
    forEachRun(bypass, maxBlocks, [&](const BlockRun &run) {
        stats_.bypassWrites.add();
        startWrite(IoKind::BypassWrite, run);
    });

    if (a.sync) {
        // Force this action's cached blocks to disk under the
        // process's own SPU (metadata-style synchronous writes). Every
        // dirtied block is still cached: nothing since could steal a
        // dirty block.
        forEachRun(dirtied, maxBlocks, [&](const BlockRun &run) {
            for (std::uint64_t b = run.first; b < run.first + run.count;
                 ++b) {
                CacheBlock *blk = cache_.find(BlockKey{a.file, b});
                PISO_INVARIANT(blk != nullptr, "sync write lost dirtied "
                               "block ", b, " of file ", a.file);
                blk->flushing = true;
            }
            stats_.syncWriteRequests.add();
            startWrite(IoKind::SyncWrite, run);
        });
    }

    if (cache_.dirtyCount() >
        static_cast<std::size_t>(config_.dirtyHighWater *
                                 static_cast<double>(vm_.totalPages()))) {
        kickBdflush();
    }

    p.computeRemaining += nblocks * config_.copyCostPerBlock;

    if (p.pendingIo > 0) {
        blockProcess(p);
        return Exec::Blocked;
    }
    return p.computeRemaining > 0 ? Exec::Compute : Exec::Continue;
}

void
Kernel::kickBdflush()
{
    if (bdflushPending_)
        return;
    bdflushPending_ = true;
    events_.scheduleAfter(kMs, EvKind::BdflushKick, *this);
}

void
Kernel::bdflushPeriodicHelper()
{
    bdflush();
    events_.scheduleAfter(config_.bdflushPeriod, EvKind::Bdflush, *this);
}

void
Kernel::pageoutDaemonHelper()
{
    pageoutDaemon();
    events_.scheduleAfter(config_.pageoutPeriod, EvKind::Pageout, *this);
}

void
Kernel::bdflush()
{
    bdflushPending_ = false;

    // Gather dirty blocks per disk, sorted by sector, and batch them
    // into shared-SPU write requests (Section 3.3: shared delayed
    // writes scheduled under the shared SPU, pages charged to the
    // owning user SPUs once the write is done). Items point at the
    // visited blocks: the slab never moves a block, and nothing below
    // removes one except the dead-disk drop, which removes only that
    // disk's own items.
    for (std::vector<FlushItem> &items : flushItems_)
        items.clear();
    cache_.forEachDirty([&](CacheBlock &blk) {
        const FileInfo &f = fs_.file(blk.key.file);
        if (flushItems_.empty())
            flushItems_.resize(disks_.size());
        flushItems_.at(static_cast<std::size_t>(f.disk))
            .push_back(FlushItem{
                fs_.blockSector(blk.key.file, blk.key.block), &blk});
    });

    const std::uint32_t spb = fs_.sectorsPerBlock();
    for (std::size_t d = 0; d < flushItems_.size(); ++d) {
        std::vector<FlushItem> &items = flushItems_[d];
        if (items.empty())
            continue;
        const auto disk = static_cast<DiskId>(d);
        // A dead disk can never take its dirty data back: drop the
        // blocks (counted as lost writes) instead of re-flushing them
        // forever — otherwise the end-of-run drain would hang.
        if (disks_[d]->dead()) {
            stats_.lostWrites.add(items.size());
            PISO_TRACE(TraceCat::Disk, events_.now(), "bdflush drops ",
                       items.size(), " dirty blocks for dead disk",
                       disk);
            for (const FlushItem &item : items) {
                const SpuId owner = item.blk->owner;
                const BlockKey key = item.blk->key; // remove() scrubs it
                cache_.remove(key);
                vm_.uncharge(owner);
            }
            continue;
        }
        std::sort(items.begin(), items.end(),
                  [](const FlushItem &x, const FlushItem &y) {
                      return x.sector < y.sector;
                  });
        std::size_t i = 0;
        while (i < items.size()) {
            // Coalesce a contiguous sector run.
            std::size_t j = i + 1;
            while (j < items.size() &&
                   items[j].sector == items[j - 1].sector + spb &&
                   (j - i + 1) * spb <= config_.maxIoSectors) {
                ++j;
            }

            const std::uint32_t slot =
                newOp(IoOp{.kind = IoKind::FlushWrite, .disk = disk});
            std::vector<BlockKey> &keys = opKeys_[slot];
            flushCharges_.clear();
            for (std::size_t k = i; k < j; ++k) {
                CacheBlock &blk = *items[k].blk;
                keys.push_back(blk.key);
                flushCharges_[blk.owner] += spb;
                blk.flushing = true;
            }

            DiskRequest req;
            req.spu = kSharedSpu;
            req.startSector = items[i].sector;
            req.sectors = static_cast<std::uint32_t>((j - i) * spb);
            req.write = true;
            for (const auto &[owner, sectors] : flushCharges_)
                req.charges.emplace_back(owner, sectors);
            stats_.bdflushRequests.add();
            PISO_TRACE(TraceCat::Disk, events_.now(), "bdflush disk",
                       disk, " sectors=", req.sectors);
            submitFlushWrite(slot, std::move(req));
            i = j;
        }
    }
}

// --------------------------------------------------------------------
// Checkpoint
// --------------------------------------------------------------------

void
Kernel::requireIoQuiescent() const
{
    for (const DiskDevice *d : disks_) {
        if (d->busy() || d->queueDepth() > 0) {
            throw InvariantError("disk '" + d->name() +
                                 "' active at checkpoint time");
        }
    }
    if (net_ && (net_->busy() || net_->queueDepth() > 0))
        throw InvariantError("network active at checkpoint time");
    for (DiskId d : flushBacklog_.ids()) {
        if (const std::uint64_t *v = flushBacklog_.find(d); v && *v != 0) {
            throw InvariantError(
                "flush backlog outstanding at checkpoint time");
        }
    }
    for (DiskId d : throttleWaiters_.ids()) {
        if (const std::vector<Process *> *v = throttleWaiters_.find(d);
            v && !v->empty()) {
            throw InvariantError(
                "write-throttled processes at checkpoint time");
        }
    }
    for (const auto &p : processes_) {
        if (p->pendingIo > 0) {
            throw InvariantError("process '" + p->name() +
                                 "' waiting on I/O at checkpoint time");
        }
    }
    if (liveOps_ > 0)
        throw InvariantError("I/O operation in flight at checkpoint time");
}

void
Kernel::ckpt(CkptIo &io, std::size_t spuBound)
{
    // Every pid was handed out by the replayed set-up.
    const auto pidBound = static_cast<std::size_t>(nextPid_);
    const ProcessByPid byPid = [this](Pid pid) {
        return imagedProcess(pid);
    };
    rng_.ckpt(io);
    stats_.ckpt(io);
    spuFaults_.table(io, spuBound,
                     [&io](SpuFaultStats &s) { s.ckpt(io); });

    std::uint64_t live = live_;
    io.u64(live);
    // Processes, barriers and locks are all made by the set-up, so
    // their pids, widths and kinds are the replay's; only the counts
    // are checked.
    io.expect(processes_.size(), "process");
    for (const auto &p : processes_)
        p->ckpt(io);

    io.expect(barriers_.size(), "barrier");
    for (Barrier &b : barriers_)
        ckptProcesses(io, b.waiting, byPid);
    locks_.ckpt(io, byPid);
    boostedNice_.table(io, pidBound, [&io](double &v) { io.f64(v); });

    io.boolean(bdflushPending_);
    io.map(readCursor_,
           [&io](std::pair<Pid, FileId> &key, std::uint64_t &block) {
               io.i64(key.first);
               io.i64(key.second);
               io.u64(block);
           });
    // Loaded after the file system, which has appended the swap
    // extents: every imaged extent must name one of its files.
    swapExtent_.table(io, spuBound, [this, &io](FileId &f) {
        io.i64(f);
        if (f < 0 || static_cast<std::size_t>(f) >= fs_.fileCount())
            throw ConfigError("checkpoint swap extent names unknown "
                              "file " + std::to_string(f));
    });
    if (!io.loading())
        return;

    // Membership lists derive from per-process state: rebuild them in
    // pid order, which is exactly the order createProcess built and
    // doExit's std::remove preserved in the original run.
    live_ = 0;
    for (SpuId s : spuProcs_.ids())
        spuProcs_[s].clear();
    for (const auto &p : processes_) {
        if (p->state() == ProcState::Exited)
            continue;
        spuProcs_[p->spu()].push_back(p.get());
        ++live_;
    }
    if (live_ != live) {
        throw ConfigError("checkpoint live-process count disagrees "
                          "with per-process states");
    }
}

Process *
Kernel::imagedProcess(Pid pid)
{
    Process *p = process(pid);
    if (!p) {
        throw ConfigError("checkpoint references unknown pid " +
                          std::to_string(pid));
    }
    return p;
}

void
Kernel::relinkEvent(EvKind kind, Pid pid, EventId id)
{
    Process &p = *imagedProcess(pid);
    PISO_CHECK(events_.pendingEvent(id), "re-linked '", kindName(kind),
               "' event of pid ", pid, " is not pending");
    switch (kind) {
      case EvKind::ProcStart:
        p.startEvent = id;
        return;
      case EvKind::SegEnd:
        p.segmentEvent = id;
        return;
      case EvKind::SleepWake:
        p.wakeEvent = id;
        return;
      default:
        PISO_PANIC("'", kindName(kind), "' events have no owner process");
    }
}

} // namespace piso
