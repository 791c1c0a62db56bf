#include "src/simulation.hh"

#include <algorithm>
#include <chrono>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>

#include "src/core/disk_fair.hh"
#include "src/core/ledger.hh"
#include "src/core/net_fair.hh"
#include "src/core/sched_piso.hh"
#include "src/core/sched_quota.hh"
#include "src/machine/disk.hh"
#include "src/machine/memory.hh"
#include "src/os/buffer_cache.hh"
#include "src/os/cscan.hh"
#include "src/os/filesystem.hh"
#include "src/os/sched_smp.hh"
#include "src/os/vm.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/event_queue.hh"
#include "src/util/log.hh"
#include "src/sim/trace.hh"
#include "src/util/error.hh"
#include "src/workload/job.hh"

namespace piso {

void
SystemConfig::setProfile(const SchemeProfile &p)
{
    cpuPolicy = p.cpu;
    memoryPolicy = p.memory;
    diskPolicy = p.disk;
    netPolicy = p.net;
}

SchemeProfile
SystemConfig::resolvedProfile() const
{
    SchemeProfile p = SchemeProfile::uniform(scheme);
    if (diskPolicy != DiskPolicy::SchemeDefault)
        p.disk = diskPolicy;
    if (cpuPolicy)
        p.cpu = *cpuPolicy;
    if (memoryPolicy)
        p.memory = *memoryPolicy;
    if (netPolicy)
        p.net = *netPolicy;
    return p;
}

namespace {

/** One pending event as the image holds it: the fields of its queue
 *  record, less the target, which the kind names. */
struct ImagedEvent
{
    EvKind kind = EvKind::SchedTick;
    Time when = 0;
    std::uint64_t seq = 0;
    std::int64_t arg = -1;  //!< pid or disk index, kind-dependent
};

} // namespace

struct Simulation::Impl : EventSink
{
    SystemConfig cfg;
    SchemeProfile profile;

    // Trace/log state is per-simulation (snapshotted from the
    // constructing thread's ambient contexts) and re-installed for the
    // duration of run(), so concurrent Simulations on sweep workers
    // never share mutable trace or log state.
    TraceContext trace;
    LogContext log;

    Rng rng;

    EventQueue events;
    PhysicalMemory phys;
    VirtualMemory vm;
    BufferCache cache;
    FileSystem fs;
    SpuManager spuMgr;

    std::vector<std::unique_ptr<DiskDevice>> disks;
    std::vector<FairDiskScheduler *> fairSchedulers;
    std::unique_ptr<NetworkInterface> network;
    FairNetScheduler *fairNet = nullptr;
    std::unique_ptr<NumaModel> numa;

    std::unique_ptr<CpuScheduler> sched;
    std::unique_ptr<Kernel> kernel;
    std::unique_ptr<MemorySharingPolicy> memPolicy;

    struct PendingJob
    {
        SpuId spu;
        JobSpec spec;
    };
    std::vector<PendingJob> pendingJobs;
    std::vector<Job> jobs;
    bool ran = false;
    bool setupDone = false;
    double setupSec = 0.0;  //!< host wall-clock of setupRun()
    double loadSec = 0.0;   //!< host wall-clock of restore()'s loadImage()
    std::uint64_t kernelPinnedPages = 0;

    /** Sorted fault schedule, delivered by a cursor interleaved with
     *  the event loop (not as queued events, so checkpoints and event
     *  sequence numbers stay independent of the plan). */
    std::vector<FaultEvent> faultSchedule;
    std::size_t faultCursor = 0;

    void rebalance();
    void applyBandwidthShares(DiskBandwidthTracker &tracker);
    SpuTable<SpuId> spuParents() const;
    void applyMemoryLevels();
    void applyFault(const FaultEvent &ev);
    /** EventSink: a fault window's end. */
    void fire(EvKind kind, const EventArg &arg) override;

    /** @name Checkpoint internals */
    /// @{
    /** Replay the deterministic setup (levels, partition, jobs,
     *  daemons). Shared by cold run() and restore(). */
    void setupRun();

    /** FNV-1a over the canonical serialisation of everything that
     *  shapes the replayed setup. Run control (faults, maxTime,
     *  watchdogs, chaos, checkpoint knobs) is deliberately excluded
     *  so a restore may continue under a different fault plan or
     *  horizon — that is what the warm-start sweep engine does. */
    std::uint64_t configDigest() const;

    /** Every pending event in seq order, into @p out; false (and
     *  @p reject) when one has a kind an image cannot hold. */
    bool pendingEvents(std::vector<ImagedEvent> &out,
                       std::string &reject) const;

    /** Attempt a checkpoint at the current boundary; false when the
     *  simulation is not quiescent here. */
    bool tryCheckpoint(std::string *why = nullptr);

    void writeImage(std::ostream &out,
                    std::vector<ImagedEvent> &pending);
    /** Simulation::restore() from a parsed image. */
    void restore(CkptReader &r);
    void loadImage(CkptReader &r);
    /** The event section of the image, both directions: the queue's
     *  clock and @p pending. Loading restores the clock; the records
     *  are re-scheduled by rebindEvents once the subsystems are in. */
    void ckptEvents(CkptIo &io, std::vector<ImagedEvent> &pending);
    /** The subsystem section of the image, both directions. */
    void ckptSubsystems(CkptIo &io);
    /** The sink a restored @p e fires on; throws ConfigError when the
     *  image names a target this simulation does not have. */
    EventSink *restoredTarget(const ImagedEvent &e);
    /** Replace the replayed setup's pending events with @p pending,
     *  each at its original (when, seq). */
    void rebindEvents(const std::vector<ImagedEvent> &pending);
    /// @}

    explicit Impl(const SystemConfig &c)
        : cfg(c), profile(c.resolvedProfile()), trace(traceContext()),
          log(logContext()), rng(c.seed),
          phys(c.memoryBytes), vm(phys),
          fs(c.diskParams.sectorBytes, 4096, rng.next())
    {
        if (cfg.diskCount < 1)
            PISO_FATAL("the machine needs at least one disk");

        const DiskPolicy policy = profile.disk;
        DiskModel model(cfg.diskParams);
        for (int d = 0; d < cfg.diskCount; ++d) {
            std::unique_ptr<DiskScheduler> dsched;
            switch (policy) {
              case DiskPolicy::HeadPosition:
                dsched = std::make_unique<CScanScheduler>();
                break;
              case DiskPolicy::BlindFair: {
                auto s = std::make_unique<IsoDiskScheduler>(
                    cfg.bwHalfLife);
                fairSchedulers.push_back(s.get());
                dsched = std::move(s);
                break;
              }
              case DiskPolicy::FairPosition: {
                auto s = std::make_unique<PisoDiskScheduler>(
                    cfg.bwThresholdSectors, cfg.bwHalfLife);
                fairSchedulers.push_back(s.get());
                dsched = std::move(s);
                break;
              }
              case DiskPolicy::SchemeDefault:
                PISO_PANIC("unresolved disk policy");
            }
            disks.push_back(std::make_unique<DiskDevice>(
                events, model, std::move(dsched), rng.fork(),
                "disk" + std::to_string(d)));
            fs.addDisk(d, model.totalSectors());
        }

        switch (profile.cpu) {
          case CpuPolicy::Smp:
            sched = std::make_unique<SmpScheduler>(
                events, cfg.cpus, cfg.tickPeriod, cfg.timeSlice);
            break;
          case CpuPolicy::Quota:
            sched = std::make_unique<QuotaScheduler>(
                events, cfg.cpus, cfg.tickPeriod, cfg.timeSlice);
            break;
          case CpuPolicy::PIso: {
            auto s = std::make_unique<PisoScheduler>(
                events, cfg.cpus, cfg.tickPeriod, cfg.timeSlice);
            s->setIpiRevocation(cfg.ipiRevocation);
            s->setLoanHoldoff(cfg.loanHoldoff);
            sched = std::move(s);
            break;
          }
        }
        sched->setEagerPolicyLoops(cfg.eagerPolicyLoops);

        KernelConfig kc = cfg.kernel;
        kc.globalReplacement = profile.memory == MemoryPolicy::Smp;

        std::vector<DiskDevice *> diskPtrs;
        for (auto &d : disks)
            diskPtrs.push_back(d.get());
        kernel = std::make_unique<Kernel>(events, vm, cache, fs, *sched,
                                          std::move(diskPtrs), rng.fork(),
                                          kc);

        if (cfg.networkBitsPerSec > 0.0) {
            std::unique_ptr<NetScheduler> nsched;
            if (profile.net == NetPolicy::Smp) {
                nsched = std::make_unique<FifoNetScheduler>();
            } else {
                auto fair =
                    std::make_unique<FairNetScheduler>(cfg.bwHalfLife);
                fairNet = fair.get();
                nsched = std::move(fair);
            }
            network = std::make_unique<NetworkInterface>(
                events, cfg.networkBitsPerSec, std::move(nsched));
            kernel->setNetwork(network.get());
        }

        if (cfg.numa.enabled()) {
            numa = std::make_unique<NumaModel>(cfg.numa, cfg.cpus);
            kernel->setNuma(numa.get());
        }

        if (profile.memory == MemoryPolicy::PIso) {
            MemPolicyConfig mpc = cfg.memPolicy;
            mpc.eagerRecompute = cfg.eagerPolicyLoops;
            memPolicy = std::make_unique<MemorySharingPolicy>(
                events, vm, spuMgr, mpc);
        }
    }
};

Simulation::Simulation(const SystemConfig &cfg)
    : impl_(std::make_unique<Impl>(cfg))
{
}

Simulation::~Simulation() = default;

SpuId
Simulation::addSpu(const SpuSpec &spec)
{
    if (impl_->ran || impl_->setupDone)
        PISO_FATAL("addSpu after run()");
    if (spec.homeDisk < 0 || spec.homeDisk >= impl_->cfg.diskCount)
        PISO_FATAL("SPU '", spec.name, "' placed on unknown disk ",
                   spec.homeDisk);
    const SpuId id = impl_->spuMgr.create(spec);
    impl_->vm.registerSpu(id);
    impl_->kernel->setSpuDisk(id, spec.homeDisk);
    return id;
}

JobId
Simulation::addJob(SpuId spu, JobSpec spec)
{
    if (impl_->ran || impl_->setupDone)
        PISO_FATAL("addJob after run()");
    if (!impl_->spuMgr.exists(spu) || spu < kFirstUserSpu)
        PISO_FATAL("job '", spec.name, "' added to invalid SPU ", spu);
    impl_->pendingJobs.push_back(Impl::PendingJob{spu, std::move(spec)});
    return static_cast<JobId>(impl_->pendingJobs.size()) - 1;
}

void
Simulation::Impl::applyBandwidthShares(DiskBandwidthTracker &tracker)
{
    // Leaves carry the effective machine shares; groups additionally
    // get their own share and parent links so the tracker can bound
    // usage at every group boundary (no-ops for a flat tree).
    for (SpuId spu : spuMgr.leafSpus())
        tracker.setShare(spu, spuMgr.shareOf(spu));
    for (SpuId spu : spuMgr.userSpus()) {
        if (spuMgr.isGroup(spu))
            tracker.setShare(spu, spuMgr.shareOf(spu));
        if (spuMgr.parentOf(spu) != kNoSpu)
            tracker.setParent(spu, spuMgr.parentOf(spu));
    }
}

SpuTable<SpuId>
Simulation::Impl::spuParents() const
{
    SpuTable<SpuId> parents;
    for (SpuId spu : spuMgr.userSpus()) {
        if (spuMgr.parentOf(spu) != kNoSpu)
            parents[spu] = spuMgr.parentOf(spu);
    }
    return parents;
}

void
Simulation::Impl::rebalance()
{
    if (profile.cpu != CpuPolicy::Smp) {
        sched->setSpuParents(spuParents());
        sched->repartitionCpus(spuMgr.cpuShares());
    }
    for (FairDiskScheduler *fds : fairSchedulers)
        applyBandwidthShares(fds->tracker());
    if (fairNet)
        applyBandwidthShares(fairNet->tracker());
    // A topology change may have re-activated leaf SPUs after the
    // sharing policy's tick loop stopped on an empty registry.
    if (memPolicy)
        memPolicy->arm();
}

void
Simulation::rebalanceSpus()
{
    impl_->rebalance();
}

void
Simulation::Impl::applyMemoryLevels()
{
    // (Re)derive per-SPU memory levels from the *current* frame pool —
    // called at setup and again whenever a fault shrinks or grows it,
    // so remaining capacity is still split by share.
    const std::uint64_t total = vm.totalPages();
    const auto users = spuMgr.leafSpus();
    vm.setAllowed(kKernelSpu, total);
    vm.setAllowed(kSharedSpu, total);

    const auto reserve = static_cast<std::uint64_t>(
        cfg.memPolicy.reserveFraction * static_cast<double>(total));

    switch (profile.memory) {
      case MemoryPolicy::Smp:
        // No per-SPU limits; the pageout daemon keeps the reserve via
        // global replacement.
        vm.setReservePages(reserve);
        for (SpuId spu : users) {
            vm.setEntitled(spu, total);
            vm.setAllowed(spu, total);
        }
        break;
      case MemoryPolicy::Quota: {
        // Fixed quotas: equal/weighted shares of non-kernel memory,
        // split down the SPU tree with per-level floors.
        vm.setReservePages(0);
        const std::uint64_t divisible =
            total > kernelPinnedPages ? total - kernelPinnedPages : 0;
        const SpuTable<std::uint64_t> entitled =
            spuMgr.entitleLeaves(divisible);
        for (SpuId spu : users) {
            const std::uint64_t *share = entitled.find(spu);
            vm.setEntitled(spu, share ? *share : 0);
            vm.setAllowed(spu, share ? *share : 0);
        }
        break;
      }
      case MemoryPolicy::PIso:
        // Levels are owned by the sharing policy; refresh its reserve
        // and recompute promptly so the new pool size takes effect
        // before the policy's next period.
        if (memPolicy) {
            vm.setReservePages(reserve);
            memPolicy->recompute();
        }
        break;
    }
}

void
Simulation::Impl::applyFault(const FaultEvent &ev)
{
    PISO_TRACE(TraceCat::Kernel, events.now(), "fault: ",
               faultKindName(ev.kind));
    switch (ev.kind) {
      case FaultKind::DiskSlow: {
        DiskDevice *d = disks.at(static_cast<std::size_t>(ev.disk)).get();
        d->setSlowFactor(ev.factor);
        if (ev.duration > 0) {
            events.scheduleAfter(ev.duration, EvKind::FaultRestoreSlow,
                                 *this, {ev.disk});
        }
        break;
      }
      case FaultKind::DiskError: {
        DiskDevice *d = disks.at(static_cast<std::size_t>(ev.disk)).get();
        d->setErrorRate(ev.rate);
        if (ev.duration > 0) {
            events.scheduleAfter(ev.duration, EvKind::FaultRestoreError,
                                 *this, {ev.disk});
        }
        break;
      }
      case FaultKind::DiskDead:
        disks.at(static_cast<std::size_t>(ev.disk))->kill();
        break;
      case FaultKind::CpuOffline:
        sched->takeCpusOffline(ev.cpus);
        rebalance();
        break;
      case FaultKind::CpuOnline:
        sched->bringCpusOnline(ev.cpus);
        rebalance();
        break;
      case FaultKind::MemShrink:
        phys.shrink(ev.pages);
        applyMemoryLevels();
        break;
      case FaultKind::MemGrow:
        phys.grow(ev.pages);
        applyMemoryLevels();
        break;
    }
}

void
Simulation::Impl::fire(EvKind kind, const EventArg &arg)
{
    DiskDevice &d = *disks[static_cast<std::size_t>(arg.value)];
    switch (kind) {
      case EvKind::FaultRestoreSlow:
        d.setSlowFactor(1.0);
        return;
      case EvKind::FaultRestoreError:
        d.setErrorRate(0.0);
        return;
      default:
        PISO_PANIC("simulation fired a '", kindName(kind), "' event");
    }
}

Kernel &
Simulation::kernel()
{
    return *impl_->kernel;
}

EventQueue &
Simulation::events()
{
    return impl_->events;
}

SpuManager &
Simulation::spus()
{
    return impl_->spuMgr;
}

FileSystem &
Simulation::fs()
{
    return impl_->fs;
}

VirtualMemory &
Simulation::vm()
{
    return impl_->vm;
}

CpuScheduler &
Simulation::scheduler()
{
    return *impl_->sched;
}

NetworkInterface *
Simulation::network()
{
    return impl_->network.get();
}

const SystemConfig &
Simulation::config() const
{
    return impl_->cfg;
}

void
Simulation::Impl::setupRun()
{
    if (setupDone)
        PISO_FATAL("Simulation setup replayed twice");
    setupDone = true;
    // piso-lint: allow(determinism-wallclock) -- host-side RunPerf timing; reported out-of-band, never feeds simulated state
    const auto wallStart = std::chrono::steady_clock::now();

    if (spuMgr.leafSpus().empty())
        PISO_FATAL("no SPUs configured");

    // --- Memory levels ---------------------------------------------
    const std::uint64_t total = vm.totalPages();
    vm.setEntitled(kKernelSpu, 0);
    vm.setAllowed(kKernelSpu, total);
    vm.setEntitled(kSharedSpu, 0);
    vm.setAllowed(kSharedSpu, total);

    // Pin boot-time kernel memory.
    kernelPinnedPages = cfg.kernelResidentBytes / phys.pageBytes();
    for (std::uint64_t i = 0; i < kernelPinnedPages; ++i) {
        if (!vm.tryCharge(kKernelSpu))
            PISO_FATAL("machine too small for the pinned kernel memory");
    }

    // The PIso sharing policy is not started yet: applyMemoryLevels
    // leaves its levels to MemorySharingPolicy::start() below.
    if (profile.memory != MemoryPolicy::PIso)
        applyMemoryLevels();

    // --- CPU partition ---------------------------------------------
    if (profile.cpu != CpuPolicy::Smp) {
        sched->setSpuParents(spuParents());
        sched->partitionCpus(spuMgr.cpuShares());
    }

    // --- Disk and network bandwidth shares ---------------------------
    for (FairDiskScheduler *fds : fairSchedulers)
        applyBandwidthShares(fds->tracker());
    if (fairNet)
        applyBandwidthShares(fairNet->tracker());

    // --- Jobs --------------------------------------------------------
    jobs.reserve(pendingJobs.size());
    for (std::size_t i = 0; i < pendingJobs.size(); ++i) {
        auto &pj = pendingJobs[i];
        const Spu &spu = spuMgr.spu(pj.spu);
        if (spuMgr.isGroup(pj.spu))
            PISO_FATAL("job '", pj.spec.name, "' placed on SPU '",
                       spu.name, "', which is a group; jobs run on ",
                       "leaf SPUs only");
        jobs.emplace_back(static_cast<JobId>(i), pj.spec.name, pj.spu,
                          pj.spec.startAt);
        if (!pj.spec.build)
            PISO_FATAL("job '", pj.spec.name, "' has no build function");

        WorkloadEnv env{fs, rng.fork(), spu.homeDisk, phys.pageBytes()};
        auto procs = pj.spec.build(*kernel, env);
        if (procs.empty())
            PISO_FATAL("job '", pj.spec.name, "' built no processes");
        for (auto &ps : procs) {
            jobs.back().addProcess();
            Process *p = kernel->createProcess(
                pj.spu, static_cast<JobId>(i), std::move(ps.name),
                std::move(ps.behavior), pj.spec.startAt);
            if (ps.touchInterval > 0)
                p->touchInterval = ps.touchInterval;
            if (ps.dirtyFraction >= 0.0)
                p->dirtyFraction = ps.dirtyFraction;
        }
    }

    kernel->onProcessExit = [this](Process &p) {
        if (p.job() != kNoJob) {
            Job &job = jobs[static_cast<std::size_t>(p.job())];
            if (p.ioFailed)
                job.markFailed();
            job.processExited(events.now());
        }
    };

    // --- Fault plan --------------------------------------------------
    if (cfg.faults.maxDiskIndex() >= cfg.diskCount)
        PISO_FATAL("fault plan references disk ",
                   cfg.faults.maxDiskIndex(), " but the machine has ",
                   cfg.diskCount);
    faultSchedule = cfg.faults.schedule();
    faultCursor = 0;

    fs.endSetup();
    kernel->start();
    if (memPolicy)
        memPolicy->start();

    setupSec =
        // piso-lint: allow(determinism-wallclock) -- host-side RunPerf timing; reported out-of-band, never feeds simulated state
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();
}

SimResults
Simulation::run()
{
    Impl &im = *impl_;
    if (im.ran)
        PISO_FATAL("Simulation::run() called twice");
    im.ran = true;

    // Run under this simulation's own trace/log contexts: every event
    // below fires inside these scopes, whatever thread
    // run() was called from.
    TraceContextScope traceScope(im.trace);
    LogContextScope logScope(im.log);

    // restore() already replayed the setup when continuing from an
    // image; a cold run does it here.
    if (!im.setupDone)
        im.setupRun();

    // --- Go ----------------------------------------------------------
    // Host-side timing of the whole run loop (start through drain); the
    // event counter on the queue gives events/sec for piso_bench and
    // the out-of-band perf report.
    // piso-lint: allow(determinism-wallclock) -- host-side RunPerf timing; reported out-of-band, never feeds simulated state
    const auto wallStart = std::chrono::steady_clock::now();
    const std::uint64_t eventsBefore = im.events.executedEvents();

    // Injected transient pressure: fail the whole attempt up front
    // until the orchestration layer has retried often enough.
    if (im.cfg.chaos.resourceUntilAttempt > 0 &&
        im.cfg.chaos.attempt <= im.cfg.chaos.resourceUntilAttempt) {
        throw ResourceError(detail::concat(
            "injected resource pressure (attempt ", im.cfg.chaos.attempt,
            " <= ", im.cfg.chaos.resourceUntilAttempt, ")"));
    }

    // Watchdog / chaos probes, checked once per executed event. Kept
    // behind one flag so unguarded runs pay nothing in the hot loop.
    const bool guarded = im.cfg.watchdogSimTime > 0 ||
                         im.cfg.watchdogEvents > 0 ||
                         im.cfg.chaos.invariantAtEvent > 0 ||
                         im.cfg.chaos.allocCapPages > 0;
    const auto checkBudgets = [&im, eventsBefore] {
        const SystemConfig &cfg = im.cfg;
        const std::uint64_t executed =
            im.events.executedEvents() - eventsBefore;
        if (cfg.watchdogSimTime > 0 && im.events.now() > cfg.watchdogSimTime)
            throw RunawayError(
                detail::concat("watchdog: simulated time ",
                               formatTime(im.events.now()),
                               " exceeded the budget of ",
                               formatTime(cfg.watchdogSimTime)),
                im.events.now());
        if (cfg.watchdogEvents > 0 && executed > cfg.watchdogEvents)
            throw RunawayError(
                detail::concat("watchdog: ", executed,
                               " events exceeded the budget of ",
                               cfg.watchdogEvents),
                im.events.now());
        if (cfg.chaos.invariantAtEvent > 0 &&
            executed >= cfg.chaos.invariantAtEvent)
            throw InvariantError(
                detail::concat("injected invariant trip at event ",
                               executed),
                im.events.now());
        const std::uint64_t usedPages =
            im.vm.totalPages() - im.vm.freePages();
        if (cfg.chaos.allocCapPages > 0 &&
            usedPages > cfg.chaos.allocCapPages)
            throw ResourceError(
                detail::concat("allocation cap exceeded: ", usedPages,
                               " pages in use > cap of ",
                               cfg.chaos.allocCapPages),
                im.events.now());
    };

    if (im.cfg.checkpointAt > 0 && !im.cfg.checkpointSink)
        throw ConfigError("checkpointAt set without a checkpointSink");
    bool ckptPending = im.cfg.checkpointAt > 0;
    bool stoppedAtCheckpoint = false;

    const auto nextFaultAt = [&im] {
        return im.faultCursor < im.faultSchedule.size()
                   ? im.faultSchedule[im.faultCursor].at
                   : kTimeNever;
    };
    // A fault due before (or at) the next event. The cursor test comes
    // first, so a run without a fault plan never probes the queue head
    // twice per event, and a drained queue never reads past the plan.
    const auto faultDue = [&im] {
        return im.faultCursor < im.faultSchedule.size() &&
               im.faultSchedule[im.faultCursor].at <=
                   im.events.nextEventTime();
    };

    while (im.kernel->liveProcesses() > 0 &&
           im.events.now() <= im.cfg.maxTime) {
        // Checkpoint trigger: once the requested time is the earliest
        // thing left to happen, advance the clock onto it and try at
        // this (and every later) boundary until the state is quiescent.
        if (ckptPending) {
            const Time at = im.cfg.checkpointAt;
            if (im.events.now() >= at ||
                (im.events.nextEventTime() > at && nextFaultAt() > at)) {
                if (im.events.now() < at)
                    im.events.advanceTo(at);
                std::string why;
                if (im.tryCheckpoint(&why)) {
                    ckptPending = false;
                    if (im.cfg.checkpointStop) {
                        stoppedAtCheckpoint = true;
                        break;
                    }
                } else if (im.cfg.checkpointDeadline > 0 &&
                           im.events.now() >= im.cfg.checkpointDeadline) {
                    throw InvariantError(
                        "no quiescent checkpoint boundary found by "
                        "the deadline (last boundary rejected: " +
                            why + ")",
                        im.events.now());
                }
            }
        }
        // Fault-plan cursor: deliver every fault due before (or at)
        // the next event, at its exact timestamp.
        if (faultDue()) {
            const FaultEvent &ev = im.faultSchedule[im.faultCursor++];
            im.events.advanceTo(ev.at);
            im.applyFault(ev);
            continue;
        }
        if (!im.events.runOne())
            break;
        if (guarded)
            checkBudgets();
    }

    // A requested checkpoint that never fired must not silently produce
    // nothing: the caller is left waiting for a sink call (or an output
    // file) that will never come.
    if (ckptPending)
        throw InvariantError(
            "simulation ended before the requested checkpoint could be "
            "taken (no quiescent boundary at or after the requested "
            "time)",
            im.events.now());

    // Drain: push every delayed write to disk so the measured disk
    // traffic reflects all the data the workload produced (the jobs
    // have already exited; their response times are unaffected). A
    // template run that stopped at its checkpoint skips the drain —
    // its results are discarded anyway.
    if (!stoppedAtCheckpoint) {
        im.kernel->syncAll();
        while (!im.kernel->ioIdle() &&
               im.events.now() <= im.cfg.maxTime) {
            if (faultDue()) {
                const FaultEvent &ev =
                    im.faultSchedule[im.faultCursor++];
                im.events.advanceTo(ev.at);
                im.applyFault(ev);
                continue;
            }
            if (!im.events.runOne())
                break;
            if (guarded)
                checkBudgets();
        }
    }

    // --- Collect ------------------------------------------------------
    SimResults res;
    res.profile = im.profile;
    res.simulatedTime = im.events.now();
    res.completed = im.kernel->liveProcesses() == 0;
    res.kernel = im.kernel->stats();
    res.perf.events = im.events.executedEvents() - eventsBefore;
    res.perf.setupSec = im.setupSec;
    res.perf.loadSec = im.loadSec;
    res.perf.policyItersCpu = im.sched->policyIters();
    res.perf.policyItersMem =
        im.memPolicy ? im.memPolicy->policyIters() : 0;
    for (const FairDiskScheduler *fds : im.fairSchedulers)
        res.perf.policyItersDisk += fds->policyIters();
    res.perf.policyItersNet = im.fairNet ? im.fairNet->policyIters() : 0;
    if (im.numa) {
        res.numa.enabled = true;
        res.numa.domains = im.numa->domains();
        res.numa.localTouches = im.numa->localTouches();
        res.numa.remoteTouches = im.numa->remoteTouches();
        res.numa.busBytes = im.numa->busBytes();
        res.numa.busUtilization = im.numa->busUtilization(im.events.now());
    }
    res.perf.wallSec =
        // piso-lint: allow(determinism-wallclock) -- host-side RunPerf timing; reported out-of-band, never feeds simulated state
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wallStart)
            .count();

    for (const Job &job : im.jobs) {
        JobResult jr;
        jr.id = job.id();
        jr.name = job.name();
        jr.spu = job.spu();
        jr.start = job.startAt();
        jr.end = job.endTime();
        jr.completed = job.completed();
        jr.failed = job.failed();
        res.jobs.push_back(jr);
    }

    for (SpuId spu : im.vm.spus()) {
        SpuResult sr;
        sr.id = spu;
        sr.name = im.spuMgr.exists(spu) ? im.spuMgr.spu(spu).name
                                        : "spu" + std::to_string(spu);
        sr.parent = im.spuMgr.exists(spu) ? im.spuMgr.spu(spu).parent
                                          : kNoSpu;
        sr.cpuTime = im.sched->spuCpuTime(spu);
        sr.memUsedPages = im.vm.levels(spu).used;
        sr.memEntitledPages = im.vm.levels(spu).entitled;
        const SpuFaultStats &sf = im.kernel->spuFaults(spu);
        sr.diskErrors = sf.diskErrors.value();
        sr.ioRetries = sf.ioRetries.value();
        sr.ioTimeouts = sf.ioTimeouts.value();
        sr.failedOps = sf.failedOps.value();
        res.spus[spu] = sr;
    }

    for (const auto &dev : im.disks) {
        DiskResult dr;
        dr.name = dev->name();
        const DiskStats &ds = dev->stats();
        dr.requests = ds.requests.value();
        dr.sectors = ds.sectors.value();
        dr.errors = ds.errors.value();
        dr.avgWaitMs = ds.waitMs.mean();
        dr.avgPositionMs = ds.positionMs.mean();
        dr.avgSeekMs = ds.seekMs.mean();
        dr.busyFraction =
            res.simulatedTime == 0
                ? 0.0
                : toSeconds(ds.busyTime) / toSeconds(res.simulatedTime);
        for (SpuId spu : im.vm.spus()) {
            const SpuDiskStats &ss = dev->spuStats(spu);
            if (ss.requests.value() == 0 && ss.waitMs.count() == 0)
                continue;
            SpuDiskResult sdr;
            sdr.requests = ss.requests.value();
            sdr.sectors = ss.sectors.value();
            sdr.errors = ss.errors.value();
            sdr.avgWaitMs = ss.waitMs.mean();
            sdr.avgServiceMs = ss.serviceMs.mean();
            dr.perSpu[spu] = sdr;
        }
        res.disks.push_back(std::move(dr));
    }

    return res;
}

// --------------------------------------------------------------------
// Checkpoint/restore
// --------------------------------------------------------------------

ConfigDigest::ConfigDigest(const SystemConfig &cfg)
{
    // The machine part is about 350 bytes; the rest leaves room for a
    // dozen SPUs and jobs before the payload has to grow.
    w_.reserve(1024);
    CkptWriter &w = w_;
    const SchemeProfile profile = cfg.resolvedProfile();
    w.u64(static_cast<std::uint64_t>(cfg.cpus));
    w.u64(cfg.memoryBytes);
    w.u64(static_cast<std::uint64_t>(cfg.diskCount));
    const DiskParams &dp = cfg.diskParams;
    w.u32(dp.cylinders);
    w.u32(dp.surfaces);
    w.u32(dp.sectorsPerTrack);
    w.u32(dp.sectorBytes);
    w.f64(dp.rpm);
    w.f64(dp.seekShortAMs);
    w.f64(dp.seekShortBMs);
    w.u32(dp.seekShortLimit);
    w.f64(dp.seekLongAMs);
    w.f64(dp.seekLongBMs);
    w.f64(dp.headSwitchMs);
    w.f64(dp.controllerOverheadMs);
    w.f64(dp.seekScale);

    w.u8(static_cast<std::uint8_t>(profile.cpu));
    w.u8(static_cast<std::uint8_t>(profile.memory));
    w.u8(static_cast<std::uint8_t>(profile.disk));
    w.u8(static_cast<std::uint8_t>(profile.net));
    w.f64(cfg.bwThresholdSectors);
    w.time(cfg.bwHalfLife);
    w.f64(cfg.networkBitsPerSec);
    w.boolean(cfg.ipiRevocation);
    w.time(cfg.loanHoldoff);
    w.time(cfg.memPolicy.period);
    w.f64(cfg.memPolicy.reserveFraction);

    // NUMA/bus machine model. eagerPolicyLoops is deliberately NOT
    // digested: it is bit-exact with the default paths, so images may
    // cross between the two (the ext_scale warm-start check relies on
    // this).
    w.u64(static_cast<std::uint64_t>(cfg.numa.domains));
    w.time(cfg.numa.localLatency);
    w.time(cfg.numa.remoteLatency);
    w.f64(cfg.numa.busBytesPerSec);
    w.f64(cfg.numa.busSaturation);
    w.time(cfg.numa.busHalfLife);

    const KernelConfig &kc = cfg.kernel;
    w.time(kc.zeroFillCost);
    w.time(kc.copyCostPerBlock);
    w.time(kc.cacheAffinityCost);
    w.time(kc.bdflushPeriod);
    w.time(kc.pageoutPeriod);
    w.u64(kc.pageoutBatch);
    w.u32(kc.readAheadBlocks);
    w.u32(kc.maxIoSectors);
    w.f64(kc.dirtyHighWater);
    w.u64(kc.writeThrottleSectors);
    w.u64(kc.swapExtentPages);
    w.boolean(kc.globalReplacement);
    w.boolean(kc.lockPriorityInheritance);
    w.time(kc.ioTimeout);
    w.i64(kc.ioRetryLimit);
    w.time(kc.ioRetryBackoff);

    w.time(cfg.tickPeriod);
    w.time(cfg.timeSlice);
    w.u64(cfg.kernelResidentBytes);
    w.u64(cfg.seed);
}

void
ConfigDigest::spus(std::size_t count)
{
    w_.u64(count);
}

void
ConfigDigest::spu(SpuId id, std::string_view name, double share,
                  DiskId homeDisk, SpuId parent, bool group)
{
    w_.i64(id);
    w_.str(name);
    w_.f64(share);
    w_.i64(homeDisk);
    w_.i64(parent);
    w_.boolean(group);
}

void
ConfigDigest::jobs(std::size_t count)
{
    w_.u64(count);
}

void
ConfigDigest::job(SpuId spu, std::string_view name, Time startAt)
{
    w_.i64(spu);
    w_.str(name);
    w_.time(startAt);
}

std::uint64_t
ConfigDigest::value() const
{
    return ckptFnv1a(w_.payload());
}

std::uint64_t
Simulation::Impl::configDigest() const
{
    ConfigDigest d(cfg);
    const auto &users = spuMgr.userSpus();
    d.spus(users.size());
    for (SpuId id : users) {
        const Spu &s = spuMgr.spu(id);
        d.spu(id, s.name, s.share, s.homeDisk, s.parent,
              spuMgr.isGroup(id));
    }
    d.jobs(pendingJobs.size());
    for (const PendingJob &pj : pendingJobs)
        d.job(pj.spu, pj.spec.name, pj.spec.startAt);
    return d.value();
}

bool
Simulation::Impl::pendingEvents(std::vector<ImagedEvent> &out,
                                std::string &reject) const
{
    out.clear();
    events.forEachPending([&out](EventId, Time when, std::uint64_t seq,
                                 EvKind kind, const EventArg &arg) {
        out.push_back(ImagedEvent{kind, when, seq, arg.value});
    });
    std::sort(out.begin(), out.end(),
              [](const ImagedEvent &a, const ImagedEvent &b) {
                  return a.seq < b.seq;
              });
    for (const ImagedEvent &e : out) {
        if (!imageable(e.kind)) {
            reject = std::string("pending '") + kindName(e.kind) +
                     "' event is not checkpointable";
            return false;
        }
    }
    return true;
}

bool
Simulation::Impl::tryCheckpoint(std::string *why)
{
    // A boundary is legal pre-loop (nothing executed yet) or strictly
    // between event times; never with events still due at now().
    if (events.executedEvents() > 0 &&
        events.nextEventTime() <= events.now()) {
        if (why)
            *why = "events still due at the current time";
        return false;
    }
    // Nor with a fault due at the current time: restore re-derives the
    // fault cursor as "first fault strictly after now()", so an image
    // taken here would silently drop that fault from the continuation.
    if (faultCursor < faultSchedule.size() &&
        faultSchedule[faultCursor].at <= events.now()) {
        if (why)
            *why = "a scheduled fault is due at the current time";
        return false;
    }
    try {
        kernel->requireIoQuiescent();
    } catch (const InvariantError &e) {
        if (why)
            *why = e.what();
        return false;
    }
    std::string reject;
    std::vector<ImagedEvent> pending;
    if (!pendingEvents(pending, reject)) {
        if (why)
            *why = reject;
        return false;
    }
    std::ostringstream os;
    writeImage(os, pending);
    cfg.checkpointSink(std::move(os).str());
    return true;
}

void
Simulation::Impl::writeImage(std::ostream &out,
                             std::vector<ImagedEvent> &pending)
{
    CkptWriter w;
    CkptIo io(w);
    ckptEvents(io, pending);
    ckptSubsystems(io);
    w.emit(out, configDigest());
}

void
Simulation::Impl::ckptEvents(CkptIo &io, std::vector<ImagedEvent> &pending)
{
    Time now = events.now();
    std::uint64_t nextSeq = events.nextSeq();
    std::uint64_t executed = events.executedEvents();
    io.time(now);
    io.u64(nextSeq);
    io.u64(executed);
    io.seq(pending, [&io](ImagedEvent &e) {
        io.u8(e.kind);
        if (!imageable(e.kind)) {
            throw ConfigError(
                "checkpoint image rejected: unknown event kind " +
                std::to_string(static_cast<unsigned>(e.kind)));
        }
        io.time(e.when);
        io.u64(e.seq);
        io.i64(e.arg);
    });
    if (io.loading())
        events.restoreClock(now, nextSeq, executed);
}

void
Simulation::Impl::ckptSubsystems(CkptIo &io)
{
    // A subsystem the configuration builds or leaves out must be the
    // same on both sides of the image.
    const auto present = [&io](bool have, const char *what) {
        bool imaged = have;
        io.boolean(imaged);
        if (imaged != have) {
            throw ConfigError(std::string("checkpoint image rejected: ") +
                              what + " mismatch");
        }
        return have;
    };

    // Taken before spuMgr's walk loads the imaged allocator.
    const std::size_t spus = spuMgr.idBound();

    rng.ckpt(io);
    phys.ckpt(io);
    vm.ckpt(io, spus);
    cache.ckpt(io, spus);
    fs.ckpt(io);
    spuMgr.ckpt(io);

    io.expect(disks.size(), "disk");
    for (auto &d : disks)
        d->ckpt(io, spus);
    for (FairDiskScheduler *fds : fairSchedulers)
        fds->tracker().ckpt(io, spus);
    if (present(network != nullptr, "network presence")) {
        network->ckpt(io, spus);
        if (present(fairNet != nullptr, "network scheduler"))
            fairNet->tracker().ckpt(io, spus);
    }
    if (present(numa != nullptr, "NUMA model presence"))
        numa->ckpt(io);

    sched->ckpt(
        io, [this](Pid pid) { return kernel->imagedProcess(pid); }, spus);
    kernel->ckpt(io, spus);

    io.expect(jobs.size(), "job");
    for (Job &j : jobs)
        j.ckpt(io);
}

EventSink *
Simulation::Impl::restoredTarget(const ImagedEvent &e)
{
    switch (e.kind) {
      case EvKind::SchedTick:
        return sched.get();
      case EvKind::MemPolicy:
        if (!memPolicy) {
            throw ConfigError("checkpoint image rejected: memPolicy "
                              "event without a memory sharing policy");
        }
        return memPolicy.get();
      case EvKind::ProcStart:
      case EvKind::SegEnd:
      case EvKind::SleepWake:
        // Throws for a pid the replay never created.
        kernel->imagedProcess(static_cast<Pid>(e.arg));
        return kernel.get();
      case EvKind::Bdflush:
      case EvKind::Pageout:
      case EvKind::BdflushKick:
        return kernel.get();
      case EvKind::FaultRestoreSlow:
      case EvKind::FaultRestoreError:
        if (e.arg < 0 || static_cast<std::size_t>(e.arg) >= disks.size()) {
            throw ConfigError("checkpoint image rejected: " +
                              std::string(kindName(e.kind)) +
                              " references unknown disk " +
                              std::to_string(e.arg));
        }
        return this;
      default:
        return nullptr;
    }
}

void
Simulation::Impl::rebindEvents(const std::vector<ImagedEvent> &pending)
{
    events.clearPending();
    bool memTick = false;
    for (const ImagedEvent &e : pending) {
        EventSink *target = restoredTarget(e);
        PISO_CHECK(target != nullptr, "no target for a restored '",
                   kindName(e.kind), "' event");
        const EventId id =
            events.scheduleRestored(e.when, e.seq, e.kind, *target, {e.arg});
        switch (e.kind) {
          case EvKind::ProcStart:
          case EvKind::SegEnd:
          case EvKind::SleepWake:
            kernel->relinkEvent(e.kind, static_cast<Pid>(e.arg), id);
            break;
          case EvKind::MemPolicy:
            memTick = true;
            break;
          default:
            break;
        }
    }
    if (memPolicy)
        memPolicy->setTickPending(memTick);
}

void
Simulation::Impl::loadImage(CkptReader &r)
{
    CkptIo io(r);
    std::vector<ImagedEvent> pending;
    ckptEvents(io, pending);
    ckptSubsystems(io);
    r.expectEnd();
    rebindEvents(pending);

    // Faults at or before the checkpoint already fired in the original
    // run (their effects are part of the device state); resume the
    // cursor after them. The plan itself is outside the config digest,
    // so a restore may continue under a longer plan than the one the
    // image was taken under — the warm-start prefix contract.
    faultCursor = 0;
    while (faultCursor < faultSchedule.size() &&
           faultSchedule[faultCursor].at <= events.now())
        ++faultCursor;
}

void
Simulation::checkpoint(std::ostream &out)
{
    Impl &im = *impl_;
    TraceContextScope traceScope(im.trace);
    LogContextScope logScope(im.log);
    if (!im.setupDone)
        im.setupRun();
    if (im.events.executedEvents() > 0 &&
        im.events.nextEventTime() <= im.events.now()) {
        throw InvariantError(
            "checkpoint requires a quiescent event boundary (events "
            "still due at the current time)",
            im.events.now());
    }
    im.kernel->requireIoQuiescent();
    std::string reject;
    std::vector<ImagedEvent> pending;
    if (!im.pendingEvents(pending, reject)) {
        throw InvariantError("checkpoint rejected: " + reject,
                             im.events.now());
    }
    im.writeImage(out, pending);
}

std::uint64_t
Simulation::configDigest() const
{
    return impl_->configDigest();
}

void
Simulation::restore(std::istream &in)
{
    CkptReader r = CkptReader::fromStream(in);
    impl_->restore(r);
}

void
Simulation::restore(std::string_view image)
{
    CkptReader r(image);
    impl_->restore(r);
}

void
Simulation::Impl::restore(CkptReader &r)
{
    if (ran || setupDone)
        PISO_FATAL("Simulation::restore() must precede run()");
    TraceContextScope traceScope(trace);
    LogContextScope logScope(log);
    r.requireDigest(configDigest());
    setupRun();
    // piso-lint: allow(determinism-wallclock) -- host-side RunPerf timing; reported out-of-band, never feeds simulated state
    const auto loadStart = std::chrono::steady_clock::now();
    loadImage(r);
    loadSec =
        // piso-lint: allow(determinism-wallclock) -- host-side RunPerf timing; reported out-of-band, never feeds simulated state
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      loadStart)
            .count();
}

} // namespace piso
