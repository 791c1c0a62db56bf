#include "src/simulation.hh"

#include <algorithm>
#include <chrono>
#include <istream>
#include <map>
#include <optional>
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

/** Serialisable pending-event kinds — the checkpoint's closed set.
 *  Event callbacks are closures and cannot be serialised; instead a
 *  checkpoint stores one of these descriptors per pending event and
 *  the restore path reconstructs the exact callback from (kind, arg).
 *  A pending event outside this set makes the boundary
 *  non-checkpointable (in-flight I/O events never appear here because
 *  quiescence already excludes them). */
enum class EvKind : std::uint8_t
{
    SchedTick,          //!< CpuScheduler clock tick
    MemPolicy,          //!< MemorySharingPolicy recomputation
    Bdflush,            //!< periodic delayed-write flush daemon
    Pageout,            //!< periodic pageout daemon
    BdflushKick,        //!< one-shot high-water bdflush kick
    ProcStart,          //!< process start (arg = pid)
    SegEnd,             //!< compute-segment end (arg = pid)
    SleepWake,          //!< sleep expiry (arg = pid)
    FaultRestoreSlow,   //!< disk-slow window end (arg = disk)
    FaultRestoreError,  //!< disk-error window end (arg = disk)
};

inline constexpr std::uint8_t kMaxEvKind =
    static_cast<std::uint8_t>(EvKind::FaultRestoreError);

/** One pending event as stored in the image. */
struct EvDesc
{
    EvKind kind = EvKind::SchedTick;
    Time when = 0;
    std::uint64_t seq = 0;
    std::int64_t arg = -1;  //!< pid or disk index, kind-dependent
};

} // namespace

struct Simulation::Impl
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
    std::uint64_t kernelPinnedPages = 0;

    /** Sorted fault schedule, delivered by a cursor interleaved with
     *  the event loop (not as queued events, so checkpoints and event
     *  sequence numbers stay independent of the plan). */
    std::vector<FaultEvent> faultSchedule;
    std::size_t faultCursor = 0;

    /** Pending fault-window-end events: id -> (kind, disk). Entries
     *  of fired events go stale but are never looked up again —
     *  generation-tagged EventIds are not reused. */
    std::map<EventId, std::pair<FaultKind, DiskId>> faultRestores;

    void rebalance();
    void applyBandwidthShares(DiskBandwidthTracker &tracker);
    SpuTable<SpuId> spuParents() const;
    void applyMemoryLevels();
    void applyFault(const FaultEvent &ev);

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

    /** Classify every pending event; nullopt (and @p reject) when one
     *  is not serialisable. Sorted by sequence number. */
    std::optional<std::vector<EvDesc>>
    pendingDescriptors(std::string *reject = nullptr) const;

    /** Attempt a checkpoint at the current boundary; false when the
     *  simulation is not quiescent here. */
    bool tryCheckpoint(std::string *why = nullptr);

    void writeImage(std::ostream &out);
    void loadImage(CkptReader &r);
    void restoreFaultRestore(FaultKind kind, DiskId disk, Time when,
                             std::uint64_t seq);
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
            const EventId id = events.scheduleAfter(
                ev.duration, [d] { d->setSlowFactor(1.0); },
                "faultRestore");
            faultRestores[id] = {FaultKind::DiskSlow, ev.disk};
        }
        break;
      }
      case FaultKind::DiskError: {
        DiskDevice *d = disks.at(static_cast<std::size_t>(ev.disk)).get();
        d->setErrorRate(ev.rate);
        if (ev.duration > 0) {
            const EventId id = events.scheduleAfter(
                ev.duration, [d] { d->setErrorRate(0.0); },
                "faultRestore");
            faultRestores[id] = {FaultKind::DiskError, ev.disk};
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
    // callback below executes inside these scopes, whatever thread
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
        if (nextFaultAt() <= im.events.nextEventTime()) {
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
            if (nextFaultAt() <= im.events.nextEventTime()) {
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

std::uint64_t
Simulation::Impl::configDigest() const
{
    CkptWriter w;
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

    const auto users = spuMgr.userSpus();
    w.u64(users.size());
    for (SpuId id : users) {
        const Spu &s = spuMgr.spu(id);
        w.i64(id);
        w.str(s.name);
        w.f64(s.share);
        w.i64(s.homeDisk);
        w.i64(s.parent);
        w.boolean(spuMgr.isGroup(id));
    }
    w.u64(pendingJobs.size());
    for (const PendingJob &pj : pendingJobs) {
        w.i64(pj.spu);
        w.str(pj.spec.name);
        w.time(pj.spec.startAt);
    }
    return ckptFnv1a(w.payload());
}

std::optional<std::vector<EvDesc>>
Simulation::Impl::pendingDescriptors(std::string *reject) const
{
    std::vector<EvDesc> out;
    bool ok = true;
    events.forEachPending([&](EventId id, Time when, std::uint64_t seq,
                              const char *name) {
        if (!ok)
            return;
        const std::string_view n = name;
        EvDesc d;
        d.when = when;
        d.seq = seq;
        if (n == "schedTick") {
            d.kind = EvKind::SchedTick;
        } else if (n == "memPolicy") {
            d.kind = EvKind::MemPolicy;
        } else if (n == "bdflush") {
            d.kind = EvKind::Bdflush;
        } else if (n == "pageout") {
            d.kind = EvKind::Pageout;
        } else if (n == "bdflushKick") {
            d.kind = EvKind::BdflushKick;
        } else if (n == "procStart" || n == "segEnd" ||
                   n == "sleepWake") {
            const Pid pid = kernel->eventOwner(id);
            if (pid == kNoPid) {
                ok = false;
                if (reject)
                    *reject = std::string(n) + " event with no owner";
                return;
            }
            d.kind = n == "procStart" ? EvKind::ProcStart
                     : n == "segEnd"  ? EvKind::SegEnd
                                      : EvKind::SleepWake;
            d.arg = pid;
        } else if (n == "faultRestore") {
            const auto it = faultRestores.find(id);
            if (it == faultRestores.end()) {
                ok = false;
                if (reject)
                    *reject = "unregistered faultRestore event";
                return;
            }
            d.kind = it->second.first == FaultKind::DiskSlow
                         ? EvKind::FaultRestoreSlow
                         : EvKind::FaultRestoreError;
            d.arg = it->second.second;
        } else {
            ok = false;
            if (reject)
                *reject = "pending '" + std::string(n) +
                          "' event is not checkpointable";
            return;
        }
        out.push_back(d);
    });
    if (!ok)
        return std::nullopt;
    std::sort(out.begin(), out.end(),
              [](const EvDesc &a, const EvDesc &b) {
                  return a.seq < b.seq;
              });
    return out;
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
    if (!pendingDescriptors(&reject)) {
        if (why)
            *why = reject;
        return false;
    }
    std::ostringstream os;
    writeImage(os);
    cfg.checkpointSink(std::move(os).str());
    return true;
}

void
Simulation::Impl::writeImage(std::ostream &out)
{
    std::string reject;
    const auto descs = pendingDescriptors(&reject);
    if (!descs)
        throw InvariantError("checkpoint rejected: " + reject,
                             events.now());

    CkptWriter w;
    w.time(events.now());
    w.u64(events.nextSeq());
    w.u64(events.executedEvents());
    w.u64(descs->size());
    for (const EvDesc &d : *descs) {
        w.u8(static_cast<std::uint8_t>(d.kind));
        w.time(d.when);
        w.u64(d.seq);
        w.i64(d.arg);
    }

    rng.save(w);
    phys.save(w);
    vm.save(w);
    cache.save(w);
    fs.save(w);
    spuMgr.save(w);

    w.u64(disks.size());
    for (const auto &d : disks)
        d->save(w);
    for (const FairDiskScheduler *fds : fairSchedulers)
        fds->tracker().save(w);
    w.boolean(network != nullptr);
    if (network) {
        network->save(w);
        w.boolean(fairNet != nullptr);
        if (fairNet)
            fairNet->tracker().save(w);
    }
    w.boolean(numa != nullptr);
    if (numa)
        numa->save(w);

    sched->save(w);
    kernel->save(w);

    w.u64(jobs.size());
    for (const Job &j : jobs)
        j.save(w);

    w.emit(out, configDigest());
}

void
Simulation::Impl::restoreFaultRestore(FaultKind kind, DiskId disk,
                                      Time when, std::uint64_t seq)
{
    if (disk < 0 || static_cast<std::size_t>(disk) >= disks.size()) {
        throw ConfigError("checkpoint image rejected: faultRestore "
                          "references unknown disk " +
                          std::to_string(disk));
    }
    DiskDevice *d = disks[static_cast<std::size_t>(disk)].get();
    EventId id = kNoEvent;
    if (kind == FaultKind::DiskSlow) {
        id = events.scheduleRestored(
            when, seq, [d] { d->setSlowFactor(1.0); }, "faultRestore");
    } else {
        id = events.scheduleRestored(
            when, seq, [d] { d->setErrorRate(0.0); }, "faultRestore");
    }
    faultRestores[id] = {kind, disk};
}

void
Simulation::Impl::loadImage(CkptReader &r)
{
    const Time now = r.time();
    const std::uint64_t nextSeq = r.u64();
    const std::uint64_t executed = r.u64();

    const std::uint64_t ndescs = r.u64();
    if (ndescs > r.remaining()) {
        throw ConfigError("checkpoint image rejected: event count "
                          "exceeds the payload");
    }
    std::vector<EvDesc> descs;
    descs.reserve(ndescs);
    for (std::uint64_t i = 0; i < ndescs; ++i) {
        const std::uint8_t kind = r.u8();
        if (kind > kMaxEvKind) {
            throw ConfigError(
                "checkpoint image rejected: unknown event kind " +
                std::to_string(kind));
        }
        EvDesc d;
        d.kind = static_cast<EvKind>(kind);
        d.when = r.time();
        d.seq = r.u64();
        d.arg = r.i64();
        descs.push_back(d);
    }

    rng.load(r);
    phys.load(r);
    vm.load(r);
    cache.load(r);
    fs.load(r);
    spuMgr.load(r);

    if (r.u64() != disks.size()) {
        throw ConfigError(
            "checkpoint image rejected: disk count mismatch");
    }
    for (auto &d : disks)
        d->load(r);
    for (FairDiskScheduler *fds : fairSchedulers)
        fds->tracker().load(r);
    if (r.boolean() != (network != nullptr)) {
        throw ConfigError(
            "checkpoint image rejected: network presence mismatch");
    }
    if (network) {
        network->load(r);
        if (r.boolean() != (fairNet != nullptr)) {
            throw ConfigError("checkpoint image rejected: network "
                              "scheduler mismatch");
        }
        if (fairNet)
            fairNet->tracker().load(r);
    }
    if (r.boolean() != (numa != nullptr)) {
        throw ConfigError(
            "checkpoint image rejected: NUMA model presence mismatch");
    }
    if (numa)
        numa->load(r);

    const auto byPid = [this](Pid pid) -> Process * {
        Process *p = kernel->process(pid);
        if (!p) {
            throw ConfigError("checkpoint references unknown pid " +
                              std::to_string(pid));
        }
        return p;
    };
    sched->load(r, byPid);
    kernel->load(r);

    if (r.u64() != jobs.size())
        throw ConfigError("checkpoint image rejected: job count mismatch");
    for (Job &j : jobs)
        j.load(r);

    r.expectEnd();

    // Re-bind every pending event at its original heap coordinates,
    // replacing the setup replay's events wholesale.
    events.clearPending();
    faultRestores.clear();
    // The tick the replayed start() scheduled was just wiped; the
    // descriptor loop below (or its absence in a drained image) is the
    // only source of truth for a pending memPolicy tick.
    if (memPolicy)
        memPolicy->clearScheduled();
    for (const EvDesc &d : descs) {
        switch (d.kind) {
          case EvKind::SchedTick:
            sched->restoreTick(d.when, d.seq);
            break;
          case EvKind::MemPolicy:
            if (!memPolicy) {
                throw ConfigError(
                    "checkpoint image rejected: memPolicy event "
                    "without a memory sharing policy");
            }
            memPolicy->restoreTick(d.when, d.seq);
            break;
          case EvKind::Bdflush:
            kernel->restoreBdflush(d.when, d.seq);
            break;
          case EvKind::Pageout:
            kernel->restorePageout(d.when, d.seq);
            break;
          case EvKind::BdflushKick:
            kernel->restoreBdflushKick(d.when, d.seq);
            break;
          case EvKind::ProcStart:
            kernel->restoreProcStart(static_cast<Pid>(d.arg), d.when,
                                     d.seq);
            break;
          case EvKind::SegEnd:
            kernel->restoreSegEnd(static_cast<Pid>(d.arg), d.when,
                                  d.seq);
            break;
          case EvKind::SleepWake:
            kernel->restoreSleepWake(static_cast<Pid>(d.arg), d.when,
                                     d.seq);
            break;
          case EvKind::FaultRestoreSlow:
            restoreFaultRestore(FaultKind::DiskSlow,
                                static_cast<DiskId>(d.arg), d.when,
                                d.seq);
            break;
          case EvKind::FaultRestoreError:
            restoreFaultRestore(FaultKind::DiskError,
                                static_cast<DiskId>(d.arg), d.when,
                                d.seq);
            break;
        }
    }
    events.restoreClock(now, nextSeq, executed);

    // Faults at or before the checkpoint already fired in the original
    // run (their effects are part of the device state); resume the
    // cursor after them. The plan itself is outside the config digest,
    // so a restore may continue under a longer plan than the one the
    // image was taken under — the warm-start prefix contract.
    faultCursor = 0;
    while (faultCursor < faultSchedule.size() &&
           faultSchedule[faultCursor].at <= now)
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
    im.writeImage(out);
}

std::uint64_t
Simulation::configDigest() const
{
    return impl_->configDigest();
}

void
Simulation::restore(std::istream &in)
{
    Impl &im = *impl_;
    if (im.ran || im.setupDone)
        PISO_FATAL("Simulation::restore() must precede run()");
    TraceContextScope traceScope(im.trace);
    LogContextScope logScope(im.log);
    CkptReader r = CkptReader::fromStream(in);
    r.requireDigest(im.configDigest());
    im.setupRun();
    im.loadImage(r);
}

} // namespace piso
