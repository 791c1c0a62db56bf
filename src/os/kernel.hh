#ifndef PISO_OS_KERNEL_HH
#define PISO_OS_KERNEL_HH

/**
 * @file
 * The simulated operating-system kernel.
 *
 * The Kernel is the orchestrator: it interprets process Actions
 * (compute, file I/O, memory growth, barriers, locks), implements the
 * page-fault and reclaim paths, runs the pageout and bdflush daemons,
 * and drives the CPU scheduler as its SchedClient. Everything
 * policy-specific (which scheduler, which disk scheduler, who moves
 * the allowed memory levels) is plugged in from outside, so the same
 * kernel runs the SMP, Quota, and PIso schemes.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/machine/disk.hh"
#include "src/machine/memory.hh"
#include "src/machine/network.hh"
#include "src/machine/numa.hh"
#include "src/os/buffer_cache.hh"
#include "src/os/filesystem.hh"
#include "src/os/locks.hh"
#include "src/os/process.hh"
#include "src/os/scheduler.hh"
#include "src/os/vm.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/random.hh"
#include "src/sim/stats.hh"

namespace piso {

/** Tunables of the OS substrate. */
struct KernelConfig
{
    /** CPU cost of servicing a zero-fill (first-touch) page fault. */
    Time zeroFillCost = 60 * kUs;

    /** CPU cost per file block copied between user and cache buffers
     *  on reads and writes. */
    Time copyCostPerBlock = 10 * kUs;

    /**
     * Cache-affinity penalty (Section 3.1's "hidden costs to
     * reallocating CPUs, such as cache pollution"): extra compute
     * charged when a process resumes on a different CPU than it last
     * used, or on a CPU whose last occupant belonged to another SPU.
     * 0 disables the model (the default; the paper experiments do not
     * quantify it — see bench/ablation_loan_holdoff).
     */
    Time cacheAffinityCost = 0;

    /** Period of the delayed-write flush daemon. */
    Time bdflushPeriod = kSec;

    /** Period of the pageout daemon. */
    Time pageoutPeriod = 250 * kMs;

    /** Max pages the pageout daemon reclaims per SPU per cycle. */
    std::uint64_t pageoutBatch = 256;

    /** Blocks prefetched ahead of a sequential reader. */
    std::uint32_t readAheadBlocks = 16;

    /** Largest single disk request (sectors); larger runs split. */
    std::uint32_t maxIoSectors = 128;

    /** Dirty-block fraction of total memory that triggers an
     *  immediate flush. */
    double dirtyHighWater = 0.20;

    /** Outstanding kernel-generated write sectors per disk above which
     *  writers are throttled (blocked until half-drained). */
    std::uint64_t writeThrottleSectors = 4096;

    /** Pages of swap space auto-reserved per SPU on first fault. */
    std::uint64_t swapExtentPages = 8192;

    /**
     * SMP-scheme behaviour: the pageout daemon maintains the free
     * reserve by stealing from the largest users (global page
     * replacement). Off for Quota/PIso, where the daemon only
     * enforces per-SPU allowed levels.
     */
    bool globalReplacement = false;

    /**
     * Priority inheritance on kernel locks (Section 3.4 / [SRL90]): a
     * process blocking on a semaphore transfers its priority to the
     * holder until release, so a starved holder cannot stall a
     * high-priority waiter indefinitely.
     */
    bool lockPriorityInheritance = true;

    /** @name Fault tolerance (I/O path) */
    /// @{
    /** A request outstanding this long is declared lost and handled
     *  like a failed completion (0 disables the watchdog). */
    Time ioTimeout = 10 * kSec;

    /** Failed or timed-out requests are reissued up to this many
     *  times before the I/O is abandoned. */
    int ioRetryLimit = 3;

    /** Delay before the first reissue; doubles on every further
     *  retry (exponential backoff). */
    Time ioRetryBackoff = 20 * kMs;
    /// @}
};

/** Aggregate kernel statistics. */
struct KernelStats
{
    Counter zeroFills;
    Counter refaults;
    Counter pageoutWrites;    //!< pages written by reclaim
    Counter bdflushRequests;  //!< batched delayed-write requests
    Counter syncWriteRequests;
    Counter bypassWrites;     //!< writes that found no cache frame
    Counter readRequests;
    Counter readAheadRequests;
    Counter throttleStalls;
    Counter cacheHits;
    Counter cacheMisses;
    Counter affinityPenalties;
    Counter diskErrors;       //!< failed completions seen by the kernel
    Counter ioRetries;        //!< requests reissued after a failure
    Counter ioTimeouts;       //!< requests declared lost by the watchdog
    Counter failedIos;        //!< I/Os abandoned after the retry limit
    Counter lostWrites;       //!< dirty pages dropped (writeback failed)

    void
    ckpt(CkptIo &io)
    {
        zeroFills.ckpt(io);
        refaults.ckpt(io);
        pageoutWrites.ckpt(io);
        bdflushRequests.ckpt(io);
        syncWriteRequests.ckpt(io);
        bypassWrites.ckpt(io);
        readRequests.ckpt(io);
        readAheadRequests.ckpt(io);
        throttleStalls.ckpt(io);
        cacheHits.ckpt(io);
        cacheMisses.ckpt(io);
        affinityPenalties.ckpt(io);
        diskErrors.ckpt(io);
        ioRetries.ckpt(io);
        ioTimeouts.ckpt(io);
        failedIos.ckpt(io);
        lostWrites.ckpt(io);
    }
};

/** Per-SPU fault and recovery counters (I/O path). */
struct SpuFaultStats
{
    Counter diskErrors;
    Counter ioRetries;
    Counter ioTimeouts;
    Counter failedOps;   //!< I/Os abandoned after the retry limit

    void
    ckpt(CkptIo &io)
    {
        diskErrors.ckpt(io);
        ioRetries.ckpt(io);
        ioTimeouts.ckpt(io);
        failedOps.ckpt(io);
    }
};

/**
 * The owner of a kernel, told when each process exits so it can settle
 * the process's job. The Simulation owns every kernel it builds; a
 * test rig supplies its own.
 */
class KernelOwner
{
  public:
    virtual void processExited(Process &p) = 0;

  protected:
    ~KernelOwner() = default;
};

/**
 * The OS kernel: action interpreter, memory manager, I/O path, and
 * daemons. One instance per simulated machine.
 *
 * Every logical disk or network I/O in flight is a plain record
 * (IoOp) in a kernel-owned slab. Devices name it by an IoTag and
 * report completions to the kernel as their one sink; the kernel runs
 * the outcome through a switch on the record's kind.
 */
class Kernel : public SchedClient,
               public EventSink,
               private DiskSink,
               private NetSink
{
  public:
    /**
     * Wire the kernel to its owner, machine and substrate. All
     * references must outlive the kernel. Registers itself as the
     * scheduler's client.
     */
    Kernel(KernelOwner &owner, EventQueue &events, VirtualMemory &vm,
           BufferCache &cache, FileSystem &fs, CpuScheduler &sched,
           std::vector<DiskDevice *> disks, Rng rng,
           KernelConfig config = {});

    Kernel(const Kernel &) = delete;
    Kernel &operator=(const Kernel &) = delete;

    /** @name Configuration (before start()) */
    /// @{
    /** Disk that holds @p spu's files and swap space (default 0). */
    void setSpuDisk(SpuId spu, DiskId disk);

    /** Attach the machine's network interface (optional; SendActions
     *  are rejected without one) and become its completion sink. Not
     *  owned. */
    void setNetwork(NetworkInterface *net);

    /** The attached network interface, or nullptr. */
    NetworkInterface *network() { return net_; }

    /** Attach the machine's NUMA/bus model (optional; zero-fill page
     *  touches then pay the domain latency). Not owned. */
    void setNuma(NumaModel *numa) { numa_ = numa; }

    /** The attached NUMA model, or nullptr. */
    NumaModel *numa() { return numa_; }

    /** Begin daemons and scheduler ticks. */
    void start();
    /// @}

    /** @name Process and synchronisation management */
    /// @{
    /**
     * Create a process in @p spu, becoming runnable at @p startAt.
     * The kernel owns the process.
     */
    Process *createProcess(SpuId spu, JobId job, std::string name,
                           std::unique_ptr<Behavior> behavior,
                           Time startAt = 0);

    /** Create a cyclic barrier of @p width parties.
     *  @return barrier id for BarrierAction. */
    int createBarrier(int width);

    /** Create a kernel lock. @return lock id for LockAction. */
    int createLock(bool readersWriter);

    LockTable &locks() { return locks_; }
    /// @}

    /** @name SchedClient interface (called by the CpuScheduler) */
    /// @{
    void startRunning(Process &p) override;
    void stopRunning(Process &p) override;
    /// @}

    /** @name Queries */
    /// @{
    /** Processes not yet exited. */
    std::size_t liveProcesses() const { return live_; }

    /** The process with @p pid, or nullptr for a pid never created.
     *  O(1): pids are dense from 1. */
    Process *process(Pid pid) const;

    const KernelStats &stats() const { return stats_; }

    /** Per-SPU fault/retry counters (empty entry if the SPU never hit
     *  a fault). */
    const SpuFaultStats &spuFaults(SpuId spu) const;

    /**
     * Backoff delay before retry number @p attempt (1-based): @p base
     * doubled per retry, i.e. base << (attempt - 1), with the shift
     * clamped so it cannot overflow. Pure — exposed for tests.
     */
    static Time retryBackoff(Time base, int attempt);

    VirtualMemory &vm() { return vm_; }
    FileSystem &fs() { return fs_; }
    BufferCache &cache() { return cache_; }
    EventQueue &events() { return events_; }
    CpuScheduler &scheduler() { return sched_; }
    DiskDevice &disk(DiskId d) { return *disks_.at(static_cast<std::size_t>(d)); }
    std::size_t diskCount() const { return disks_.size(); }
    /// @}

    /** Kick a flush of every dirty block (end-of-run sync). */
    void syncAll() { bdflush(); }

    /** True when no disk is busy or queued and no dirty block
     *  remains — the I/O system is fully drained. */
    bool ioIdle() const;

    /** I/O operations started and not yet settled. */
    std::size_t liveIoOps() const { return liveOps_; }

    /** @name Checkpoint
     *  ckpt() covers every mutable kernel structure except the
     *  pending events. The Simulation images those as records and
     *  re-schedules them on restore with their original (when, seq)
     *  ordering keys; relinkEvent() then points each process and I/O
     *  operation at its restored event. */
    /// @{
    /** Image the kernel's run state: counters, processes, barriers,
     *  locks and the I/O bookkeeping, in-flight operations included.
     *  Loading rebuilds the per-SPU membership lists from the restored
     *  process states. SPU ids must be below @p spuBound. */
    void ckpt(CkptIo &io, std::size_t spuBound);

    /** The replayed process with @p pid, for resolving pids read from
     *  an image; throws ConfigError for a pid it never created. */
    Process *imagedProcess(Pid pid);

    /** I/O op slots in the slab, live or free: the bound on the op
     *  slot a device's imaged request may name. */
    std::size_t ioOpSlots() const { return ops_.size(); }

    /** Link restored kernel event @p id to what it belongs to: a
     *  procStart, segEnd or sleepWake event into its process's
     *  startEvent, segmentEvent or wakeEvent, an ioTimeout into its
     *  operation's timeoutEvent. Throws ConfigError when @p arg names
     *  a pid the replay never created or an op slot it does not hold
     *  (or, for an ioRetry, a slot whose generation moved on). */
    void relinkEvent(EvKind kind, const EventArg &arg, EventId id);

    /** PISO_HARDENED probe once every event is re-linked: each live
     *  operation outside a retry backoff has its watchdog pending. */
    void checkRelinkedIo() const;
    /// @}

  private:
    struct Barrier
    {
        int width = 0;
        std::vector<Process *> waiting;
    };

    /** Result of reclaiming one page from an SPU. */
    struct Reclaimed
    {
        bool found = false;
        bool dirty = false;
        SpuId from = kNoSpu;
        /** Where a dirty page must be written (file block for cache
         *  pages, swap space for anonymous pages). */
        DiskId disk = 0;
        std::uint64_t sector = 0;
    };

    /** Outcome of executing one action. */
    enum class Exec
    {
        Continue,  //!< completed instantly; fetch the next action
        Compute,   //!< computeRemaining was set; begin a segment
        Blocked,   //!< the process blocked (or exited)
    };

    /** @name Action interpretation */
    /// @{
    void advance(Process &p);
    void beginSegment(Process &p);
    void segmentEnd(Process &p);
    void chargeSegment(Process &p);
    Exec execute(Process &p, const Action &a);
    Exec doRead(Process &p, const ReadAction &a);
    Exec doWrite(Process &p, const WriteAction &a);
    Exec doBarrier(Process &p, const BarrierAction &a);
    /** Release one barrier waiter (blocked or spinning). */
    void releaseFromBarrier(Process &q);
    Exec doLock(Process &p, const LockAction &a);
    void doExit(Process &p);
    /// @}

    /** @name Memory management */
    /// @{
    Time sampleFaultTime(Process &p);
    void pageFault(Process &p);
    /** What a frame obtained through a dirty-page writeback is for. */
    enum class FrameGrant : std::uint8_t
    {
        ZeroFill, //!< a first-touch page: the process resumes
        SwapIn,   //!< a refault: the page is read back from swap
    };

    /**
     * Obtain a frame charged to @p p's SPU. Returns true when the
     * frame is available synchronously. Returns false when a dirty
     * page must be written first: the caller must block @p p, and
     * once the writeback completes the charge is transferred and
     * grantFrame(p, @p grant) runs.
     */
    bool acquireFrame(Process &p, FrameGrant grant);

    /** Finish a frame acquisition that waited on a writeback. */
    void grantFrame(Process &p, FrameGrant grant);

    /** Read @p p's refaulted page back from its swap extent. */
    void startSwapIn(Process &p);

    /** Reclaim one page from @p victim (clean-cache first, then anon,
     *  then dirty-cache). Does not touch the free pool: the caller
     *  transfers or releases the charge. */
    Reclaimed reclaimPage(SpuId victim);

    /** reclaimPage over a victim preference order starting at the
     *  VM's suggestion for @p requester. */
    Reclaimed reclaimAny(SpuId requester);

    /** Get a frame for a cache page without blocking: free pool, then
     *  clean-cache steal (own SPU, then any). kNoSpu return = failed. */
    bool frameForCache(SpuId spu);

    /** Sector to use for paging I/O of @p pages contiguous pages of
     *  @p spu (lazily reserves a swap extent on the SPU's disk; the
     *  location is clamped so the run stays inside the extent). */
    void swapLocation(SpuId spu, DiskId &disk, std::uint64_t &sector,
                      Rng &rng, std::uint64_t pages = 1);

    void pageoutDaemon();
    /** Write one reclaimed dirty page so @p p's frame can be granted
     *  (as @p grant) once it completes. */
    void writeReclaimedPage(const Reclaimed &r, Process &p,
                            FrameGrant grant);
    /** Issue the daemon's dirty evictions as clustered swap writes. */
    void flushClusteredPageouts(
        const std::map<std::pair<SpuId, DiskId>, std::uint64_t> &dirty);
    static std::uint64_t pendingPageouts(
        const std::map<std::pair<SpuId, DiskId>, std::uint64_t> &dirty);
    /// @}

    /** @name I/O path */
    /// @{
    /** What an I/O operation is; one kind per submitter. */
    enum class IoKind : std::uint8_t
    {
        DemandRead,     //!< a process's read of blocks it missed
        ReadAhead,      //!< a sequential reader's prefetch
        BypassWrite,    //!< write-through of blocks that found no frame
        SyncWrite,      //!< a synchronous write of cached blocks
        SwapIn,         //!< a refault reading its page back
        FramePageout,   //!< a dirty page written to free a frame
        ClusterPageout, //!< the pageout daemon's clustered swap write
        FlushWrite,     //!< a bdflush batch (no watchdog, no retry)
        NetSend,        //!< a process's network message
    };

    /**
     * One logical I/O in flight: the request to (re)issue, the state
     * of the watchdog and retries, and what its outcome touches.
     * Blocks are named by key: a read or sync write covers blocks
     * [first, first + count) of @ref file, re-found at completion; a
     * flush batch keeps its keys in the slot's key vector.
     */
    struct IoOp
    {
        IoKind kind = IoKind::DemandRead;
        FrameGrant grant = FrameGrant::ZeroFill; //!< FramePageout
        bool settled = false;
        std::int32_t attempt = 0;       //!< attempts issued so far
        /** Retry events scheduled and not yet run. The slot stays
         *  allocated until they have run, even once settled. */
        std::int32_t pendingRetries = 0;
        std::uint32_t generation = 0;   //!< bumped when the slot frees
        std::uint32_t slot = 0;
        DiskId disk = 0;
        SpuId spu = kNoSpu;             //!< the request's SPU
        Process *proc = nullptr;        //!< the process it serves
        std::uint64_t sector = 0;       //!< the request's first sector
        std::uint32_t sectors = 0;
        /** Reads and sync writes: blocks [first, first + count) of
         *  file. Cluster pageouts: count pages. */
        FileId file = kNoFile;
        std::uint64_t first = 0;
        std::uint64_t count = 0;
        // Not imaged: relinkEvent re-links it on restore.
        EventId timeoutEvent = kNoEvent;
        SpuId grantSpu = kNoSpu;        //!< FramePageout: charged SPU
        SpuId from = kNoSpu;            //!< pageouts: the pages' owner
    };

    /** Validate the op slab and free list just loaded (ConfigError)
     *  and re-derive the live count. */
    void checkLoadedOps(std::size_t spuBound);

    /** Copy @p op into a free slot as a new live operation (its
     *  generation and slot are the slot's). @return the slot. */
    std::uint32_t newOp(const IoOp &op);
    /** Return a settled record's slot to the free list. */
    void freeOp(std::uint32_t slot);
    /** The live record @p tag names, or nullptr when @p tag is stale
     *  (its attempt was abandoned, or its operation settled). */
    IoOp *liveOp(const IoTag &tag);
    static IoTag tagOf(const IoOp &op);

    /** The device request of @p op's current attempt. */
    DiskRequest requestFor(const IoOp &op) const;

    /**
     * Issue the next attempt of the operation in @p slot under the
     * kernel's fault handling: watchdog timeout, bounded retries with
     * exponential backoff. It settles exactly once, through
     * ioSucceeded or ioFailed.
     */
    void issueIo(std::uint32_t slot);
    void ioTimedOut(const IoTag &tag);
    void ioAttemptFailed(std::uint32_t slot);
    /** Run a scheduled retry: issue the next attempt. A late
     *  completion may have settled the operation during the backoff;
     *  the attempt is issued all the same (its completion is then
     *  stale), and the slot is freed after the last retry. */
    void retryIo(std::uint32_t slot);
    /** Mark the operation settled, run its outcome, and free its slot
     *  unless a retry is still pending. */
    void settleIo(std::uint32_t slot, bool ok);
    void ioSucceeded(const IoOp &op);
    void ioFailed(const IoOp &op);

    /** EventSink: process, daemon and I/O-watchdog events. */
    void fire(EvKind kind, const EventArg &arg) override;

    /** DiskSink and NetSink: a device finished a request. */
    void diskComplete(const DiskRequest &req) override;
    void netComplete(const NetMessage &msg) override;

    /** Fail a process's outstanding logical I/O: the process dies at
     *  its next dispatch (failed-action outcome). */
    void failProcessIo(Process &p);

    /** Mark the cached blocks of @p op's block range valid, releasing
     *  their waiters. */
    void validateBlocks(const IoOp &op);

    /** Drop the failed read's in-flight cache blocks (waiters run,
     *  frames uncharged). */
    void dropFailedReadBlocks(const IoOp &op);

    void ioArrived(Process &p);
    void bdflush();
    void kickBdflush();
    void bdflushPeriodicHelper();
    void pageoutDaemonHelper();
    bool throttled(DiskId disk) const;
    /** Submit bdflush batch @p slot: no watchdog, no retry. */
    void submitFlushWrite(std::uint32_t slot, DiskRequest req);
    void wakeThrottled(DiskId disk);
    void maybeReadAhead(Process &p, FileId file, std::uint64_t endBlock);
    /// @}

    void blockProcess(Process &p);
    void wakeProcess(Process &p);

    KernelOwner &owner_;
    EventQueue &events_;
    VirtualMemory &vm_;
    BufferCache &cache_;
    FileSystem &fs_;
    CpuScheduler &sched_;
    std::vector<DiskDevice *> disks_;
    Rng rng_;
    KernelConfig config_;

    std::vector<std::unique_ptr<Process>> processes_;
    // Derived membership lists: not imaged, rebuilt from the
    // per-process states on load.
    SpuTable<std::vector<Process *>> spuProcs_;
    std::size_t live_ = 0;
    Pid nextPid_ = 1;

    std::vector<Barrier> barriers_;
    LockTable locks_;
    /** Original nice values of priority-boosted lock holders, by pid
     *  (pids, unlike pointers, keep any iteration deterministic). */
    DenseTable<Pid, double> boostedNice_;

    NetworkInterface *net_ = nullptr;
    NumaModel *numa_ = nullptr;

    SpuTable<DiskId> spuDisk_;
    SpuTable<FileId> swapExtent_;

    /** Outstanding kernel-write sectors per disk (throttling). */
    DenseTable<DiskId, std::uint64_t> flushBacklog_;
    DenseTable<DiskId, std::vector<Process *>> throttleWaiters_;
    bool bdflushPending_ = false;

    /** Sequential-read detection: (pid, file) -> next expected block. */
    std::map<std::pair<Pid, FileId>, std::uint64_t> readCursor_;

    /** The I/O operation slab. A freed slot keeps its record until
     *  reused; only the generation moves on. */
    std::vector<IoOp> ops_;
    /** bdflush batch keys by op slot, reused with their capacity. */
    std::vector<std::vector<BlockKey>> opKeys_;
    std::vector<std::uint32_t> freeOps_;
    std::size_t liveOps_ = 0;

    /** @name Scratch buffers of the read, write and flush paths,
     *  reused across calls (none of them is re-entered). */
    /// @{
    std::vector<std::uint64_t> blockScratch_;
    std::vector<std::uint64_t> syncScratch_;
    /** bdflush's dirty blocks: one list per disk, indexed by DiskId. */
    struct FlushItem
    {
        std::uint64_t sector;
        CacheBlock *blk;
    };
    std::vector<std::vector<FlushItem>> flushItems_;
    SpuTable<std::uint32_t> flushCharges_;
    /** reclaimAny's fallback order: the registered SPUs, largest
     *  user first. */
    std::vector<SpuId> reclaimOrder_;
    /// @}

    KernelStats stats_;
    SpuTable<SpuFaultStats> spuFaults_;
    // Not imaged: checkpoints come from running simulations and
    // setup replay re-runs start().
    bool started_ = false;
};

} // namespace piso

#endif // PISO_OS_KERNEL_HH
