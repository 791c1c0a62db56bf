#ifndef PISO_OS_SCHEDULER_HH
#define PISO_OS_SCHEDULER_HH

/**
 * @file
 * CPU scheduling framework.
 *
 * The base CpuScheduler models the parts of IRIX scheduling the paper
 * keeps: 30 ms time slices, a 10 ms clock tick, and degrading
 * priorities (recent CPU usage raises a process's priority number,
 * i.e. lowers its precedence; usage decays by half every second).
 *
 * Policies differ only in *which* ready process a CPU may take:
 *  - SmpScheduler (src/os):    any process, global queue — IRIX "SMP".
 *  - QuotaScheduler (src/core): home-SPU only — fixed quotas, "Quo".
 *  - PisoScheduler (src/core):  home-SPU first, idle CPUs loaned to
 *    other SPUs with <=10 ms revocation — "PIso" (Section 3.1).
 *
 * The scheduler assigns CPUs; the Kernel (a SchedClient) executes the
 * processes' compute segments and tells the scheduler about blocking.
 *
 * Placement works from a derived per-SPU CPU index. Its invariant:
 * cpusOf(s) lists, ascending, every CPU whose homeSpu is s or whose
 * timeShares name s, and unownedCpus() lists, ascending, every CPU
 * whose homeSpu is kNoSpu (offline CPUs included). Only
 * partitionCpus(), repartitionCpus(), setCpuOnline(false) and a
 * checkpoint load change ownership, and each rebuilds the index
 * before returning; no other code writes homeSpu or timeShares. An SPU's preferred CPUs
 * (home SPU its own or none), the CPUs it can be current owner of and,
 * under a policy that never lends, every CPU it is eligible for are in
 * cpusOf(s) or unownedCpus(), so a wake-up or a revocation visits the
 * handful of CPUs an SPU holds a share on rather than the whole
 * machine.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/core/spu_table.hh"
#include "src/sim/checkpoint.hh"
#include "src/os/process.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/ids.hh"
#include "src/util/time.hh"

namespace piso {

/**
 * Executes processes on behalf of the scheduler (implemented by the
 * Kernel). The contract: after startRunning() the process is executing
 * a segment; the client reports back via processBlocked()/
 * processExited() when it stops on its own, and must halt the segment
 * synchronously when the scheduler calls stopRunning() (preemption).
 */
class SchedClient
{
  public:
    virtual ~SchedClient() = default;

    /** Begin or resume executing @p p (already marked Running). */
    virtual void startRunning(Process &p) = 0;

    /** Preempt @p p mid-segment: cancel its pending segment-end event
     *  and account the partial progress. Called before re-queueing. */
    virtual void stopRunning(Process &p) = 0;
};

/** Per-CPU scheduling state. */
struct Cpu
{
    CpuId id = 0;

    /** SPU owning this CPU under space partitioning (kNoSpu = none,
     *  i.e. the SMP scheme). */
    SpuId homeSpu = kNoSpu;

    /**
     * Time-partition shares for a CPU split between SPUs (the paper's
     * hybrid policy: fractions of a CPU are time-multiplexed). Empty
     * for dedicated or unpartitioned CPUs.
     */
    std::vector<std::pair<SpuId, double>> timeShares;

    Process *running = nullptr;

    /** False while the CPU is offline (fault injection). An offline
     *  CPU never dispatches and owns no home SPU. */
    bool online = true;

    /** PIso: currently running a process from a foreign SPU. */
    bool loaned = false;

    /** PIso: a home process awaits this CPU; revoke at next tick. */
    bool revokePending = false;

    /** SPU of the last process that executed here (cache contents). */
    SpuId lastSpu = kNoSpu;

    /** PIso loan hold-off: no foreign process may be placed here
     *  before this time (limits cache-polluting reallocation churn). */
    Time noLoanBefore = 0;

    Time lastDispatch = 0;
    Time idleSince = 0;
    Time busyTime = 0;
    Time idleTime = 0;
};

/**
 * Base scheduler: owns the CPUs, the clock tick, time slices, priority
 * decay, and all accounting. Subclasses provide the ready-queue
 * structure and the eligibility rules.
 */
class CpuScheduler : public EventSink
{
  public:
    /**
     * @param events     Simulation event queue.
     * @param numCpus    Number of CPUs in the machine.
     * @param tickPeriod Clock-tick interval (IRIX: 10 ms).
     * @param timeSlice  Scheduling quantum (IRIX: 30 ms).
     */
    CpuScheduler(EventQueue &events, int numCpus,
                 Time tickPeriod = 10 * kMs, Time timeSlice = 30 * kMs);
    virtual ~CpuScheduler() = default;

    CpuScheduler(const CpuScheduler &) = delete;
    CpuScheduler &operator=(const CpuScheduler &) = delete;

    /** Attach the execution client (the Kernel). Must precede start(). */
    void setClient(SchedClient *client) { client_ = client; }

    /** Begin ticking. Call once, before the first process is ready. */
    void start();

    /** @name Kernel-facing process transitions */
    /// @{
    /** Register a process (any state) with the scheduler. */
    void processCreated(Process *p);

    /** Mark @p p runnable (Embryo or Blocked -> Ready) and try to place
     *  it on a CPU. */
    void processReady(Process *p);

    /** The running process @p p blocked; frees its CPU. */
    void processBlocked(Process *p);

    /** The running process @p p exited; frees its CPU. */
    void processExited(Process *p);
    /// @}

    /** @name Queries and accounting */
    /// @{
    int numCpus() const { return static_cast<int>(cpus_.size()); }
    const Cpu &cpu(CpuId id) const { return cpus_.at(id); }

    /** CPUs where @p spu holds a home or time share, ascending. */
    const std::vector<CpuId> &cpusOf(SpuId spu) const;

    /** CPUs with no home SPU (offline ones included), ascending. */
    const std::vector<CpuId> &unownedCpus() const { return unownedCpus_; }

    /** CPUs currently online. */
    int onlineCpus() const;

    /** Total CPU time consumed by processes of @p spu. */
    Time spuCpuTime(SpuId spu) const;

    /** Sum of idle time across CPUs (updated through the last
     *  dispatch/idle transition). */
    Time totalIdleTime() const;

    Time tickPeriod() const { return tickPeriod_; }
    Time timeSlice() const { return timeSlice_; }

    /** Ready-structure scan iterations performed by policy decisions
     *  (queue scans, decay sweeps) — the O(SPUs)-regression canary
     *  surfaced as perf.policy_iters_cpu. Out of band: never
     *  serialised, never in JSONL. */
    std::uint64_t policyIters() const { return policyIters_; }
    /// @}

    /**
     * Run the pre-PR-9 O(all-SPUs) loop bodies (eager decay sweep,
     * full ready-table scans) instead of the lazy/active-set ones.
     * Bit-exact with the default: only wall-clock differs. Benchmark
     * baseline only (bench/ext_scale); excluded from the config
     * digest. Must be set before the first processCreated().
     */
    void setEagerPolicyLoops(bool eager) { eagerLoops_ = eager; }

    /**
     * Record the SPU tree's parent links (kNoSpu / absent = top
     * level). The base scheduler ignores them; the PIso policy uses
     * kinship to prefer lending an idle CPU within the owner's own
     * group before strangers take it.
     */
    virtual void setSpuParents(const SpuTable<SpuId> & /* parents */) {}

    /** Assign home SPUs to CPUs from per-SPU CPU shares (the hybrid
     *  space/time partition of Section 3.1): each SPU gets
     *  floor(share) dedicated CPUs; fractional remainders are packed
     *  onto shared CPUs as time shares. No-op for an empty table. */
    void partitionCpus(const SpuTable<double> &cpuShares);

    /**
     * Re-run the partition mid-run (SPUs created, destroyed,
     * suspended, or resumed — Section 2.1's dynamic SPU life cycle).
     * Running processes are not preempted here; ownership takes
     * effect through the normal tick/slice machinery.
     */
    void repartitionCpus(const SpuTable<double> &cpuShares);

    /** @name Fault injection: CPU offline/online */
    /// @{
    /**
     * Take @p cpuId out of service (or return it). Going offline
     * preempts the running process back into the ready queues; the CPU
     * keeps no home SPU until the next (re)partition. Callers should
     * follow with repartitionCpus() so entitlements re-spread over the
     * remaining capacity.
     */
    void setCpuOnline(CpuId cpuId, bool online);

    /** Take up to @p count online CPUs offline, highest index first.
     *  Always leaves at least one CPU online.
     *  @return CPUs actually taken. */
    int takeCpusOffline(int count);

    /** Bring up to @p count offline CPUs back, lowest index first.
     *  @return CPUs actually brought back. */
    int bringCpusOnline(int count);
    /// @}

    /** Checkpoint: the base accounting, the per-CPU state (running
     *  processes as pids) and the subclass ready queues. The pending
     *  clock tick is an imaged event record of its own. */
    void ckpt(CkptIo &io, const ProcessByPid &byPid,
              std::size_t spuBound);

  protected:
    /** Pick (and remove from the ready structures) the next process for
     *  @p cpu, or nullptr to leave it idle. */
    virtual Process *selectNext(Cpu &cpu) = 0;

    /** Add @p p to the ready structures. */
    virtual void enqueueReady(Process *p) = 0;

    /** May @p p be placed on idle CPU @p cpu right now? */
    virtual bool eligibleIdle(const Cpu &cpu, const Process *p) const = 0;

    /** Hook: @p p became ready but no idle CPU accepted it. */
    virtual void onReadyNoIdle(Process *p);

    /** Is any process waiting in the ready structures? */
    virtual bool anyReady() const = 0;

    /** True for a policy that never lends: a process is only ever
     *  eligible on the CPUs its SPU holds a share on. */
    virtual bool confinedToOwnCpus() const { return false; }

    /** The tick's idle pass: offer a dispatch to every idle CPU that
     *  could pick something, in ascending id order. */
    virtual void idlePass();

    /** Checkpoint hook: image the subclass ready structures. Must
     *  round-trip them exactly (FIFO order included) so restored
     *  dispatch decisions are bit-identical. SPU ids must be below
     *  @p spuBound. */
    virtual void ckptReady(CkptIo &io, const ProcessByPid &byPid,
                           std::size_t spuBound) = 0;

    /** Hook: per-tick policy work (revocation, owner rotation). Runs
     *  after the base slice handling. */
    virtual void policyTick();

    /** Place the best eligible process (if any) on @p cpu. */
    void dispatch(Cpu &cpu);

    /** Preempt whatever runs on @p cpu and re-dispatch. */
    void preemptCpu(Cpu &cpu);

    /** SPU whose turn it is on a time-partitioned CPU (the CPU's home
     *  SPU for dedicated CPUs). */
    SpuId currentOwner(const Cpu &cpu) const;

    /** Priority comparison helper: true if a should run before b. */
    static bool higherPriority(const Process *a, const Process *b);

    EventQueue &events_;
    SchedClient *client_ = nullptr;
    std::vector<Cpu> cpus_;
    std::vector<Process *> all_;

    /** Eager-baseline mode (see setEagerPolicyLoops). */
    bool eagerLoops_ = false;

    /** Policy-loop iteration counter (see policyIters). Out of band
     *  like MemPolicy::policyIters: host-side perf telemetry, never
     *  serialised. */
    // Out-of-band perf telemetry (policy_iters_cpu), deliberately
    // not imaged.
    std::uint64_t policyIters_ = 0;

  private:
    /** EventSink: the schedTick event. */
    void fire(EvKind kind, const EventArg &arg) override;
    void tick();
    void freeCpu(Process *p, bool requeue);

    /** The idle CPU processReady places @p p on (kNoCpu if none). */
    CpuId idleCpuFor(const Process *p) const;

    /** Recompute spuCpus_/unownedCpus_ from cpus_ (the file comment's
     *  invariant). */
    void rebuildCpuIndex();

    Time tickPeriod_;
    Time timeSlice_;
    Time decayPeriod_ = kSec;
    Time lastDecay_ = 0;

    /** Decay generation: bumped once per decay period instead of
     *  sweeping every process; processes fold missed halvings in on
     *  read (Process::foldDecay). */
    // Relative epoch tag, not imaged: the image folds decay into
    // each process and loading resyncs them.
    std::uint32_t decayEpoch_ = 0;
    /** Rotation period for time-partitioned CPUs. */
    Time sharePeriod_ = 100 * kMs;

    SpuTable<Time> spuCpuTime_;

    /** The per-SPU CPU index (see the file comment). */
    // The CPU index derives from cpus_ ownership: not imaged,
    // rebuilt by rebuildCpuIndex() on load.
    SpuTable<std::vector<CpuId>> spuCpus_;
    std::vector<CpuId> unownedCpus_;
};

} // namespace piso

#endif // PISO_OS_SCHEDULER_HH
