#ifndef PISO_SIMULATION_HH
#define PISO_SIMULATION_HH

/**
 * @file
 * Public facade of the performance-isolation simulator.
 *
 * Typical use:
 * @code
 *   SystemConfig cfg;
 *   cfg.cpus = 8;
 *   cfg.memoryBytes = 44 * piso::kMiB;
 *   cfg.diskCount = 8;
 *   cfg.scheme = Scheme::PIso;
 *
 *   Simulation sim(cfg);
 *   SpuId user = sim.addSpu({.name = "user1", .homeDisk = 0});
 *   sim.addJob(user, makePmake("pm1"));
 *   SimResults r = sim.run();
 * @endcode
 */

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/mem_policy.hh"
#include "src/core/scheme.hh"
#include "src/core/scheme_profile.hh"
#include "src/core/spu.hh"
#include "src/machine/disk_model.hh"
#include "src/machine/numa.hh"
#include "src/metrics/results.hh"
#include "src/os/kernel.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/fault_plan.hh"
#include "src/workload/job.hh"

namespace piso {

/** Convenience byte units. */
inline constexpr std::uint64_t kKiB = 1024;
inline constexpr std::uint64_t kMiB = 1024 * kKiB;

/** Full description of a simulated machine + scheme. */
struct SystemConfig
{
    /** @name Hardware */
    /// @{
    int cpus = 8;
    std::uint64_t memoryBytes = 64 * kMiB;
    int diskCount = 1;
    DiskParams diskParams{};  //!< applied to every disk

    /** NUMA domains and interconnect saturation (src/machine/numa.hh);
     *  the defaults model the paper's uniform-memory machine and add
     *  zero cost. */
    NumaConfig numa{};
    /// @}

    /** @name Resource-allocation policies
     *
     * `scheme` picks one of Table 2's uniform columns for every
     * resource at once; the optional per-resource fields override it
     * individually (see docs/profiles.md). The simulation acts on
     * resolvedProfile() only.
     */
    /// @{
    Scheme scheme = Scheme::PIso;
    DiskPolicy diskPolicy = DiskPolicy::SchemeDefault;

    /** CPU policy override; unset = follow `scheme`. */
    std::optional<CpuPolicy> cpuPolicy;

    /** Memory policy override; unset = follow `scheme`. */
    std::optional<MemoryPolicy> memoryPolicy;

    /** Network policy override; unset = follow `scheme`. */
    std::optional<NetPolicy> netPolicy;

    /** Pin all four per-resource policies at once. */
    void setProfile(const SchemeProfile &p);

    /** The effective per-resource profile: `scheme` expanded via
     *  SchemeProfile::uniform(), then the overrides applied. */
    SchemeProfile resolvedProfile() const;

    /** BW difference threshold of the PIso disk policy (decayed
     *  sectors per unit share). */
    double bwThresholdSectors = 256.0;

    /** Decay half-life of disk bandwidth counts (paper: 500 ms). */
    Time bwHalfLife = 500 * kMs;

    /** Network link speed; 0 disables the interface. The link is
     *  scheduled FIFO under the Smp scheme and fairly (decayed per-SPU
     *  byte counts, Section 5's sketched extension) otherwise. */
    double networkBitsPerSec = 0.0;

    /** Revoke loaned CPUs immediately (IPI) instead of at the next
     *  10 ms tick. */
    bool ipiRevocation = false;

    /** After a revocation, keep the CPU home-only for this long (the
     *  Section 3.1 anti-churn refinement; 0 = off). */
    Time loanHoldoff = 0;

    MemPolicyConfig memPolicy{};
    /// @}

    /** @name OS substrate */
    /// @{
    KernelConfig kernel{};
    Time tickPeriod = 10 * kMs;
    Time timeSlice = 30 * kMs;

    /** Pinned kernel memory charged to the kernel SPU at boot. */
    std::uint64_t kernelResidentBytes = 2 * kMiB;
    /// @}

    /** @name Run control */
    /// @{
    std::uint64_t seed = 1;

    /** Run every periodic policy loop with the pre-PR-9 full scans
     *  (eager CPU decay sweeps, full ready-table scans, every-period
     *  memory recomputes). Bit-exact with the default O(active) paths;
     *  exists only as the bench/ext_scale wall-clock baseline and is
     *  excluded from the checkpoint config digest. */
    bool eagerPolicyLoops = false;

    /** Hard stop; a run that hits it reports completed = false. */
    Time maxTime = 600 * kSec;

    /** Hardware misbehaviour to inject, delivered through the event
     *  queue (deterministic per seed; see docs/faults.md). */
    FaultPlan faults;

    /** Simulated-time watchdog: a run still alive past this budget
     *  throws RunawayError so the sweep runner can quarantine it as
     *  TimedOut (0 = off). Distinct from maxTime, which stops the run
     *  gracefully and reports completed = false. */
    Time watchdogSimTime = 0;

    /** Event-count watchdog: throws RunawayError after this many
     *  executed events (0 = off). */
    std::uint64_t watchdogEvents = 0;

    /**
     * Deterministic failure injection for the chaos harness
     * (tests/test_chaos.cc, tools/piso_chaos). Each knob forces one
     * SimError category at a reproducible point of the run; all off by
     * default. See docs/robustness.md.
     */
    struct ChaosSpec
    {
        /** Throw InvariantError once this many events of the run have
         *  executed (0 = off). */
        std::uint64_t invariantAtEvent = 0;

        /** Throw ResourceError when the machine's in-use page count
         *  exceeds this cap (0 = off). */
        std::uint64_t allocCapPages = 0;

        /** Throw ResourceError at run start while attempt <= this
         *  (0 = off) — models transient pressure that clears after a
         *  known number of orchestration-level retries. */
        int resourceUntilAttempt = 0;

        /** Current attempt number; the sweep runner bumps it on each
         *  retry of the task. */
        int attempt = 1;
    };
    ChaosSpec chaos;
    /// @}

    /** @name Checkpoint (docs/checkpoint.md)
     *
     * With checkpointAt > 0, run() serialises the complete simulation
     * state at the first quiescent event boundary at or after that
     * time and hands the image to checkpointSink. A boundary is
     * quiescent when no I/O is in flight and every pending event is
     * of an imageable kind (src/sim/event_queue.hh); the run keeps
     * executing events until it finds one.
     */
    /// @{
    /** Earliest simulated time to checkpoint at (0 = off). */
    Time checkpointAt = 0;

    /** Fail with InvariantError if no quiescent boundary was found by
     *  this time (0 = keep looking until the run ends). */
    Time checkpointDeadline = 0;

    /** Stop the run right after the checkpoint is taken (used by the
     *  warm-start sweep engine's template runs). */
    bool checkpointStop = false;

    /** Receives the serialised image when the checkpoint fires. Must
     *  be set when checkpointAt > 0. */
    std::function<void(std::string)> checkpointSink;
    /// @}
};

/**
 * The canonical encoding behind Simulation::configDigest(): the
 * machine configuration, then the user SPUs (ascending id), then the
 * declared jobs in order. Simulation::configDigest() feeds it from a
 * populated Simulation and specConfigDigest() (workload_spec.hh) from
 * a parsed spec, so the format has this one definition. Run control —
 * faults, maxTime, watchdogs, chaos, checkpoint knobs — and
 * eagerPolicyLoops stay out (see docs/checkpoint.md).
 */
class ConfigDigest
{
  public:
    explicit ConfigDigest(const SystemConfig &cfg);

    /** Start the SPU list; @p count spu() calls follow. */
    void spus(std::size_t count);
    void spu(SpuId id, std::string_view name, double share,
             DiskId homeDisk, SpuId parent, bool group);

    /** Start the job list; @p count job() calls follow. */
    void jobs(std::size_t count);
    void job(SpuId spu, std::string_view name, Time startAt);

    /** FNV-1a over everything encoded so far. */
    std::uint64_t value() const;

  private:
    CkptWriter w_;
};

/**
 * Owns a full simulated machine: hardware, OS, SPU policies, and
 * workloads. Configure, add SPUs and jobs, then run() once.
 */
class Simulation
{
  public:
    explicit Simulation(const SystemConfig &cfg);
    ~Simulation();

    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    /** Create a user SPU. Must precede run(). */
    SpuId addSpu(const SpuSpec &spec);

    /** Queue a job to run in @p spu. Must precede run(). */
    JobId addJob(SpuId spu, JobSpec spec);

    /**
     * Recompute CPU partition and bandwidth shares from the current
     * SPU registry. Call (e.g. from a scheduled event) after
     * suspending, resuming, creating, or destroying SPUs mid-run;
     * PIso memory entitlements follow automatically at the sharing
     * policy's next period.
     */
    void rebalanceSpus();

    /** Execute the whole workload. Call once. After restore(), this
     *  continues the run from the checkpointed state instead of from
     *  time zero. */
    SimResults run();

    /** @name Checkpoint/restore (docs/checkpoint.md)
     *
     * checkpoint() serialises the complete state to @p out. It may be
     * called before run() (a t=0 image) or from inside a scheduled
     * event; either way the simulation must be at a quiescent
     * boundary — no I/O in flight and only serialisable events
     * pending — or InvariantError is thrown.
     *
     * restore() is the inverse: construct a Simulation with the exact
     * same SystemConfig and replay the identical addSpu()/addJob()
     * sequence, then call restore() instead of running from scratch.
     * The header's config digest guards against mismatched
     * configurations; malformed or corrupted images raise ConfigError.
     */
    /// @{
    void checkpoint(std::ostream &out);
    void restore(std::istream &in);
    /** restore() from an in-memory image, read in place. */
    void restore(std::string_view image);

    /**
     * The digest a checkpoint image of this simulation would carry:
     * a hash of the machine configuration plus the declared SPU/job
     * structure. Two simulations with equal digests accept each
     * other's images; the warm-start sweep engine uses this to group
     * grid points that can share a checkpointed prefix. Fault plans,
     * maxTime, watchdogs, and chaos knobs are deliberately excluded
     * (see docs/checkpoint.md).
     */
    std::uint64_t configDigest() const;
    /// @}

    /** @name Component access (tests, examples, advanced setups) */
    /// @{
    Kernel &kernel();
    EventQueue &events();
    SpuManager &spus();
    FileSystem &fs();
    VirtualMemory &vm();
    CpuScheduler &scheduler();
    /** The machine's network interface (nullptr when disabled). */
    NetworkInterface *network();
    const SystemConfig &config() const;
    /// @}

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace piso

#endif // PISO_SIMULATION_HH
