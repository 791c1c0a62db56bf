#ifndef PISO_MACHINE_NUMA_HH
#define PISO_MACHINE_NUMA_HH

/**
 * @file
 * NUMA memory domains and a shared interconnect (bus) model.
 *
 * The paper's experiments run on a bus-based SMP where every memory
 * reference costs the same; scaling the simulated machine to hundreds
 * of CPUs makes that assumption the least realistic part of the model.
 * This module adds the two first-order effects of a big shared-memory
 * machine:
 *
 *  - **Memory domains.** CPUs and SPU home memory are striped over
 *    `domains` NUMA nodes (both by id modulo the domain count). A
 *    zero-fill page touch from a CPU in the page's home domain costs
 *    `localLatency` extra compute time; a touch from any other domain
 *    costs `remoteLatency` and crosses the interconnect.
 *
 *  - **Interconnect saturation.** Remote traffic feeds a decayed byte
 *    counter (the same half-life machinery as the disk bandwidth
 *    tracker). The estimated byte rate relative to `busBytesPerSec`
 *    inflates every remote touch by up to `1 + busSaturation`, so a
 *    machine whose remote traffic approaches the bus capacity sees
 *    super-linear memory latency — the classic reason big machines
 *    need isolation-aware placement.
 *
 * Everything is deterministic and charged through the existing
 * compute-time path (Kernel::pageFault), so the default configuration
 * (1 domain, zero latencies, no bus cap) adds exactly nothing and
 * leaves every small-machine golden byte-identical.
 */

#include <cstdint>

#include "src/sim/checkpoint.hh"
#include "src/sim/ids.hh"
#include "src/util/time.hh"

namespace piso {

/** Tunables of the NUMA/bus model ([machine] config keys). */
struct NumaConfig
{
    /** Memory domains; CPUs and SPU home memory are striped over the
     *  domains by id modulo this count. 1 = uniform memory. */
    int domains = 1;

    /** Extra compute time per zero-fill page touch whose CPU sits in
     *  the page's home domain. */
    Time localLatency = 0;

    /** Extra compute time per remote zero-fill page touch (before the
     *  bus saturation factor). */
    Time remoteLatency = 0;

    /** Interconnect capacity in bytes/second; 0 = unlimited (remote
     *  latency stays flat regardless of traffic). */
    double busBytesPerSec = 0.0;

    /** Strength of the saturation penalty: a remote touch at full bus
     *  utilisation costs (1 + busSaturation) x remoteLatency. */
    double busSaturation = 0.0;

    /** Decay half-life of the remote-traffic byte counter. */
    Time busHalfLife = 100 * kMs;

    /** True when any knob departs from the free defaults. */
    bool
    enabled() const
    {
        return domains > 1 || localLatency > 0 || remoteLatency > 0;
    }
};

/** Deterministic NUMA latency + bus saturation charging. */
class NumaModel
{
  public:
    /** @param cpus CPU count of the machine (for validation only;
     *  domain mapping is pure modulo). */
    NumaModel(const NumaConfig &cfg, int cpus);

    const NumaConfig &config() const { return cfg_; }

    int domains() const { return cfg_.domains; }

    /** Home domain of @p cpu (kNoCpu maps to domain 0). */
    int domainOfCpu(CpuId cpu) const;

    /** Home domain of @p spu's memory. */
    int domainOfSpu(SpuId spu) const;

    /**
     * Charge one zero-fill page touch of @p bytes by @p cpu against
     * @p spu's home memory at time @p now, and return the extra
     * compute time it costs. Remote touches accrue bus traffic and
     * pay the current saturation factor.
     */
    Time touchCost(CpuId cpu, SpuId spu, std::uint64_t bytes, Time now);

    /** Decayed remote-traffic rate over capacity, clamped to [0, 1];
     *  0 when the bus is uncapped. */
    double busUtilization(Time now) const;

    /** @name Counters (deterministic, reported and checkpointed) */
    /// @{
    std::uint64_t localTouches() const { return localTouches_; }
    std::uint64_t remoteTouches() const { return remoteTouches_; }
    std::uint64_t busBytes() const { return busBytes_; }
    /// @}

    /** @name Checkpoint */
    /// @{
    void ckpt(CkptIo &io);
    /// @}

  private:
    /** Decayed remote bytes outstanding at @p now. */
    double decayedTraffic(Time now) const;

    NumaConfig cfg_;

    /** Remote bytes, decaying by half every cfg_.busHalfLife. */
    double traffic_ = 0.0;
    Time trafficLast_ = 0;

    std::uint64_t localTouches_ = 0;
    std::uint64_t remoteTouches_ = 0;
    std::uint64_t busBytes_ = 0;
};

} // namespace piso

#endif // PISO_MACHINE_NUMA_HH
