#ifndef PISO_METRICS_MONITOR_HH
#define PISO_METRICS_MONITOR_HH

/**
 * @file
 * SpuMonitor: periodic sampling of per-SPU resource state during a
 * run — the time-series view of the entitled/allowed/used dance that
 * single end-of-run numbers cannot show (tests/test_report.cc's
 * SpuMonitor.RecordsPeriodicSamples drives one through a run).
 */

#include <vector>

#include "src/core/spu_table.hh"
#include "src/os/scheduler.hh"
#include "src/os/vm.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/ids.hh"
#include "src/util/time.hh"

namespace piso {

/** One SPU's state at one sample instant. */
struct SpuSample
{
    std::uint64_t entitled = 0;
    std::uint64_t allowed = 0;
    std::uint64_t used = 0;
    Time cpuTime = 0;  //!< cumulative CPU time at the sample
};

/** One sample instant across all monitored SPUs. */
struct MonitorSample
{
    Time when = 0;
    std::uint64_t freePages = 0;
    SpuTable<SpuSample> spus;
};

/**
 * Samples per-SPU memory levels and CPU usage on a fixed period.
 * Attach before Simulation::run(); read the series afterwards.
 */
class SpuMonitor : private EventSink
{
  public:
    /**
     * @param events Event queue of the simulation to monitor.
     * @param vm     Its memory accounting.
     * @param sched  Its CPU scheduler.
     * @param spus   SPUs to record.
     * @param period Sampling period.
     */
    SpuMonitor(EventQueue &events, VirtualMemory &vm, CpuScheduler &sched,
               std::vector<SpuId> spus, Time period = 100 * kMs);

    /** Begin sampling (first sample at the current time). */
    void start();

    /** Recorded samples, oldest first. */
    const std::vector<MonitorSample> &samples() const { return samples_; }

    /** CPU time consumed by @p spu between consecutive samples @p i-1
     *  and @p i, as a fraction of the sample period (0 for i == 0). */
    double cpuShareAt(std::size_t i, SpuId spu) const;

    /** Peak used pages observed for @p spu. */
    std::uint64_t peakUsed(SpuId spu) const;

  private:
    /** EventSink: the spuMonitor event. */
    void fire(EvKind kind, const EventArg &arg) override;
    void sample();

    EventQueue &events_;
    VirtualMemory &vm_;
    CpuScheduler &sched_;
    std::vector<SpuId> spus_;
    Time period_;
    std::vector<MonitorSample> samples_;
};

} // namespace piso

#endif // PISO_METRICS_MONITOR_HH
