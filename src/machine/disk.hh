#ifndef PISO_MACHINE_DISK_HH
#define PISO_MACHINE_DISK_HH

/**
 * @file
 * Disk device: request queue, pluggable scheduler, request lifecycle.
 *
 * The device services one request at a time. Whenever it goes idle and
 * requests are queued, it asks its DiskScheduler to pick the next one —
 * which is exactly the hook the paper's three policies (Pos / Iso /
 * PIso, Section 3.3) plug into. Per-request and per-SPU statistics
 * (queue wait, positioning latency, sectors moved) feed Tables 3 and 4.
 */

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/spu_table.hh"
#include "src/machine/disk_model.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/ids.hh"
#include "src/sim/random.hh"
#include "src/sim/stats.hh"

namespace piso {

/** One I/O request as seen by the device and its scheduler. */
struct DiskRequest
{
    std::uint64_t id = 0;          //!< assigned by the device on submit
    SpuId spu = kNoSpu;            //!< SPU this request is scheduled under
    Pid pid = kNoPid;              //!< requesting process (kNoPid: daemon)
    std::uint64_t startSector = 0;
    std::uint32_t sectors = 0;
    bool write = false;
    Time issueTime = 0;            //!< filled in by the device

    /** Set by the device when the request did not complete
     *  successfully (injected transient error or dead disk). */
    bool failed = false;

    /** The submitter's operation; handed back to the sink. */
    IoTag tag;

    /**
     * Bandwidth charge breakdown. Normally empty, meaning all sectors
     * are charged to @ref spu. Batched delayed writes are *scheduled*
     * under the shared SPU but their pages are *charged* to the owning
     * user SPUs (Section 3.3); such requests carry the per-SPU sector
     * split here.
     */
    std::vector<std::pair<SpuId, std::uint32_t>> charges;
};

/**
 * Receives every request a DiskDevice completes, after the device has
 * recorded its statistics. One sink per device; the Kernel is the
 * sink of every disk it drives.
 */
class DiskSink
{
  public:
    virtual void diskComplete(const DiskRequest &req) = 0;

  protected:
    ~DiskSink() = default;
};

/**
 * Policy deciding which queued request the head serves next.
 * Implementations: CScanScheduler (IRIX "Pos"), IsoDiskScheduler
 * (blind fairness) and PisoDiskScheduler (fairness + head position).
 */
class DiskScheduler
{
  public:
    virtual ~DiskScheduler() = default;

    /**
     * Choose the next request to service.
     * @param queue      Pending requests; never empty.
     * @param headSector Sector the head currently sits after.
     * @param now        Current simulated time.
     * @return index into @p queue of the chosen request.
     */
    virtual std::size_t pick(const std::deque<DiskRequest> &queue,
                             std::uint64_t headSector, Time now) = 0;

    /**
     * Notification that a request finished (the paper re-checks the
     * fairness criterion "after each disk request"). Default: no-op.
     */
    virtual void onComplete(const DiskRequest &req, Time now);
};

/** Aggregated per-SPU statistics for one disk. */
struct SpuDiskStats
{
    Counter requests;
    Counter sectors;
    Counter errors;         //!< requests completed with failed = true
    Accumulator waitMs;     //!< queue wait per request, ms
    Accumulator serviceMs;  //!< full service time per request, ms

    void ckpt(CkptIo &io);
};

/** Device-wide statistics. */
struct DiskStats
{
    Counter requests;
    Counter sectors;
    Counter errors;            //!< requests completed with failed = true
    Accumulator waitMs;        //!< queue wait, ms
    Accumulator positionMs;    //!< seek + rotational per request, ms
    Accumulator seekMs;        //!< seek only, ms
    Time busyTime = 0;         //!< total time servicing requests

    void ckpt(CkptIo &io);
};

/**
 * A single disk drive: HP97560-modelled mechanism plus a request queue
 * drained under a pluggable scheduling policy.
 */
class DiskDevice : public EventSink
{
  public:
    /**
     * @param events    Simulation event queue (not owned).
     * @param model     Service-time model (copied).
     * @param scheduler Scheduling policy; must not be null.
     * @param rng       Private random stream (rotational latency).
     * @param name      Label for logs.
     * @param index     The machine's index of this disk: the arg of
     *                  its events, which a restore resolves by it.
     */
    DiskDevice(EventQueue &events, const DiskModel &model,
               std::unique_ptr<DiskScheduler> scheduler, Rng rng,
               std::string name = "disk", DiskId index = 0);

    /** Report completions to @p sink (set before the first submit;
     *  replaceable only while idle). */
    void setSink(DiskSink &sink);

    /** Enqueue a request; service begins immediately if idle.
     *  @return the id assigned to the request. */
    std::uint64_t submit(DiskRequest req);

    /** Replace the scheduling policy (only while idle with empty queue —
     *  used by experiment setup, not mid-run). */
    void setScheduler(std::unique_ptr<DiskScheduler> scheduler);

    /** Sector the head currently sits after. */
    std::uint64_t headSector() const { return headSector_; }

    /** Requests waiting (not counting the one in service). */
    std::size_t queueDepth() const { return queue_ ? queue_->size() : 0; }

    /** True while a request is being serviced. */
    bool busy() const { return busy_; }

    /** @name Fault injection (driven by the Simulation's FaultPlan) */
    /// @{
    /** Multiply every subsequent request's service time by @p factor
     *  (degraded mechanism; 1.0 restores full speed). */
    void setSlowFactor(double factor);

    /** Fail subsequent requests with probability @p rate (after their
     *  normal service time — the media retried and gave up). */
    void setErrorRate(double rate);

    /**
     * Permanent death: the in-flight request (if any) and every queued
     * or future request completes immediately with failed = true.
     * Irreversible.
     */
    void kill();

    /** True once kill() has been called. */
    bool dead() const { return dead_; }

    double slowFactor() const { return slowFactor_; }
    double errorRate() const { return errorRate_; }
    /// @}

    /** Device-wide statistics. */
    const DiskStats &stats() const { return stats_; }

    /** Per-SPU statistics (empty entry if the SPU never did I/O). */
    const SpuDiskStats &spuStats(SpuId spu) const;

    /** The service-time model in use. */
    const DiskModel &model() const { return model_; }

    /** The scheduling policy in use (checkpoint code reaches the
     *  fair policies' bandwidth trackers through this). */
    DiskScheduler &scheduler() { return *scheduler_; }
    const DiskScheduler &scheduler() const { return *scheduler_; }

    const std::string &name() const { return name_; }

    /** Image head/fault/RNG/stats state and every request in
     *  flight: the queue, the one in service with its service time,
     *  and the fast-failed ones not yet reported. Loading rejects
     *  (ConfigError) a request whose SPU is not below @p spuBound,
     *  whose sectors leave the disk, or whose tag names an op slot not
     *  below @p opBound. */
    void ckpt(CkptIo &io, std::size_t spuBound, std::size_t opBound);

  private:
    bool queued() const { return queueDepth() > 0; }
    void startNext();
    /** EventSink: the diskComplete and diskFailFast events. */
    void fire(EvKind kind, const EventArg &arg) override;
    /** Finish the request in service (the diskComplete event). */
    void complete();

    /** Complete @p req with failed = true at the current time,
     *  bypassing the mechanism (dead device). */
    void failFast(DiskRequest req);
    /** Report the oldest fast-failed request (the diskFailFast event). */
    void completeFailFast();
    /** Image one request in flight (see ckpt()). */
    void ckptRequest(CkptIo &io, DiskRequest &req, std::size_t spuBound,
                     std::size_t opBound);

    EventQueue &events_;
    DiskModel model_;
    std::unique_ptr<DiskScheduler> scheduler_;
    Rng rng_;
    std::string name_;
    DiskId index_;
    DiskSink *sink_ = nullptr;

    // Made on the first submit: an empty std::deque allocates, and a
    // machine may never use some of its disks.
    std::optional<std::deque<DiskRequest>> queue_;
    /** Fast-failed requests from failHead_ on, oldest first: one
     *  diskFailFast event each, all due at their failing time, so they
     *  run in this order. */
    std::vector<DiskRequest> failing_;
    std::size_t failHead_ = 0;
    bool busy_ = false;
    /** The request in service and its service time (valid while busy). */
    DiskRequest inService_;
    DiskServiceTime inServiceTime_;
    double slowFactor_ = 1.0;
    double errorRate_ = 0.0;
    bool dead_ = false;
    std::uint64_t headSector_ = 0;
    std::uint64_t nextId_ = 1;

    DiskStats stats_;
    SpuTable<SpuDiskStats> spuStats_;
};

} // namespace piso

#endif // PISO_MACHINE_DISK_HH
