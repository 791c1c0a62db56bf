#ifndef PISO_MACHINE_NETWORK_HH
#define PISO_MACHINE_NETWORK_HH

/**
 * @file
 * Network interface model.
 *
 * The paper does not implement network-bandwidth isolation but states
 * (Sections 3 and 5) that "the techniques we describe would apply to
 * it as well ... similar to that of disk bandwidth, without the
 * complication of head position". This module provides the substrate:
 * a link with finite bandwidth, a message queue drained under a
 * pluggable scheduler (FIFO baseline vs the fair policy in
 * src/core/net_fair.hh), and per-SPU accounting.
 */

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "src/core/spu_table.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/ids.hh"
#include "src/sim/stats.hh"
#include "src/util/time.hh"

namespace piso {

/** One message queued for transmission. */
struct NetMessage
{
    std::uint64_t id = 0;     //!< assigned by the interface
    SpuId spu = kNoSpu;
    Pid pid = kNoPid;
    std::uint64_t bytes = 0;
    Time issueTime = 0;       //!< filled in by the interface
    IoTag tag;                //!< the submitter's operation
};

/**
 * Receives every message the interface finishes transmitting (when
 * the last bit leaves the wire). One sink per interface; the Kernel
 * is the sink of the interface it drives.
 */
class NetSink
{
  public:
    virtual void netComplete(const NetMessage &msg) = 0;

  protected:
    ~NetSink() = default;
};

/** Policy choosing the next message to transmit. */
class NetScheduler
{
  public:
    virtual ~NetScheduler() = default;

    /** Index into @p queue (never empty) of the next message. */
    virtual std::size_t pick(const std::deque<NetMessage> &queue,
                             Time now) = 0;

    /** Notification after a message finished transmitting. */
    virtual void onComplete(const NetMessage &msg, Time now);
};

/** The baseline: strict FIFO, no notion of SPUs — a bulk sender can
 *  starve everyone behind it. */
class FifoNetScheduler : public NetScheduler
{
  public:
    std::size_t pick(const std::deque<NetMessage> &queue,
                     Time now) override;
};

/** Per-SPU transmit statistics. */
struct SpuNetStats
{
    Counter messages;
    Counter bytes;
    Accumulator waitMs;  //!< queue wait per message

    void
    ckpt(CkptIo &io)
    {
        messages.ckpt(io);
        bytes.ckpt(io);
        waitMs.ckpt(io);
    }
};

/**
 * A network interface: one transmitter draining a message queue at
 * link speed under the configured scheduler.
 */
class NetworkInterface : public EventSink
{
  public:
    /**
     * @param events     Simulation event queue.
     * @param bitsPerSec Link bandwidth.
     * @param scheduler  Transmit policy (non-null).
     * @param name       Label for logs.
     * @param perMessageOverhead Fixed per-message cost (framing,
     *                   protocol processing).
     */
    NetworkInterface(EventQueue &events, double bitsPerSec,
                     std::unique_ptr<NetScheduler> scheduler,
                     std::string name = "net0",
                     Time perMessageOverhead = 50 * kUs);

    /** Report completions to @p sink (set before the first submit;
     *  replaceable only while idle). */
    void setSink(NetSink &sink);

    /** Queue a message; transmission begins immediately if idle.
     *  @return the id assigned to the message. */
    std::uint64_t submit(NetMessage msg);

    /** Time on the wire for @p bytes (excluding queueing). */
    Time transmitTime(std::uint64_t bytes) const;

    bool busy() const { return busy_; }

    const SpuNetStats &spuStats(SpuId spu) const;
    std::uint64_t totalMessages() const { return total_.value(); }
    const std::string &name() const { return name_; }

    /** The transmit policy in use (checkpoint code reaches the fair
     *  policy's bandwidth tracker through this). */
    NetScheduler &scheduler() { return *scheduler_; }
    const NetScheduler &scheduler() const { return *scheduler_; }

    /** Image counters and every message in flight: the queue and the
     *  one on the wire. Loading rejects (ConfigError) a message whose
     *  SPU is not below @p spuBound or whose tag names an op slot not
     *  below @p opBound. */
    void ckpt(CkptIo &io, std::size_t spuBound, std::size_t opBound);

  private:
    void startNext();
    /** EventSink: the netTx event. */
    void fire(EvKind kind, const EventArg &arg) override;
    /** Finish the message on the wire (the netTx event). */
    void complete();
    /** Image one message in flight (see ckpt()). */
    void ckptMessage(CkptIo &io, NetMessage &msg, std::size_t spuBound,
                     std::size_t opBound);

    EventQueue &events_;
    double bitsPerSec_;
    std::unique_ptr<NetScheduler> scheduler_;
    std::string name_;
    Time overhead_;
    NetSink *sink_ = nullptr;

    std::deque<NetMessage> queue_;
    bool busy_ = false;
    NetMessage inService_;  //!< the message on the wire (while busy)
    std::uint64_t nextId_ = 1;
    Counter total_;
    SpuTable<SpuNetStats> spuStats_;
};

} // namespace piso

#endif // PISO_MACHINE_NETWORK_HH
