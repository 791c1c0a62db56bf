#include "src/machine/network.hh"

#include "src/util/log.hh"
#include "src/sim/trace.hh"
#include "src/util/error.hh"

namespace piso {

void
NetScheduler::onComplete(const NetMessage &, Time)
{
}

std::size_t
FifoNetScheduler::pick(const std::deque<NetMessage> &, Time)
{
    return 0;
}

NetworkInterface::NetworkInterface(EventQueue &events, double bitsPerSec,
                                   std::unique_ptr<NetScheduler> scheduler,
                                   std::string name,
                                   Time perMessageOverhead)
    : events_(events), bitsPerSec_(bitsPerSec),
      scheduler_(std::move(scheduler)), name_(std::move(name)),
      overhead_(perMessageOverhead)
{
    if (bitsPerSec_ <= 0.0)
        PISO_FATAL("link '", name_, "' bandwidth must be positive");
    if (!scheduler_)
        PISO_FATAL("link '", name_, "' constructed without a scheduler");
}

Time
NetworkInterface::transmitTime(std::uint64_t bytes) const
{
    const double seconds =
        static_cast<double>(bytes) * 8.0 / bitsPerSec_;
    return overhead_ + fromSeconds(seconds);
}

void
NetworkInterface::setSink(NetSink &sink)
{
    if (busy_ || !queue_.empty())
        PISO_FATAL("cannot change the sink of active link '", name_, "'");
    sink_ = &sink;
}

std::uint64_t
NetworkInterface::submit(NetMessage msg)
{
    if (msg.bytes == 0)
        PISO_PANIC("zero-length message on ", name_);
    if (sink_ == nullptr)
        PISO_PANIC("message submitted to ", name_,
                   " before its completion sink was set");
    msg.id = nextId_++;
    msg.issueTime = events_.now();
    queue_.push_back(std::move(msg));
    if (!busy_)
        startNext();
    return nextId_ - 1;
}

const SpuNetStats &
NetworkInterface::spuStats(SpuId spu) const
{
    static const SpuNetStats kNone;
    const SpuNetStats *stats = spuStats_.find(spu);
    return stats ? *stats : kNone;
}

void
NetworkInterface::startNext()
{
    if (queue_.empty())
        return;

    const std::size_t idx = scheduler_->pick(queue_, events_.now());
    if (idx >= queue_.size())
        PISO_PANIC("net scheduler picked index ", idx, " of ",
                   queue_.size());

    inService_ = queue_[idx];
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(idx));

    auto &ss = spuStats_[inService_.spu];
    ss.waitMs.sample(toMillis(events_.now() - inService_.issueTime));

    busy_ = true;
    events_.scheduleAfter(transmitTime(inService_.bytes), EvKind::NetTx,
                          *this);
}

void
NetworkInterface::fire([[maybe_unused]] EvKind kind, const EventArg &)
{
    PISO_CHECK(kind == EvKind::NetTx, name_, " fired a '",
               kindName(kind), "' event");
    complete();
}

void
NetworkInterface::complete()
{
    // Copied out: the sink may submit, which starts the next message.
    const NetMessage m = inService_;
    total_.add();
    PISO_TRACE(TraceCat::Net, events_.now(), name_, " sent ", m.bytes,
               "B for spu", m.spu);
    auto &stats = spuStats_[m.spu];
    stats.messages.add();
    stats.bytes.add(m.bytes);
    scheduler_->onComplete(m, events_.now());
    busy_ = false;
    sink_->netComplete(m);
    if (!busy_ && !queue_.empty())
        startNext();
}

void
NetworkInterface::ckptMessage(CkptIo &io, NetMessage &msg,
                              std::size_t spuBound, std::size_t opBound)
{
    io.u64(msg.id);
    io.i64(msg.spu);
    io.i64(msg.pid);
    io.u64(msg.bytes);
    io.time(msg.issueTime);
    io.u32(msg.tag.slot);
    io.u32(msg.tag.generation);
    io.u32(msg.tag.attempt);
    if (io.loading() &&
        (msg.spu < 0 || static_cast<std::size_t>(msg.spu) >= spuBound ||
         msg.bytes == 0 || msg.tag.slot >= opBound)) {
        throw ConfigError("checkpoint image rejected: network message " +
                          std::to_string(msg.id) +
                          " names an unknown SPU or I/O op slot");
    }
}

void
NetworkInterface::ckpt(CkptIo &io, std::size_t spuBound,
                       std::size_t opBound)
{
    io.u64(nextId_);
    total_.ckpt(io);
    spuStats_.table(io, spuBound,
                    [&io](SpuNetStats &s) { s.ckpt(io); });
    io.seq(queue_, [&](NetMessage &msg) {
        ckptMessage(io, msg, spuBound, opBound);
    });
    io.boolean(busy_);
    if (busy_)
        ckptMessage(io, inService_, spuBound, opBound);
}

} // namespace piso
