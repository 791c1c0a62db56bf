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
    return spuStats_[spu];
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
NetworkInterface::ckpt(CkptIo &io, std::size_t spuBound)
{
    if (!io.loading() && (busy_ || !queue_.empty())) {
        throw InvariantError("network '" + name_ +
                             "' has in-flight or queued messages at "
                             "checkpoint time (not quiescent)");
    }
    io.u64(nextId_);
    total_.ckpt(io);
    spuStats_.table(io, spuBound,
                    [&io](SpuNetStats &s) { s.ckpt(io); });
}

} // namespace piso
