#include "src/machine/disk.hh"

#include "src/util/log.hh"
#include "src/sim/trace.hh"
#include "src/util/error.hh"

namespace piso {

void
DiskScheduler::onComplete(const DiskRequest &, Time)
{
}

DiskDevice::DiskDevice(EventQueue &events, const DiskModel &model,
                       std::unique_ptr<DiskScheduler> scheduler, Rng rng,
                       std::string name, DiskId index)
    : events_(events), model_(model), scheduler_(std::move(scheduler)),
      rng_(rng), name_(std::move(name)), index_(index)
{
    if (!scheduler_)
        PISO_FATAL("disk '", name_, "' constructed without a scheduler");
}

void
DiskDevice::setSink(DiskSink &sink)
{
    if (busy_ || queued() || !failing_.empty())
        PISO_FATAL("cannot change the sink of active disk '", name_, "'");
    sink_ = &sink;
}

std::uint64_t
DiskDevice::submit(DiskRequest req)
{
    if (req.sectors == 0)
        PISO_PANIC("zero-length request submitted to ", name_);
    if (sink_ == nullptr)
        PISO_PANIC("request submitted to ", name_,
                   " before its completion sink was set");
    if (req.startSector + req.sectors > model_.totalSectors())
        PISO_PANIC("request beyond end of ", name_);

    req.id = nextId_++;
    req.issueTime = events_.now();
    if (dead_) {
        failFast(std::move(req));
        return nextId_ - 1;
    }
    if (!queue_)
        queue_.emplace();
    queue_->push_back(std::move(req));
    if (!busy_)
        startNext();
    return nextId_ - 1;
}

void
DiskDevice::setSlowFactor(double factor)
{
    if (factor < 1.0)
        PISO_FATAL("slow factor < 1 for disk '", name_, "'");
    slowFactor_ = factor;
}

void
DiskDevice::setErrorRate(double rate)
{
    if (rate < 0.0 || rate > 1.0)
        PISO_FATAL("error rate outside [0,1] for disk '", name_, "'");
    errorRate_ = rate;
}

void
DiskDevice::kill()
{
    if (dead_)
        return;
    dead_ = true;
    PISO_TRACE(TraceCat::Disk, events_.now(), name_, " died");
    // The in-flight request (if any) completes through complete(),
    // which marks it failed because the device is now dead. Queued
    // requests fail immediately.
    if (!queued())
        return;
    std::deque<DiskRequest> drained;
    drained.swap(*queue_);
    for (DiskRequest &req : drained)
        failFast(std::move(req));
}

void
DiskDevice::failFast(DiskRequest req)
{
    req.failed = true;
    failing_.push_back(std::move(req));
    events_.scheduleAfter(0, EvKind::DiskFailFast, *this, {index_});
}

void
DiskDevice::completeFailFast()
{
    PISO_CHECK(failHead_ < failing_.size(), "diskFailFast on ", name_,
               " with no failed request");
    const DiskRequest r = std::move(failing_[failHead_]);
    if (++failHead_ == failing_.size()) {
        failing_.clear();
        failHead_ = 0;
    }
    stats_.requests.add();
    stats_.errors.add();
    auto &ss = spuStats_[r.spu];
    ss.requests.add();
    ss.errors.add();
    sink_->diskComplete(r);
}

void
DiskDevice::setScheduler(std::unique_ptr<DiskScheduler> scheduler)
{
    if (!scheduler)
        PISO_FATAL("null scheduler for disk '", name_, "'");
    if (busy_ || queued())
        PISO_FATAL("cannot swap scheduler on active disk '", name_, "'");
    scheduler_ = std::move(scheduler);
}

const SpuDiskStats &
DiskDevice::spuStats(SpuId spu) const
{
    static const SpuDiskStats kNone;
    const SpuDiskStats *stats = spuStats_.find(spu);
    return stats ? *stats : kNone;
}

void
DiskDevice::startNext()
{
    if (!queued())
        return;

    const std::size_t idx =
        scheduler_->pick(*queue_, headSector_, events_.now());
    if (idx >= queue_->size())
        PISO_PANIC("disk scheduler picked index ", idx, " of ",
                   queue_->size());

    inService_ = std::move((*queue_)[idx]);
    queue_->erase(queue_->begin() + static_cast<std::ptrdiff_t>(idx));
    DiskRequest &req = inService_;

    DiskServiceTime &st = inServiceTime_;
    st = model_.service(headSector_, req.startSector, req.sectors, rng_);
    if (slowFactor_ > 1.0) {
        st.seek = static_cast<Time>(static_cast<double>(st.seek) *
                                    slowFactor_);
        st.rotational = static_cast<Time>(
            static_cast<double>(st.rotational) * slowFactor_);
        st.transfer = static_cast<Time>(
            static_cast<double>(st.transfer) * slowFactor_);
        st.overhead = static_cast<Time>(
            static_cast<double>(st.overhead) * slowFactor_);
    }
    // Transient media error: the drive spends the full service time
    // retrying internally, then reports the failure.
    if (errorRate_ > 0.0 && rng_.chance(errorRate_))
        req.failed = true;

    const Time wait = events_.now() - req.issueTime;
    stats_.waitMs.sample(toMillis(wait));
    stats_.positionMs.sample(toMillis(st.seek + st.rotational));
    stats_.seekMs.sample(toMillis(st.seek));

    auto &ss = spuStats_[req.spu];
    ss.waitMs.sample(toMillis(wait));
    ss.serviceMs.sample(toMillis(st.total()));

    busy_ = true;
    events_.scheduleAfter(st.total(), EvKind::DiskComplete, *this,
                          {index_});
}

void
DiskDevice::fire(EvKind kind, const EventArg &)
{
    switch (kind) {
      case EvKind::DiskComplete:
        complete();
        return;
      case EvKind::DiskFailFast:
        completeFailFast();
        return;
      default:
        PISO_PANIC(name_, " fired a '", kindName(kind), "' event");
    }
}

void
DiskDevice::complete()
{
    // Moved out: the sink may submit, which starts the next request.
    DiskRequest req = std::move(inService_);
    const DiskServiceTime st = inServiceTime_;
    // A device that died mid-service loses the request it was working
    // on along with everything else.
    if (dead_)
        req.failed = true;

    PISO_TRACE(TraceCat::Disk, events_.now(), name_, " ",
               req.write ? "write" : "read", " spu", req.spu, " [",
               req.startSector, ",+", req.sectors, ") ",
               req.failed ? "FAILED" : "done");
    headSector_ = req.startSector + req.sectors;
    if (headSector_ >= model_.totalSectors())
        headSector_ = 0;

    stats_.requests.add();
    stats_.sectors.add(req.sectors);
    stats_.busyTime += st.total();
    if (req.failed)
        stats_.errors.add();

    auto &ss = spuStats_[req.spu];
    ss.requests.add();
    ss.sectors.add(req.sectors);
    if (req.failed)
        ss.errors.add();

    scheduler_->onComplete(req, events_.now());
    busy_ = false;

    sink_->diskComplete(req);

    // The sink may have queued more work.
    if (!busy_ && queued())
        startNext();
}

void
SpuDiskStats::ckpt(CkptIo &io)
{
    requests.ckpt(io);
    sectors.ckpt(io);
    errors.ckpt(io);
    waitMs.ckpt(io);
    serviceMs.ckpt(io);
}

void
DiskStats::ckpt(CkptIo &io)
{
    requests.ckpt(io);
    sectors.ckpt(io);
    errors.ckpt(io);
    waitMs.ckpt(io);
    positionMs.ckpt(io);
    seekMs.ckpt(io);
    io.time(busyTime);
}

void
DiskDevice::ckptRequest(CkptIo &io, DiskRequest &req, std::size_t spuBound,
                        std::size_t opBound)
{
    io.u64(req.id);
    io.i64(req.spu);
    io.i64(req.pid);
    io.u64(req.startSector);
    io.u32(req.sectors);
    io.boolean(req.write);
    io.time(req.issueTime);
    io.boolean(req.failed);
    io.u32(req.tag.slot);
    io.u32(req.tag.generation);
    io.u32(req.tag.attempt);
    io.seq(req.charges, [&io](std::pair<SpuId, std::uint32_t> &c) {
        io.i64(c.first);
        io.u32(c.second);
    });
    if (!io.loading())
        return;
    const auto knownSpu = [spuBound](SpuId spu) {
        return spu >= 0 && static_cast<std::size_t>(spu) < spuBound;
    };
    bool ok = knownSpu(req.spu) && req.sectors > 0 &&
              req.startSector < model_.totalSectors() &&
              req.sectors <= model_.totalSectors() - req.startSector &&
              req.tag.slot < opBound;
    for (const auto &[spu, sectors] : req.charges)
        ok = ok && knownSpu(spu);
    if (!ok) {
        throw ConfigError("checkpoint image rejected: disk '" + name_ +
                          "' request " + std::to_string(req.id) +
                          " names an unknown SPU, sector range or "
                          "I/O op slot");
    }
}

void
DiskDevice::ckpt(CkptIo &io, std::size_t spuBound, std::size_t opBound)
{
    io.u64(headSector_);
    io.u64(nextId_);
    io.f64(slowFactor_);
    io.f64(errorRate_);
    io.boolean(dead_);
    rng_.ckpt(io);
    stats_.ckpt(io);
    spuStats_.table(io, spuBound,
                    [&io](SpuDiskStats &s) { s.ckpt(io); });

    const auto request = [&](DiskRequest &req) {
        ckptRequest(io, req, spuBound, opBound);
    };
    const std::size_t queued = io.count(queueDepth());
    if (io.loading() && queued > 0 && !queue_)
        queue_.emplace();
    if (queue_) {
        if (io.loading())
            queue_->resize(queued);
        for (DiskRequest &req : *queue_)
            request(req);
    }
    io.boolean(busy_);
    if (busy_) {
        request(inService_);
        io.time(inServiceTime_.seek);
        io.time(inServiceTime_.rotational);
        io.time(inServiceTime_.transfer);
        io.time(inServiceTime_.overhead);
    }
    // Only the fast-failed requests not yet reported; loading puts the
    // oldest at the head.
    const std::size_t failed = io.count(failing_.size() - failHead_);
    if (io.loading()) {
        failing_.assign(failed, DiskRequest{});
        failHead_ = 0;
    }
    for (std::size_t i = failHead_; i < failing_.size(); ++i)
        request(failing_[i]);
}

} // namespace piso
