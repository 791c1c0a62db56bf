#include "src/machine/numa.hh"

#include <algorithm>
#include <cmath>

#include "src/util/log.hh"

namespace piso {

NumaModel::NumaModel(const NumaConfig &cfg, int cpus) : cfg_(cfg)
{
    if (cfg_.domains < 1)
        PISO_FATAL("NUMA domain count must be >= 1, got ", cfg_.domains);
    if (cfg_.domains > cpus)
        PISO_FATAL("NUMA domain count ", cfg_.domains,
                   " exceeds the machine's ", cpus, " CPUs");
    if (cfg_.busBytesPerSec < 0.0)
        PISO_FATAL("bus capacity must be >= 0 bytes/s");
    if (cfg_.busSaturation < 0.0)
        PISO_FATAL("bus saturation factor must be >= 0");
    if (cfg_.busHalfLife == 0)
        PISO_FATAL("bus traffic half-life must be non-zero");
}

int
NumaModel::domainOfCpu(CpuId cpu) const
{
    if (cpu == kNoCpu)
        return 0;
    return static_cast<int>(cpu) % cfg_.domains;
}

int
NumaModel::domainOfSpu(SpuId spu) const
{
    if (spu < 0)
        return 0;
    return static_cast<int>(spu) % cfg_.domains;
}

double
NumaModel::decayedTraffic(Time now) const
{
    if (now <= trafficLast_ || traffic_ == 0.0)
        return traffic_;
    const double halves = static_cast<double>(now - trafficLast_) /
                          static_cast<double>(cfg_.busHalfLife);
    return traffic_ * std::exp2(-halves);
}

double
NumaModel::busUtilization(Time now) const
{
    if (cfg_.busBytesPerSec <= 0.0)
        return 0.0;
    // The decayed counter holds roughly rate x halfLife / ln 2 bytes in
    // steady state; invert that to estimate the byte rate.
    const double rate = decayedTraffic(now) * std::log(2.0) /
                        toSeconds(cfg_.busHalfLife);
    return std::clamp(rate / cfg_.busBytesPerSec, 0.0, 1.0);
}

Time
NumaModel::touchCost(CpuId cpu, SpuId spu, std::uint64_t bytes, Time now)
{
    const bool local = domainOfCpu(cpu) == domainOfSpu(spu);
    if (local) {
        ++localTouches_;
        return cfg_.localLatency;
    }
    ++remoteTouches_;
    busBytes_ += bytes;
    // Saturation factor from the traffic *before* this touch, then
    // accrue the touch — one touch never inflates itself.
    const double factor = 1.0 + cfg_.busSaturation * busUtilization(now);
    traffic_ = decayedTraffic(now) + static_cast<double>(bytes);
    trafficLast_ = now;
    return static_cast<Time>(
        static_cast<double>(cfg_.remoteLatency) * factor);
}

void
NumaModel::ckpt(CkptIo &io)
{
    io.f64(traffic_);
    io.time(trafficLast_);
    io.u64(localTouches_);
    io.u64(remoteTouches_);
    io.u64(busBytes_);
}

} // namespace piso
