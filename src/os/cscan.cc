#include "src/os/cscan.hh"

#include "src/util/log.hh"

namespace piso {

std::size_t
CScanScheduler::pick(const std::deque<DiskRequest> &queue,
                     std::uint64_t headSector, Time)
{
    if (queue.empty())
        PISO_PANIC("C-SCAN asked to pick from an empty queue");
    return pickAmong(queue, headSector, anyRequest);
}

} // namespace piso
