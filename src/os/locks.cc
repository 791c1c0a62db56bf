#include "src/os/locks.hh"

#include <algorithm>

#include "src/os/process.hh"
#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

int
LockTable::create(bool readersWriter)
{
    Lock l;
    l.readersWriter = readersWriter;
    locks_.push_back(std::move(l));
    return static_cast<int>(locks_.size()) - 1;
}

LockTable::Lock &
LockTable::lock(int id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= locks_.size())
        PISO_PANIC("unknown lock id ", id);
    return locks_[static_cast<std::size_t>(id)];
}

const LockTable::Lock &
LockTable::lock(int id) const
{
    return const_cast<LockTable *>(this)->lock(id);
}

bool
LockTable::acquire(int id, Process *p, bool exclusive)
{
    Lock &l = lock(id);
    l.stats.acquisitions.add();

    // Mutex-mode locks are always exclusive.
    if (!l.readersWriter)
        exclusive = true;

    const bool free = l.holders.empty();
    const bool shareable =
        !exclusive && !l.heldExclusive && l.queue.empty();
    if (free || (shareable && !l.holders.empty())) {
        l.holders.push_back(p);
        l.heldExclusive = exclusive;
        return true;
    }

    l.stats.contended.add();
    l.queue.push_back(Waiter{p, exclusive});
    return false;
}

void
LockTable::grantWaiters(Lock &l, std::vector<Process *> &granted)
{
    while (!l.queue.empty()) {
        Waiter &w = l.queue.front();
        if (l.holders.empty()) {
            l.holders.push_back(w.proc);
            l.heldExclusive = w.exclusive;
            granted.push_back(w.proc);
            l.queue.pop_front();
            continue;
        }
        // Lock is held by readers: admit further readers only.
        if (!l.heldExclusive && !w.exclusive) {
            l.holders.push_back(w.proc);
            granted.push_back(w.proc);
            l.queue.pop_front();
            continue;
        }
        break;
    }
}

std::vector<Process *>
LockTable::release(int id, Process *p)
{
    Lock &l = lock(id);
    auto it = std::find(l.holders.begin(), l.holders.end(), p);
    if (it == l.holders.end())
        PISO_PANIC("process '", p->name(), "' releases lock ", id,
                   " it does not hold");
    l.holders.erase(it);
    if (l.holders.empty())
        l.heldExclusive = false;

    std::vector<Process *> granted;
    if (!l.heldExclusive)
        grantWaiters(l, granted);
    return granted;
}

bool
LockTable::holds(int id, const Process *p) const
{
    const Lock &l = lock(id);
    return std::find(l.holders.begin(), l.holders.end(), p) !=
           l.holders.end();
}

std::vector<Process *>
LockTable::holdersOf(int id) const
{
    return lock(id).holders;
}

const LockStats &
LockTable::stats(int id) const
{
    return lock(id).stats;
}

void
LockTable::ckpt(CkptIo &io, const ProcessByPid &byPid)
{
    io.expect(locks_.size(), "lock");
    for (Lock &l : locks_) {
        io.boolean(l.heldExclusive);
        ckptProcesses(io, l.holders, byPid);
        io.seq(l.queue, [&io, &byPid](Waiter &wt) {
            ckptProcess(io, wt.proc, byPid);
            io.boolean(wt.exclusive);
        });
        l.stats.ckpt(io);
    }
}

} // namespace piso
