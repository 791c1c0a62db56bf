#include "src/sim/event_queue.hh"

#include "src/util/log.hh"
#include "src/util/error.hh"

namespace piso {

const char *
kindName(EvKind kind)
{
    // In EvKind order.
    static constexpr const char *kNames[kEvKinds] = {
        "schedTick", "memPolicy", "bdflush", "pageout", "bdflushKick",
        "procStart", "segEnd", "sleepWake", "faultRestoreSlow",
        "faultRestoreError", "ioTimeout", "ioRetry", "diskComplete",
        "diskFailFast", "netTx", "spuMonitor", "external",
    };
    const auto k = static_cast<std::uint8_t>(kind);
    return k < kEvKinds ? kNames[k] : "unknown";
}

EventId
EventQueue::schedule(Time when, EvKind kind, EventSink &target,
                     EventArg arg)
{
    PISO_INVARIANT(when >= now_, "event '", kindName(kind),
                   "' scheduled in the past (", formatTime(when),
                   " < now=", formatTime(now_), ")");
    return insert(when, nextSeq_++, Slot{&target, arg, kind});
}

EventId
EventQueue::insert(Time when, std::uint64_t seq, const Slot &slot)
{
    std::uint32_t idx;
    if (!freeSlots_.empty()) {
        idx = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[idx] = slot;
    } else {
        idx = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back(slot);
        state_.push_back(packState(0, false));
    }
    const std::uint32_t gen = state_[idx] >> 1;
    state_[idx] = packState(gen, true);

    heap_.push(HeapEntry{when, seq, idx});
    ++live_;
    return makeId(idx, gen);
}

void
EventQueue::clearPending()
{
    for (std::uint32_t idx = 0; idx < state_.size(); ++idx) {
        if (state_[idx] & 1u) {
            state_[idx] = packState((state_[idx] >> 1) + 1, false);
            freeSlots_.push_back(idx);
        }
    }
    heap_.clear();
    live_ = 0;
}

void
EventQueue::restoreClock(Time now, std::uint64_t nextSeq,
                         std::uint64_t executed)
{
    PISO_INVARIANT(nextSeq >= nextSeq_,
                   "restored sequence counter moves backwards (",
                   nextSeq, " < ", nextSeq_, ")");
    now_ = now;
    nextSeq_ = nextSeq;
    executed_ = executed;
}

void
EventQueue::advanceTo(Time t)
{
    PISO_INVARIANT(t >= now_, "clock advance into the past (",
                   formatTime(t), " < now=", formatTime(now_), ")");
    PISO_INVARIANT(t <= nextEventTime(),
                   "clock advance past the next pending event");
    now_ = t;
}

bool
EventQueue::cancel(EventId id)
{
    if (id == kNoEvent)
        return false;
    const std::uint32_t idx = slotOf(id);
    if (idx >= state_.size() ||
        state_[idx] != packState(genOf(id), true))
        return false;
    PISO_CHECK(heap_.indexes(idx),
               "pending event's heap position is stale (slot ", idx, ")");

    heap_.remove(idx);
    state_[idx] = packState(genOf(id) + 1, false);
    freeSlots_.push_back(idx);
    --live_;
    PISO_CHECK(heap_.size() == live_, "event heap holds ", heap_.size(),
               " entries for ", live_, " pending events");
    return true;
}

void
EventQueue::popAndRun()
{
    const HeapEntry entry = heap_.top();
    PISO_CHECK(heap_.size() == live_, "event heap holds ", heap_.size(),
               " entries for ", live_, " pending events");
    PISO_CHECK(entry.slot < slots_.size(),
               "event heap entry points past the slab (slot ",
               entry.slot, " of ", slots_.size(), ")");
    PISO_CHECK(heap_.indexes(entry.slot),
               "heap head's position is stale (slot ", entry.slot, ")");
    PISO_CHECK(state_[entry.slot] & 1u,
               "heap entry for a slot that holds no pending event");
    heap_.pop();

    // Retire the event before firing so its target may freely
    // schedule and cancel other events: the state bump makes cancel()
    // on the firing id a no-op, and the record is a copy, so the slot
    // may be reused at once.
    const Slot slot = slots_[entry.slot];
    state_[entry.slot] = packState((state_[entry.slot] >> 1) + 1, false);
    freeSlots_.push_back(entry.slot);
    --live_;
    ++executed_;

    now_ = entry.when;
    slot.target->fire(slot.kind, slot.arg);
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    popAndRun();
    return true;
}

std::size_t
EventQueue::runAll(Time limit)
{
    std::size_t count = 0;
    while (!heap_.empty() && heap_.top().when <= limit) {
        popAndRun();
        ++count;
    }
    return count;
}

} // namespace piso
