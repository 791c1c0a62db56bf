#ifndef PISO_SIM_EVENT_QUEUE_HH
#define PISO_SIM_EVENT_QUEUE_HH

/**
 * @file
 * Discrete-event simulation engine.
 *
 * The EventQueue is the heart of the simulator: every hardware and OS
 * activity (clock ticks, disk completions, compute-slice expiries,
 * policy daemons) is an event. Events scheduled for the same instant
 * fire in scheduling order, which keeps runs fully deterministic.
 *
 * An event is a plain record: (when, seq) orders it, and
 * (kind, target, arg) says what it does. Firing calls
 * target->fire(kind, arg) once; each target (the kernel, the CPU
 * scheduler, a device, ...) dispatches on the kind with one switch.
 * The record holds no code, so a checkpoint images a pending event by
 * writing its fields, and a restore re-schedules it on the target the
 * kind names.
 *
 * Internally the queue is a generation-counted slab: each scheduled
 * event occupies a reusable slot, and an EventId encodes
 * (slot, generation) so pendingEvent() is an O(1) array probe with no
 * hashing. A 4-ary heap of small POD entries, indexed by slot, orders
 * the pending events; cancel() removes an event's entry where it
 * sits, so the heap never holds anything but pending events.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/util/time.hh"

namespace piso {

/**
 * Opaque handle identifying a scheduled event; used for cancellation.
 * Encodes (slot generation << 32) | (slot index + 1), so a handle is
 * never 0 and a reused slot invalidates stale handles automatically.
 */
using EventId = std::uint64_t;

/** EventId value meaning "no event". */
inline constexpr EventId kNoEvent = 0;

/**
 * What an event does. The first kImageableKinds are the kinds a
 * checkpoint may hold; their numbers are the image's kind bytes and
 * must never change. The others belong to in-flight I/O, devices,
 * monitors and tests, and a pending one makes a boundary
 * non-checkpointable.
 */
enum class EvKind : std::uint8_t
{
    SchedTick,          //!< CpuScheduler clock tick
    MemPolicy,          //!< MemorySharingPolicy recomputation
    Bdflush,            //!< periodic delayed-write flush daemon
    Pageout,            //!< periodic pageout daemon
    BdflushKick,        //!< one-shot high-water bdflush kick
    ProcStart,          //!< process start (arg = pid)
    SegEnd,             //!< compute-segment end (arg = pid)
    SleepWake,          //!< sleep expiry (arg = pid)
    FaultRestoreSlow,   //!< disk-slow window end (arg = disk)
    FaultRestoreError,  //!< disk-error window end (arg = disk)
    IoTimeout,          //!< I/O watchdog (arg = I/O tag)
    IoRetry,            //!< I/O retry after backoff (arg = op slot)
    DiskComplete,       //!< disk request finished service
    DiskFailFast,       //!< dead disk bounces its queue
    NetTx,              //!< network message transmitted
    SpuMonitor,         //!< SpuMonitor sampling tick
    External,           //!< tests and examples (arg = their own index)
};

/** Kinds 0 .. kImageableKinds-1 may be pending in a checkpoint. */
inline constexpr std::uint8_t kImageableKinds = 10;

/** Number of EvKind values. */
inline constexpr std::uint8_t kEvKinds =
    static_cast<std::uint8_t>(EvKind::External) + 1;

/** True when a pending @p kind event can be imaged. */
constexpr bool
imageable(EvKind kind)
{
    return static_cast<std::uint8_t>(kind) < kImageableKinds;
}

/** The kind's name, for traces and checkpoint refusals. */
const char *kindName(EvKind kind);

/**
 * An event's operand: plain data its target reads according to the
 * kind. `value` is a pid, a disk, an op slot or a test's index (-1
 * when the kind takes none) and is what a checkpoint images; `aux`
 * carries the rest of an I/O tag.
 */
struct EventArg
{
    std::int64_t value = -1;
    std::uint32_t aux = 0;
};

/**
 * The owner of events: fire() runs one of its events. Implementations
 * switch on @p kind and treat any kind they never schedule as a bug.
 */
class EventSink
{
  public:
    virtual void fire(EvKind kind, const EventArg &arg) = 0;

  protected:
    ~EventSink() = default;
};

/**
 * A deterministic, cancellable discrete-event queue.
 *
 * Ordering is (time, scheduling sequence number), a key unique to
 * each event. Cancellation frees the slab slot immediately, bumps the
 * slot's generation and removes the event's heap entry in place, so
 * cancel() and pop() are both O(log n) in the number of pending
 * events and the heap holds exactly pending() entries.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule a @p kind event on @p target at absolute time @p when:
     * at that time the queue calls target.fire(kind, arg).
     * @param when Absolute firing time; must be >= now().
     * @param target Outlives the event (or cancels it first).
     * @return Handle usable with cancel().
     */
    EventId schedule(Time when, EvKind kind, EventSink &target,
                     EventArg arg = {});

    /** schedule() @p delay after the current time. */
    EventId
    scheduleAfter(Time delay, EvKind kind, EventSink &target,
                  EventArg arg = {})
    {
        return schedule(now_ + delay, kind, target, arg);
    }

    /**
     * Cancel a previously scheduled event. Cancelling an event that has
     * already fired (or kNoEvent) is a harmless no-op.
     * @return true if the event was still pending.
     */
    bool cancel(EventId id);

    /** True if a given event is still pending (scheduled, not fired). */
    bool
    pendingEvent(EventId id) const
    {
        const std::uint32_t idx = slotOf(id);
        return idx < state_.size() &&
               state_[idx] == packState(genOf(id), true);
    }

    /** Number of live (non-cancelled) events still queued. */
    std::size_t pending() const { return live_; }

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Total number of events executed (fired) so far. */
    std::uint64_t executedEvents() const { return executed_; }

    /**
     * Pop and execute the next event, advancing now().
     * @return false if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue drains or @p limit is reached, whichever
     * comes first. Time advances to each event as it fires.
     * @return number of events executed.
     */
    std::size_t runAll(Time limit = kTimeNever);

    /** Firing time of the next live event, or kTimeNever if none. */
    Time
    nextEventTime() const
    {
        return heap_.empty() ? kTimeNever : heap_.top().when;
    }

    /**
     * @name Checkpoint/restore support
     *
     * The Simulation images every pending record's (kind, when, seq,
     * arg) from forEachPending(), and on restore re-schedules each on
     * the target its kind names at the *exact* heap coordinates with
     * scheduleRestored(), so ties keep firing in the original order.
     * See src/sim/checkpoint.hh and docs/checkpoint.md.
     */
    /// @{

    /**
     * Visit every live (pending) event in unspecified order.
     * @param fn Invoked as fn(EventId, Time when, std::uint64_t seq,
     *           EvKind kind, const EventArg &arg); callers sort by seq
     *           for deterministic output.
     */
    template <typename Fn>
    void
    forEachPending(Fn &&fn) const
    {
        for (const HeapEntry &e : heap_.entries()) {
            const Slot &slot = slots_[e.slot];
            fn(makeId(e.slot, state_[e.slot] >> 1), e.when, e.seq,
               slot.kind, slot.arg);
        }
    }

    /** Next sequence number to be handed out (image clock header). */
    std::uint64_t nextSeq() const { return nextSeq_; }

    /**
     * Re-schedule a restored event at an explicit sequence number
     * (instead of drawing the next one), preserving its tie-break
     * position among equal-time events. Does not advance nextSeq_;
     * restoreClock() sets the sequence counter afterwards.
     */
    EventId
    scheduleRestored(Time when, std::uint64_t seq, EvKind kind,
                     EventSink &target, EventArg arg)
    {
        return insert(when, seq, Slot{&target, arg, kind});
    }

    /** Cancel every live event (restore wipes before re-binding). */
    void clearPending();

    /**
     * Overwrite the clock state from a checkpoint: current time, the
     * next sequence number to hand out, and the executed-event count.
     * The sequence counter must not move backwards, and must end up
     * above every restored event's seq.
     */
    void restoreClock(Time now, std::uint64_t nextSeq,
                      std::uint64_t executed);

    /**
     * Advance now() to @p t without running anything. Used to deliver
     * out-of-band work (the fault-plan cursor) at its exact timestamp;
     * must not skip past the next pending event.
     */
    void advanceTo(Time t);

    /// @}

  private:
    /** What a pending event does: its slab record. */
    struct Slot
    {
        EventSink *target;
        EventArg arg;
        EvKind kind;
    };

    // Per-slot (generation << 1) | live, kept in a dense side array so
    // the cancel() and pendingEvent() id checks stay within a few cache
    // lines instead of striding across the slot records.
    static std::uint32_t
    packState(std::uint32_t gen, bool live)
    {
        return (gen << 1) | static_cast<std::uint32_t>(live);
    }

    /** POD heap entry: the (when, seq) key and the slot it orders. */
    struct HeapEntry
    {
        Time when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /**
     * 4-ary min-heap of HeapEntry ordered by (when, seq). Shallower
     * than a binary heap and with children sharing cache lines, so the
     * pop-heavy event loop touches fewer lines per operation. The heap
     * is indexed by slab slot: every move updates pos_[slot], so an
     * entry can be removed from the middle in O(log n).
     */
    class EventHeap
    {
      public:
        bool empty() const { return v_.empty(); }
        std::size_t size() const { return v_.size(); }
        const HeapEntry &top() const { return v_.front(); }
        const std::vector<HeapEntry> &entries() const { return v_; }

        /** True when @p slot's entry sits where pos_ says it does. */
        bool
        indexes(std::uint32_t slot) const
        {
            return slot < pos_.size() && pos_[slot] < v_.size() &&
                   v_[pos_[slot]].slot == slot;
        }

        void
        push(const HeapEntry &e)
        {
            if (e.slot >= pos_.size())
                pos_.resize(e.slot + 1);
            v_.emplace_back();
            siftUp(v_.size() - 1, e);
        }

        void pop() { removeAt(0); }

        /** Remove @p slot's entry wherever it sits. */
        void remove(std::uint32_t slot) { removeAt(pos_[slot]); }

        void clear() { v_.clear(); }

      private:
        static bool
        before(const HeapEntry &a, const HeapEntry &b)
        {
            if (a.when != b.when)
                return a.when < b.when;
            return a.seq < b.seq;
        }

        void
        place(std::size_t i, const HeapEntry &e)
        {
            v_[i] = e;
            pos_[e.slot] = static_cast<std::uint32_t>(i);
        }

        /** Fill the hole at @p i with the last entry and restore order. */
        void
        removeAt(std::size_t i)
        {
            const HeapEntry last = v_.back();
            v_.pop_back();
            if (i == v_.size())
                return;
            if (i > 0 && before(last, v_[(i - 1) / 4]))
                siftUp(i, last);
            else
                siftDown(i, last);
        }

        /** Place @p e at or above the hole @p i. */
        void
        siftUp(std::size_t i, const HeapEntry &e)
        {
            while (i > 0) {
                const std::size_t parent = (i - 1) / 4;
                if (!before(e, v_[parent]))
                    break;
                place(i, v_[parent]);
                i = parent;
            }
            place(i, e);
        }

        /** Place @p e at or below the hole @p i. */
        void
        siftDown(std::size_t i, const HeapEntry &e)
        {
            const std::size_t n = v_.size();
            for (;;) {
                const std::size_t first = 4 * i + 1;
                if (first >= n)
                    break;
                const std::size_t last =
                    first + 4 < n ? first + 4 : n;
                std::size_t best = first;
                for (std::size_t c = first + 1; c < last; ++c) {
                    if (before(v_[c], v_[best]))
                        best = c;
                }
                if (!before(v_[best], e))
                    break;
                place(i, v_[best]);
                i = best;
            }
            place(i, e);
        }

        std::vector<HeapEntry> v_;
        std::vector<std::uint32_t> pos_; //!< per slot: index into v_
    };

    static std::uint32_t
    slotOf(EventId id)
    {
        return static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
    }

    static std::uint32_t
    genOf(EventId id)
    {
        return static_cast<std::uint32_t>(id >> 32);
    }

    static EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(gen) << 32) |
               (static_cast<EventId>(slot) + 1);
    }

    /** Take a slab slot for @p slot and push it at (when, seq). */
    EventId insert(Time when, std::uint64_t seq, const Slot &slot);

    /** Pop the head and fire it. */
    void popAndRun();

    // The head's record is copied out before it fires, so the slab may
    // grow (and move) while its target runs.
    EventHeap heap_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> state_;
    std::vector<std::uint32_t> freeSlots_;
    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace piso

#endif // PISO_SIM_EVENT_QUEUE_HH
