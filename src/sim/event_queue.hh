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
 * Internally the queue is a generation-counted slab: each scheduled
 * event occupies a reusable slot, and an EventId encodes
 * (slot, generation) so pendingEvent() is an O(1) array probe with no
 * hashing. A 4-ary heap of small POD entries, indexed by slot, orders
 * the pending events; cancel() removes an event's entry where it
 * sits, so the heap never holds anything but pending events.
 * Callbacks live in the slab behind a small-buffer wrapper so the
 * common capture sizes ([this], [this, ptr], [this, id, time]) never
 * touch the allocator.
 */

#include <cstddef>
#include <cstdint>
#include <deque>
#include <new>
#include <type_traits>
#include <utility>
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
 * Move-only callable wrapper with a small-buffer optimisation sized
 * for event-loop lambdas. Captures up to kInlineSize bytes are stored
 * in place; larger ones fall back to the heap.
 */
class EventCallback
{
  public:
    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback> &&
                  std::is_invocable_r_v<void, std::decay_t<F> &>>>
    EventCallback(F &&f) // NOLINT: implicit like std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineSize &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            new (buf_) Fn(std::forward<F>(f));
            vt_ = &vtableFor<Fn, /*OnHeap=*/false>;
        } else {
            // piso-lint: allow(memory-raw-new) -- small-buffer wrapper's heap fallback; ownership sits in vt_, freed by destroyHeap/invokeDestroyHeap
            heap_ = new Fn(std::forward<F>(f));
            vt_ = &vtableFor<Fn, /*OnHeap=*/true>;
        }
    }

    EventCallback(EventCallback &&other) noexcept { moveFrom(other); }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    /** True when a callable is held. */
    explicit operator bool() const { return vt_ != nullptr; }

    /** Invoke the held callable. Undefined when empty. */
    void operator()() { vt_->invoke(target()); }

    /**
     * Invoke the held callable, then destroy it, leaving the wrapper
     * empty — one indirect call instead of two on the fire path.
     * Undefined when empty.
     */
    void
    invokeAndReset()
    {
        const VTable *vt = vt_;
        vt_ = nullptr;
        vt->invokeDestroy(vt->onHeap ? heap_
                                     : static_cast<void *>(buf_));
    }

    /** Destroy the held callable, leaving the wrapper empty. */
    void
    reset()
    {
        if (vt_) {
            vt_->destroy(target());
            vt_ = nullptr;
        }
    }

    /** Inline storage size; tuned to the kernel's largest hot capture. */
    static constexpr std::size_t kInlineSize = 48;

  private:
    struct VTable
    {
        void (*invoke)(void *obj);
        void (*destroy)(void *obj);
        void (*invokeDestroy)(void *obj);
        /** Move src's inline object into dstBuf and destroy src. */
        void (*relocate)(void *dstBuf, void *src);
        bool onHeap;
    };

    template <typename Fn>
    static void
    invokeImpl(void *obj)
    {
        (*static_cast<Fn *>(obj))();
    }

    template <typename Fn>
    static void
    destroyInline(void *obj)
    {
        static_cast<Fn *>(obj)->~Fn();
    }

    template <typename Fn>
    static void
    destroyHeap(void *obj)
    {
        // piso-lint: allow(memory-raw-new) -- matching release for the wrapper's heap-fallback new above
        delete static_cast<Fn *>(obj);
    }

    template <typename Fn>
    static void
    relocateInline(void *dstBuf, void *src)
    {
        new (dstBuf) Fn(std::move(*static_cast<Fn *>(src)));
        static_cast<Fn *>(src)->~Fn();
    }

    template <typename Fn>
    static void
    invokeDestroyInline(void *obj)
    {
        Fn *fn = static_cast<Fn *>(obj);
        (*fn)();
        fn->~Fn();
    }

    template <typename Fn>
    static void
    invokeDestroyHeap(void *obj)
    {
        Fn *fn = static_cast<Fn *>(obj);
        (*fn)();
        // piso-lint: allow(memory-raw-new) -- matching release for the wrapper's heap-fallback new above
        delete fn;
    }

    template <typename Fn, bool OnHeap>
    static constexpr VTable vtableFor{
        &invokeImpl<Fn>,
        OnHeap ? &destroyHeap<Fn> : &destroyInline<Fn>,
        OnHeap ? &invokeDestroyHeap<Fn> : &invokeDestroyInline<Fn>,
        OnHeap ? nullptr : &relocateInline<Fn>, OnHeap};

    void *
    target()
    {
        return vt_->onHeap ? heap_ : static_cast<void *>(buf_);
    }

    void
    moveFrom(EventCallback &other) noexcept
    {
        vt_ = other.vt_;
        if (!vt_)
            return;
        if (vt_->onHeap)
            heap_ = other.heap_;
        else
            vt_->relocate(buf_, other.buf_);
        other.vt_ = nullptr;
    }

    union
    {
        alignas(std::max_align_t) unsigned char buf_[kInlineSize];
        void *heap_;
    };
    const VTable *vt_ = nullptr;
};

/**
 * A deterministic, cancellable discrete-event queue.
 *
 * Ordering is (time, scheduling sequence number), a key unique to
 * each event. Cancellation frees the slab slot immediately
 * (destroying the callback), bumps the slot's generation and removes
 * the event's heap entry in place, so cancel() and pop() are both
 * O(log n) in the number of pending events and the heap holds exactly
 * pending() entries.
 */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @param when Absolute firing time; must be >= now().
     * @param cb   Callback executed when the event fires.
     * @param name Optional label used in debug traces; must point at
     *             storage outliving the event (string literals do).
     * @return Handle usable with cancel().
     */
    EventId schedule(Time when, Callback cb, const char *name = "");

    /** Schedule @p cb to run @p delay after the current time. */
    EventId
    scheduleAfter(Time delay, Callback cb, const char *name = "")
    {
        return schedule(now_ + delay, std::move(cb), name);
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
     * Callbacks are closures and cannot be serialised; instead the
     * Simulation snapshots every live event's (id, when, seq, name)
     * with forEachPending(), re-creates the callbacks from named
     * descriptors on restore, and re-binds them at the *exact* heap
     * coordinates with scheduleRestored() so ties keep firing in the
     * original order. See src/sim/checkpoint.hh and docs/checkpoint.md.
     */
    /// @{

    /**
     * Visit every live (pending) event in unspecified order.
     * @param fn Invoked as fn(EventId, Time when, std::uint64_t seq,
     *           const char *name); callers sort by seq for
     *           deterministic output.
     */
    template <typename Fn>
    void
    forEachPending(Fn &&fn) const
    {
        for (const HeapEntry &e : heap_.entries())
            fn(makeId(e.slot, state_[e.slot] >> 1), e.when, e.seq,
               slots_[e.slot].name);
    }

    /** Next sequence number to be handed out (image clock header). */
    std::uint64_t nextSeq() const { return nextSeq_; }

    /**
     * Re-schedule a restored event at an explicit sequence number
     * (instead of drawing the next one), preserving its tie-break
     * position among equal-time events. Does not advance nextSeq_;
     * restoreClock() sets the sequence counter afterwards.
     */
    EventId scheduleRestored(Time when, std::uint64_t seq, Callback cb,
                             const char *name = "");

    /** Cancel every live event (restore wipes before re-binding). */
    void clearPending();

    /**
     * Overwrite the clock state from a checkpoint: current time, the
     * next sequence number to hand out, and the executed-event count.
     * Called after every scheduleRestored(); the sequence counter must
     * not move backwards.
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
    struct Slot
    {
        Callback cb;
        const char *name = "";
    };

    // Per-slot (generation << 1) | live, kept in a dense side array so
    // the cancel() and pendingEvent() id checks stay within a few cache
    // lines instead of striding across the fat callback slots.
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

    /** Take a slab slot for @p cb and push it at (when, seq). */
    EventId insert(Time when, std::uint64_t seq, Callback &&cb,
                   const char *name);

    /** Pop the head and run its callback. */
    void popAndRun();

    // Slots live in a deque so references stay valid while a callback
    // executes in place even if the callback schedules new events and
    // grows the slab.
    EventHeap heap_;
    std::deque<Slot> slots_;
    std::vector<std::uint32_t> state_;
    std::vector<std::uint32_t> freeSlots_;
    Time now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t live_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace piso

#endif // PISO_SIM_EVENT_QUEUE_HH
