#ifndef PISO_TESTS_FN_SINK_HH
#define PISO_TESTS_FN_SINK_HH

/**
 * @file
 * Test-only event target: runs arbitrary callables as `external`
 * events. Each scheduled callable is kept in a table, and the event's
 * arg is its index there.
 */

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/event_queue.hh"

namespace piso::test {

class FnSink final : public EventSink
{
  public:
    explicit FnSink(EventQueue &events) : events_(events) {}

    FnSink(const FnSink &) = delete;
    FnSink &operator=(const FnSink &) = delete;

    /** Run @p fn at absolute time @p when. */
    EventId
    schedule(Time when, std::function<void()> fn)
    {
        return events_.schedule(when, EvKind::External, *this,
                                add(std::move(fn)));
    }

    /** Run @p fn @p delay after the current time. */
    EventId
    scheduleAfter(Time delay, std::function<void()> fn)
    {
        return events_.scheduleAfter(delay, EvKind::External, *this,
                                     add(std::move(fn)));
    }

    /** Re-bind @p fn at an explicit (when, seq), as a restore does. */
    EventId
    scheduleRestored(Time when, std::uint64_t seq, std::function<void()> fn)
    {
        return events_.scheduleRestored(when, seq, EvKind::External, *this,
                                        add(std::move(fn)));
    }

    void
    fire(EvKind, const EventArg &arg) override
    {
        // Moved out first: the callable may schedule more, which can
        // grow the table under it.
        const std::function<void()> fn =
            std::move(fns_[static_cast<std::size_t>(arg.value)]);
        fn();
    }

  private:
    EventArg
    add(std::function<void()> fn)
    {
        fns_.push_back(std::move(fn));
        return EventArg{static_cast<std::int64_t>(fns_.size() - 1)};
    }

    EventQueue &events_;
    std::vector<std::function<void()>> fns_;
};

} // namespace piso::test

#endif // PISO_TESTS_FN_SINK_HH
