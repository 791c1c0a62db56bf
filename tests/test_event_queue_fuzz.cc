/**
 * @file
 * Randomized EventQueue fuzzing against a reference model.
 *
 * The queue's (time, sequence) FIFO contract is what makes every run
 * of the simulator deterministic; these tests interleave schedule /
 * cancel / runOne operations — deliberately piling events onto equal
 * timestamps — and check the firing order, the pending bookkeeping,
 * and in-place cancellation against a sorted-list model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "src/sim/event_queue.hh"
#include "tests/fn_sink.hh"
#include "src/sim/random.hh"

using namespace piso;

namespace {

/** Reference model entry: what the queue *should* hold. */
struct ModelEvent
{
    Time when;
    std::uint64_t order;  //!< scheduling order (the FIFO tiebreak)
    EventId id;
    int payload;          //!< which callback this is
};

bool
modelBefore(const ModelEvent &a, const ModelEvent &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    return a.order < b.order;
}

/** forEachPending() visits exactly the model's events, each with its
 *  id, time and sequence number (the model's order is the queue's
 *  sequence number when every event went through schedule()). */
void
expectPendingMatchesModel(const EventQueue &q,
                          const std::vector<ModelEvent> &model)
{
    using Key = std::tuple<EventId, Time, std::uint64_t>;
    std::vector<Key> seen;
    q.forEachPending([&](EventId id, Time when, std::uint64_t seq, EvKind,
                         const EventArg &) {
        seen.emplace_back(id, when, seq);
    });
    std::vector<Key> want;
    for (const ModelEvent &e : model)
        want.emplace_back(e.id, e.when, e.order);
    std::sort(seen.begin(), seen.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(seen.size(), q.pending());
    EXPECT_EQ(seen, want);
}

} // namespace

// ---------------------------------------------------------------------
// Equal-timestamp FIFO order survives arbitrary interleavings
// ---------------------------------------------------------------------

TEST(EventQueueFuzz, InterleavedOpsPreserveFifoOrder)
{
    Rng rng(101);
    for (int trial = 0; trial < 40; ++trial) {
        EventQueue q;
        test::FnSink s(q);
        std::vector<ModelEvent> model;  // still-pending events
        std::vector<int> fired;         // payloads in firing order
        std::vector<EventId> firedIds;
        std::uint64_t order = 0;
        int nextPayload = 0;

        for (int op = 0; op < 300; ++op) {
            switch (rng.uniformInt(4)) {
            case 0:
            case 1: { // schedule, biased onto a handful of timestamps
                      // so equal-time collisions are the common case
                const Time when =
                    q.now() + static_cast<Time>(rng.uniformInt(3));
                const int payload = nextPayload++;
                const EventId id = s.schedule(
                    when, [payload, &fired] { fired.push_back(payload); });
                EXPECT_NE(id, kNoEvent);
                EXPECT_TRUE(q.pendingEvent(id));
                model.push_back({when, order++, id, payload});
                break;
            }
            case 2: { // cancel a random known id (pending or fired)
                if (!model.empty() && rng.chance(0.7)) {
                    const std::size_t i = rng.uniformInt(model.size());
                    EXPECT_TRUE(q.cancel(model[i].id));
                    model.erase(model.begin() +
                                static_cast<std::ptrdiff_t>(i));
                } else if (!firedIds.empty()) {
                    // Cancelling an already-fired id is a no-op.
                    const std::size_t i =
                        rng.uniformInt(firedIds.size());
                    const std::size_t before = fired.size();
                    EXPECT_FALSE(q.cancel(firedIds[i]));
                    EXPECT_EQ(fired.size(), before);
                }
                break;
            }
            default: { // runOne
                const bool hadWork = !model.empty();
                const std::size_t firedBefore = fired.size();
                EXPECT_EQ(q.runOne(), hadWork);
                if (hadWork) {
                    // The model's head: min (when, order).
                    const auto head = std::min_element(
                        model.begin(), model.end(),
                        [](const ModelEvent &a, const ModelEvent &b) {
                            if (a.when != b.when)
                                return a.when < b.when;
                            return a.order < b.order;
                        });
                    ASSERT_EQ(fired.size(), firedBefore + 1);
                    EXPECT_EQ(fired.back(), head->payload);
                    EXPECT_EQ(q.now(), head->when);
                    EXPECT_FALSE(q.pendingEvent(head->id));
                    firedIds.push_back(head->id);
                    model.erase(head);
                } else {
                    EXPECT_EQ(fired.size(), firedBefore);
                }
                break;
            }
            }

            // Bookkeeping invariants hold after every operation.
            EXPECT_EQ(q.pending(), model.size());
            EXPECT_EQ(q.empty(), model.empty());
            for (const ModelEvent &e : model)
                EXPECT_TRUE(q.pendingEvent(e.id));
        }

        // Drain: the remainder fires in exact (when, order) order.
        std::stable_sort(model.begin(), model.end(),
                         [](const ModelEvent &a, const ModelEvent &b) {
                             if (a.when != b.when)
                                 return a.when < b.when;
                             return a.order < b.order;
                         });
        const std::size_t firedBefore = fired.size();
        q.runAll();
        ASSERT_EQ(fired.size(), firedBefore + model.size());
        for (std::size_t i = 0; i < model.size(); ++i)
            EXPECT_EQ(fired[firedBefore + i], model[i].payload);
        EXPECT_TRUE(q.empty());
        EXPECT_EQ(q.pending(), 0u);
    }
}

// ---------------------------------------------------------------------
// Targeted corner cases the fuzz loop hits only probabilistically
// ---------------------------------------------------------------------

TEST(EventQueueFuzz, AllEventsAtOneInstantFireInScheduleOrder)
{
    EventQueue q;
    test::FnSink s(q);
    std::vector<int> fired;
    for (int i = 0; i < 100; ++i)
        s.schedule(5, [i, &fired] { fired.push_back(i); });
    q.runAll();
    ASSERT_EQ(fired.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(fired[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(q.now(), 5);
}

TEST(EventQueueFuzz, CancelledHeadRunIsSkippedNotExecuted)
{
    EventQueue q;
    test::FnSink s(q);
    std::vector<int> fired;
    const EventId a = s.schedule(1, [&] { fired.push_back(1); });
    s.schedule(1, [&] { fired.push_back(2); });
    EXPECT_TRUE(q.cancel(a));
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_TRUE(q.runOne());
    ASSERT_EQ(fired, std::vector<int>{2});
    EXPECT_FALSE(q.runOne());
    // Double-cancel and cancel-after-fire are both no-ops.
    EXPECT_FALSE(q.cancel(a));
    EXPECT_FALSE(q.cancel(kNoEvent));
}

TEST(EventQueueFuzz, ScheduleFromCallbackAtSameInstant)
{
    // An event scheduling another event at now() must run it after
    // every already-queued event at that instant (sequence order).
    EventQueue q;
    test::FnSink s(q);
    std::vector<int> fired;
    s.schedule(3, [&] {
        fired.push_back(1);
        s.schedule(3, [&] { fired.push_back(3); });
    });
    s.schedule(3, [&] { fired.push_back(2); });
    q.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueFuzz, CancelStormThenDrain)
{
    // Schedule a burst, cancel most of it, and make sure the cancelled
    // events neither fire nor linger in the counts.
    Rng rng(13);
    EventQueue q;
    test::FnSink s(q);
    std::vector<EventId> ids;
    std::vector<int> fired;
    for (int i = 0; i < 500; ++i)
        ids.push_back(s.schedule(
            static_cast<Time>(i % 7), [i, &fired] { fired.push_back(i); }));
    std::size_t live = ids.size();
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (rng.chance(0.9)) {
            EXPECT_TRUE(q.cancel(ids[i]));
            --live;
            // Cancelling twice reports false and changes nothing.
            EXPECT_FALSE(q.cancel(ids[i]));
            EXPECT_EQ(q.pending(), live);
        }
    }
    q.runAll();
    EXPECT_EQ(fired.size(), live);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueFuzz, ForEachPendingAfterCancelStormMatchesModel)
{
    // After a storm of out-of-order cancels, the checkpoint walk sees
    // exactly the pending events, with their ids and heap keys intact.
    Rng rng(29);
    EventQueue q;
    test::FnSink s(q);
    std::vector<ModelEvent> model;
    std::vector<int> fired;
    for (int i = 0; i < 600; ++i) {
        const Time when = static_cast<Time>(rng.uniformInt(40));
        const EventId id =
            s.schedule(when, [i, &fired] { fired.push_back(i); });
        model.push_back({when, static_cast<std::uint64_t>(i), id, i});
    }
    for (int round = 0; round < 4; ++round) {
        for (std::size_t n = model.size() / 2; n > 0; --n) {
            const std::size_t i = rng.uniformInt(model.size());
            EXPECT_TRUE(q.cancel(model[i].id));
            model.erase(model.begin() + static_cast<std::ptrdiff_t>(i));
        }
        EXPECT_EQ(q.pending(), model.size());
        expectPendingMatchesModel(q, model);
    }
    std::sort(model.begin(), model.end(), modelBefore);
    q.runAll();
    ASSERT_EQ(fired.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i)
        EXPECT_EQ(fired[i], model[i].payload);
}

namespace {

/**
 * The kernel's traffic: a small set of pending work events, each of
 * which fires, schedules its successor and arms a far-future watchdog;
 * watchdogs are cancelled later in no particular order, some from
 * inside a callback, and some work is cancelled at the very instant it
 * was due. Every firing is checked against the model's head.
 */
class WatchdogTrial
{
  public:
    explicit WatchdogTrial(std::uint64_t seed) : rng_(seed) {}

    void
    run(int steps)
    {
        for (int i = 0; i < 16; ++i)
            add(static_cast<Time>(rng_.uniformInt(3)), false);
        for (int step = 0; step < steps; ++step) {
            runOneAgainstModel();
            if (step % 64 == 0)
                expectPendingMatchesModel(q_, model_);
        }
        // Stop the work, out of order, then let the armed watchdogs
        // fire: they must come out in (time, sequence) order.
        while (!work_.empty())
            cancelPayload(takeRandom(work_));
        expectPendingMatchesModel(q_, model_);
        for (std::size_t armed = model_.size(); armed > 0; --armed)
            runOneAgainstModel();
        EXPECT_FALSE(q_.runOne());
        EXPECT_TRUE(q_.empty());
        EXPECT_GT(sameInstantCancels_, 0u);
        EXPECT_GT(watchdogsFired_, 0u);
    }

  private:
    static constexpr Time kWatchdog = 10 * kSec;

    void
    add(Time when, bool watchdog)
    {
        const int payload = nextPayload_++;
        const EventId id = s_.schedule(
            when, [this, payload, watchdog] { fire(payload, watchdog); });
        model_.push_back({when, order_++, id, payload});
        (watchdog ? watchdogs_ : work_).push_back(payload);
    }

    int
    takeRandom(std::vector<int> &from)
    {
        const std::size_t i = rng_.uniformInt(from.size());
        const int payload = from[i];
        from.erase(from.begin() + static_cast<std::ptrdiff_t>(i));
        return payload;
    }

    void
    cancelPayload(int payload)
    {
        const auto it = std::find_if(
            model_.begin(), model_.end(),
            [payload](const ModelEvent &e) { return e.payload == payload; });
        ASSERT_NE(it, model_.end());
        EXPECT_TRUE(q_.cancel(it->id));
        EXPECT_FALSE(q_.pendingEvent(it->id));
        model_.erase(it);
    }

    void
    fire(int payload, bool watchdog)
    {
        fired_.push_back(payload);
        std::vector<int> &mine = watchdog ? watchdogs_ : work_;
        const auto it = std::find(mine.begin(), mine.end(), payload);
        ASSERT_NE(it, mine.end());
        mine.erase(it);
        if (watchdog) {
            ++watchdogsFired_;
            return;
        }
        const Time now = q_.now();
        add(now + static_cast<Time>(rng_.uniformInt(3)), false);
        // A few watchdogs are armed with a short fuse so that some
        // reach the head while the work is still running.
        add(now + (rng_.chance(0.02) ? 2 : kWatchdog), true);
        // Completions arrive in any order: cancel random watchdogs
        // until only a handful are armed.
        const std::size_t keep = 2 + rng_.uniformInt(6);
        while (watchdogs_.size() > keep)
            cancelPayload(takeRandom(watchdogs_));
        // Cancel a work event due at this very instant, and replace it
        // so the pending set keeps its size.
        if (rng_.chance(0.3)) {
            for (const ModelEvent &e : model_) {
                if (e.when == now &&
                    std::find(work_.begin(), work_.end(), e.payload) !=
                        work_.end()) {
                    const int victim = e.payload;
                    work_.erase(
                        std::find(work_.begin(), work_.end(), victim));
                    cancelPayload(victim);
                    add(now + 1 + static_cast<Time>(rng_.uniformInt(3)),
                        false);
                    ++sameInstantCancels_;
                    break;
                }
            }
        }
    }

    void
    runOneAgainstModel()
    {
        ASSERT_FALSE(model_.empty());
        const auto head =
            std::min_element(model_.begin(), model_.end(), modelBefore);
        const ModelEvent expect = *head;
        model_.erase(head);
        const std::size_t firedBefore = fired_.size();
        EXPECT_EQ(q_.nextEventTime(), expect.when);
        ASSERT_TRUE(q_.runOne());
        ASSERT_GT(fired_.size(), firedBefore);
        EXPECT_EQ(fired_[firedBefore], expect.payload);
        EXPECT_EQ(q_.now(), expect.when);
        EXPECT_FALSE(q_.pendingEvent(expect.id));
        EXPECT_EQ(q_.pending(), model_.size());
    }

    EventQueue q_;
    test::FnSink s_{q_};
    Rng rng_;
    std::vector<ModelEvent> model_; // pending per the model
    std::vector<int> work_;         // payloads of pending work events
    std::vector<int> watchdogs_;    // payloads of armed watchdogs
    std::vector<int> fired_;
    std::uint64_t order_ = 0;
    int nextPayload_ = 0;
    std::size_t sameInstantCancels_ = 0;
    std::size_t watchdogsFired_ = 0;
};

} // namespace

TEST(EventQueueFuzz, WatchdogTrafficMatchesModel)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        SCOPED_TRACE(seed);
        WatchdogTrial(seed).run(3000);
    }
}
