/**
 * @file
 * Tests for the EventQueue's generation-counted slab.
 *
 * EventIds encode (slot, generation); slots are recycled after a
 * cancel or an execution, and the generation bump is what makes a
 * stale id — one whose slot has since been reused — harmless. These
 * tests pin that lifecycle (reuse, stale rejection, the executed-event
 * counter), cancel entries at known places in the slot-indexed heap,
 * and fuzz the whole thing against the same sorted-list model
 * test_event_queue_fuzz uses, with extra stale-id probing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "src/sim/event_queue.hh"
#include "tests/fn_sink.hh"
#include "src/sim/random.hh"

using namespace piso;

namespace {

/** Slot and generation halves of an id (mirrors the queue's private
 *  encoding — this file deliberately tests that representation). */
std::uint32_t
slotOf(EventId id)
{
    return static_cast<std::uint32_t>(id & 0xffffffffull);
}

std::uint32_t
genOf(EventId id)
{
    return static_cast<std::uint32_t>(id >> 32);
}

} // namespace

// ---------------------------------------------------------------------
// Slot recycling and generation bumps
// ---------------------------------------------------------------------

TEST(EventQueueSlab, CancelRecyclesTheSlotWithANewGeneration)
{
    EventQueue q;
    test::FnSink s(q);
    const EventId a = s.schedule(1, [] {});
    ASSERT_NE(a, kNoEvent);
    EXPECT_TRUE(q.cancel(a));

    // A single-slot queue must hand the same slot back, under a newer
    // generation, so the stale id can never alias the new event.
    const EventId b = s.schedule(2, [] {});
    EXPECT_NE(b, a);
    EXPECT_EQ(slotOf(b), slotOf(a));
    EXPECT_GT(genOf(b), genOf(a));

    EXPECT_FALSE(q.pendingEvent(a));
    EXPECT_TRUE(q.pendingEvent(b));
}

TEST(EventQueueSlab, ExecutionRecyclesTheSlotWithANewGeneration)
{
    EventQueue q;
    test::FnSink s(q);
    int fired = 0;
    const EventId a = s.schedule(1, [&] { ++fired; });
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(fired, 1);

    const EventId b = s.schedule(2, [&] { ++fired; });
    EXPECT_EQ(slotOf(b), slotOf(a));
    EXPECT_GT(genOf(b), genOf(a));

    // The stale id is inert: not pending, and cancelling it neither
    // succeeds nor disturbs the live event in the reused slot.
    EXPECT_FALSE(q.pendingEvent(a));
    EXPECT_FALSE(q.cancel(a));
    EXPECT_TRUE(q.pendingEvent(b));
    EXPECT_EQ(q.pending(), 1u);

    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueSlab, StaleIdSurvivesManyReuses)
{
    // Recycle one slot through many generations; every retired id must
    // stay rejected even as the generation counter climbs.
    EventQueue q;
    test::FnSink s(q);
    std::vector<EventId> retired;
    EventId live = s.schedule(1, [] {});
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(q.cancel(live));
        retired.push_back(live);
        live = s.schedule(static_cast<Time>(i + 2), [] {});
        EXPECT_EQ(slotOf(live), slotOf(retired.front()));
        for (const EventId id : retired) {
            EXPECT_FALSE(q.pendingEvent(id));
            EXPECT_FALSE(q.cancel(id));
        }
        EXPECT_TRUE(q.pendingEvent(live));
    }
}

TEST(EventQueueSlab, IdsAreNeverNoEvent)
{
    // kNoEvent (0) is the sentinel; the encoding (slot+1 in the low
    // half) must keep every real id distinct from it, including the
    // very first slot.
    EventQueue q;
    test::FnSink s(q);
    for (int i = 0; i < 64; ++i)
        EXPECT_NE(s.schedule(1, [] {}), kNoEvent);
    EXPECT_FALSE(q.pendingEvent(kNoEvent));
    EXPECT_FALSE(q.cancel(kNoEvent));
}

// ---------------------------------------------------------------------
// executedEvents() counts executions, not schedules or cancels
// ---------------------------------------------------------------------

TEST(EventQueueSlab, ExecutedEventsCountsOnlyRunCallbacks)
{
    EventQueue q;
    test::FnSink s(q);
    EXPECT_EQ(q.executedEvents(), 0u);

    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(s.schedule(static_cast<Time>(i + 1), [] {}));
    EXPECT_EQ(q.executedEvents(), 0u);  // scheduling doesn't count

    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    EXPECT_EQ(q.executedEvents(), 0u);  // neither does cancelling

    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.executedEvents(), 1u);

    q.runAll();
    EXPECT_EQ(q.executedEvents(), 6u);  // 10 scheduled - 4 cancelled

    // The counter is cumulative across the queue's life.
    s.schedule(q.now() + 1, [] {});
    q.runAll();
    EXPECT_EQ(q.executedEvents(), 7u);
}

// ---------------------------------------------------------------------
// Fuzz parity with the reference model, plus stale-id probing
// ---------------------------------------------------------------------

namespace {

struct ModelEvent
{
    Time when;
    std::uint64_t order;
    EventId id;
    int payload;
};

} // namespace

TEST(EventQueueSlab, FuzzReuseParityWithModel)
{
    Rng rng(77);
    for (int trial = 0; trial < 20; ++trial) {
        EventQueue q;
        test::FnSink s(q);
        std::vector<ModelEvent> model;    // pending per the model
        std::vector<EventId> retired;     // cancelled or fired ids
        std::vector<int> fired;
        std::uint64_t order = 0;
        int nextPayload = 0;

        for (int op = 0; op < 400; ++op) {
            switch (rng.uniformInt(4)) {
            case 0:
            case 1: { // schedule onto a few timestamps (forces both
                      // slot reuse and equal-time FIFO collisions)
                const Time when =
                    q.now() + static_cast<Time>(rng.uniformInt(3));
                const int payload = nextPayload++;
                const EventId id = s.schedule(
                    when, [payload, &fired] { fired.push_back(payload); });
                EXPECT_NE(id, kNoEvent);
                model.push_back({when, order++, id, payload});
                break;
            }
            case 2: { // cancel a pending event
                if (model.empty())
                    break;
                const std::size_t i = rng.uniformInt(model.size());
                EXPECT_TRUE(q.cancel(model[i].id));
                retired.push_back(model[i].id);
                model.erase(model.begin() +
                            static_cast<std::ptrdiff_t>(i));
                break;
            }
            default: { // runOne
                const bool hadWork = !model.empty();
                EXPECT_EQ(q.runOne(), hadWork);
                if (hadWork) {
                    const auto head = std::min_element(
                        model.begin(), model.end(),
                        [](const ModelEvent &a, const ModelEvent &b) {
                            if (a.when != b.when)
                                return a.when < b.when;
                            return a.order < b.order;
                        });
                    ASSERT_FALSE(fired.empty());
                    EXPECT_EQ(fired.back(), head->payload);
                    retired.push_back(head->id);
                    model.erase(head);
                }
                break;
            }
            }

            EXPECT_EQ(q.pending(), model.size());
            EXPECT_EQ(q.executedEvents(),
                      static_cast<std::uint64_t>(fired.size()));
            for (const ModelEvent &e : model)
                EXPECT_TRUE(q.pendingEvent(e.id));

            // Every retired id stays dead no matter how often its slot
            // has been recycled since (probe a random sample).
            for (int probe = 0; probe < 4 && !retired.empty(); ++probe) {
                const EventId id =
                    retired[rng.uniformInt(retired.size())];
                EXPECT_FALSE(q.pendingEvent(id));
                EXPECT_FALSE(q.cancel(id));
            }
        }

        // Drain and verify the tail order one last time.
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
        EXPECT_EQ(q.executedEvents(),
                  static_cast<std::uint64_t>(fired.size()));
    }
}

// ---------------------------------------------------------------------
// In-place cancellation at known heap positions
// ---------------------------------------------------------------------

TEST(EventQueueSlab, CancelInPlaceAtRootLastAndMiddle)
{
    // Each time below is at least its 4-ary parent's when it is
    // scheduled, so the heap array is exactly this order: index i has
    // children 4i+1..4i+4. Index 21 (time 15) sits under index 5
    // (time 11); index 22 (time 75) is the last element.
    const std::vector<Time> times = {0,  10, 50, 60, 70, 11, 12, 13,
                                     14, 51, 52, 53, 54, 61, 62, 63,
                                     64, 71, 72, 73, 74, 15, 75};
    EventQueue q;
    test::FnSink s(q);
    std::vector<Time> fired;
    std::map<Time, EventId> ids;
    for (const Time t : times)
        ids[t] = s.schedule(t, [t, &fired] { fired.push_back(t); });

    std::vector<Time> expect(times);
    const auto cancelTime = [&](Time t) {
        EXPECT_TRUE(q.cancel(ids.at(t)));
        EXPECT_FALSE(q.pendingEvent(ids.at(t)));
        expect.erase(std::find(expect.begin(), expect.end(), t));
        EXPECT_EQ(q.pending(), expect.size());
    };

    cancelTime(75); // the last array element: nothing moves
    cancelTime(64); // index 16: the last entry (15) must sift up past 60
    // Grow the array past index 16 so later removals refill holes from
    // these, not from wherever 15 ended up.
    for (Time t = 80; t < 90; ++t) {
        ids[t] = s.schedule(t, [t, &fired] { fired.push_back(t); });
        expect.push_back(t);
    }
    EXPECT_EQ(q.nextEventTime(), 0u);
    cancelTime(0);  // the root: the last entry must sift down
    EXPECT_EQ(q.nextEventTime(), 10u);
    cancelTime(52); // the middle of the heap
    for (Time t = 10; t < 15; ++t)
        cancelTime(t); // the root each time
    EXPECT_EQ(q.nextEventTime(), 15u);

    std::size_t visited = 0;
    q.forEachPending([&](EventId id, Time when, std::uint64_t,
                         EvKind, const EventArg &) {
        ++visited;
        EXPECT_EQ(ids.at(when), id);
    });
    EXPECT_EQ(visited, expect.size());

    q.runAll();
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(fired, expect);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueSlab, CancelFromCallbackAtSameInstant)
{
    // a fires first at t=5 and cancels b, now the heap root, and d,
    // also due at t=5, then schedules e at t=5 behind everything queued.
    EventQueue q;
    test::FnSink s(q);
    std::vector<char> fired;
    EventId b = kNoEvent;
    EventId d = kNoEvent;
    s.schedule(5, [&] {
        fired.push_back('a');
        EXPECT_EQ(q.nextEventTime(), 5u);
        EXPECT_TRUE(q.cancel(b));
        EXPECT_TRUE(q.cancel(d));
        s.schedule(5, [&] { fired.push_back('e'); });
        EXPECT_EQ(q.pending(), 3u); // c, e and f
    });
    b = s.schedule(5, [&] { fired.push_back('b'); });
    s.schedule(5, [&] { fired.push_back('c'); });
    d = s.schedule(5, [&] { fired.push_back('d'); });
    s.schedule(6, [&] { fired.push_back('f'); });
    q.runAll();
    EXPECT_EQ(fired, (std::vector<char>{'a', 'c', 'e', 'f'}));
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueSlab, ClearPendingThenRestoreFiresInOriginalOrder)
{
    // Snapshot a churned queue as a checkpoint does, wipe it with
    // clearPending(), and re-bind every event at its recorded
    // (when, seq) in a shuffled order: it drains exactly as the
    // original would have.
    Rng rng(5);
    EventQueue q;
    test::FnSink s(q);
    std::vector<int> fired;
    std::vector<EventId> ids;
    std::map<EventId, int> payloadOf;
    for (int i = 0; i < 300; ++i) {
        const EventId id =
            s.schedule(static_cast<Time>(rng.uniformInt(8)),
                       [i, &fired] { fired.push_back(i); });
        ids.push_back(id);
        payloadOf[id] = i;
    }
    for (const EventId id : ids) {
        if (rng.chance(0.4)) {
            EXPECT_TRUE(q.cancel(id));
        }
    }
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(q.runOne());

    struct Rec
    {
        Time when;
        std::uint64_t seq;
        int payload;
    };
    std::vector<Rec> recs;
    q.forEachPending([&](EventId id, Time when, std::uint64_t seq,
                         EvKind, const EventArg &) {
        recs.push_back({when, seq, payloadOf.at(id)});
    });
    ASSERT_EQ(recs.size(), q.pending());
    const Time now = q.now();
    const std::uint64_t nextSeq = q.nextSeq();
    const std::uint64_t executed = q.executedEvents();

    std::vector<Rec> expect(recs);
    std::sort(expect.begin(), expect.end(),
              [](const Rec &a, const Rec &b) {
                  return a.when != b.when ? a.when < b.when
                                          : a.seq < b.seq;
              });

    q.clearPending();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextEventTime(), kTimeNever);
    for (const EventId id : ids)
        EXPECT_FALSE(q.pendingEvent(id));

    for (std::size_t i = recs.size(); i > 1; --i)
        std::swap(recs[i - 1], recs[rng.uniformInt(i)]);
    for (const Rec &r : recs) {
        const int payload = r.payload;
        s.scheduleRestored(r.when, r.seq,
                           [payload, &fired] { fired.push_back(payload); });
    }
    q.restoreClock(now, nextSeq, executed);
    EXPECT_EQ(q.pending(), expect.size());

    const std::size_t firedBefore = fired.size();
    q.runAll();
    ASSERT_EQ(fired.size(), firedBefore + expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(fired[firedBefore + i], expect[i].payload);
    EXPECT_EQ(q.executedEvents(), executed + expect.size());
}
