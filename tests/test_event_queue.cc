/**
 * @file
 * Unit tests for the discrete-event engine.
 */

#include <gtest/gtest.h>

#include <vector>

#include "src/sim/event_queue.hh"
#include "tests/fn_sink.hh"

using namespace piso;

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(q.runOne());
    EXPECT_EQ(q.nextEventTime(), kTimeNever);
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    test::FnSink s(q);
    std::vector<int> order;
    s.schedule(30, [&] { order.push_back(3); });
    s.schedule(10, [&] { order.push_back(1); });
    s.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, SameTimeEventsFireInScheduleOrder)
{
    EventQueue q;
    test::FnSink s(q);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        s.schedule(5, [&order, i] { order.push_back(i); });
    q.runAll();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NowAdvancesToFiringTime)
{
    EventQueue q;
    test::FnSink s(q);
    Time seen = 0;
    s.schedule(123, [&] { seen = q.now(); });
    q.runAll();
    EXPECT_EQ(seen, 123u);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    test::FnSink s(q);
    Time seen = 0;
    s.schedule(100, [&] {
        s.scheduleAfter(50, [&] { seen = q.now(); });
    });
    q.runAll();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    test::FnSink s(q);
    bool ran = false;
    EventId id = s.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    q.runAll();
    EXPECT_FALSE(ran);
    EXPECT_EQ(q.now(), 0u); // cancelled events do not advance time
}

TEST(EventQueue, CancelIsIdempotent)
{
    EventQueue q;
    test::FnSink s(q);
    EventId id = s.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id));
    EXPECT_FALSE(q.cancel(kNoEvent));
}

TEST(EventQueue, CancelAfterFiringReturnsFalse)
{
    EventQueue q;
    test::FnSink s(q);
    EventId id = s.schedule(10, [] {});
    q.runAll();
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, PendingTracksLiveEvents)
{
    EventQueue q;
    test::FnSink s(q);
    EventId a = s.schedule(10, [] {});
    s.schedule(20, [] {});
    EXPECT_EQ(q.pending(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PendingEventQuery)
{
    EventQueue q;
    test::FnSink s(q);
    EventId id = s.schedule(10, [] {});
    EXPECT_TRUE(q.pendingEvent(id));
    q.runAll();
    EXPECT_FALSE(q.pendingEvent(id));
    EXPECT_FALSE(q.pendingEvent(kNoEvent));
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue q;
    test::FnSink s(q);
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            s.scheduleAfter(10, chain);
    };
    s.schedule(0, chain);
    q.runAll();
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(q.now(), 40u);
}

TEST(EventQueue, CallbackMayCancelSiblingAtSameTime)
{
    EventQueue q;
    test::FnSink s(q);
    bool second = false;
    EventId sibling = kNoEvent;
    s.schedule(10, [&] { q.cancel(sibling); });
    sibling = s.schedule(10, [&] { second = true; });
    q.runAll();
    EXPECT_FALSE(second);
}

TEST(EventQueue, RunAllHonoursLimit)
{
    EventQueue q;
    test::FnSink s(q);
    int fired = 0;
    s.schedule(10, [&] { ++fired; });
    s.schedule(20, [&] { ++fired; });
    s.schedule(30, [&] { ++fired; });
    EXPECT_EQ(q.runAll(20), 2u);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(q.now(), 20u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, NextEventTimeSkipsCancelled)
{
    EventQueue q;
    test::FnSink s(q);
    EventId a = s.schedule(10, [] {});
    s.schedule(20, [] {});
    q.cancel(a);
    EXPECT_EQ(q.nextEventTime(), 20u);
}

TEST(EventQueue, SchedulingAtNowIsAllowed)
{
    EventQueue q;
    test::FnSink s(q);
    bool ran = false;
    s.schedule(10, [&] { s.schedule(q.now(), [&] { ran = true; }); });
    q.runAll();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    test::FnSink s(q);
    Time last = 0;
    bool monotonic = true;
    for (int i = 0; i < 5000; ++i) {
        const Time when = static_cast<Time>((i * 7919) % 1000);
        s.schedule(when, [&, when] {
            monotonic = monotonic && when >= last;
            last = when;
        });
    }
    q.runAll();
    EXPECT_TRUE(monotonic);
}
