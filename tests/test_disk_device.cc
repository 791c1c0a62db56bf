/**
 * @file
 * Unit tests for the DiskDevice request lifecycle and statistics.
 */

#include <gtest/gtest.h>

#include <functional>

#include "src/machine/disk.hh"
#include "src/os/cscan.hh"
#include "src/sim/event_queue.hh"

using namespace piso;

namespace {

/** Completion sink: records each completed request's tag and runs an
 *  optional hook (which may submit more work). */
class StubSink : public DiskSink
{
  public:
    void
    diskComplete(const DiskRequest &req) override
    {
        done.push_back(req.tag.slot);
        if (hook)
            hook(req);
    }

    std::vector<std::uint32_t> done;
    std::function<void(const DiskRequest &)> hook;
};

/** FIFO scheduler for deterministic lifecycle tests. */
class FifoScheduler : public DiskScheduler
{
  public:
    std::size_t
    pick(const std::deque<DiskRequest> &, std::uint64_t, Time) override
    {
        return 0;
    }
};

struct DeviceFixture : public ::testing::Test
{
    EventQueue events;
    StubSink sink;
    DiskDevice disk{events, DiskModel{},
                    std::make_unique<FifoScheduler>(), Rng(1)};

    DeviceFixture() { disk.setSink(sink); }

    DiskRequest
    request(std::uint64_t sector, std::uint32_t sectors, SpuId spu = 2,
            std::uint32_t tag = 0)
    {
        DiskRequest r;
        r.spu = spu;
        r.startSector = sector;
        r.sectors = sectors;
        r.tag.slot = tag;
        return r;
    }
};

} // namespace

TEST_F(DeviceFixture, StartsIdle)
{
    EXPECT_FALSE(disk.busy());
    EXPECT_EQ(disk.queueDepth(), 0u);
    EXPECT_EQ(disk.headSector(), 0u);
}

TEST_F(DeviceFixture, SingleRequestCompletes)
{
    disk.submit(request(1000, 8, 2, 7));
    EXPECT_TRUE(disk.busy());
    events.runAll();
    EXPECT_EQ(sink.done, (std::vector<std::uint32_t>{7}));
    EXPECT_FALSE(disk.busy());
    EXPECT_EQ(disk.headSector(), 1008u);
    EXPECT_EQ(disk.stats().requests.value(), 1u);
    EXPECT_EQ(disk.stats().sectors.value(), 8u);
}

TEST_F(DeviceFixture, RequestsAssignedUniqueIds)
{
    const auto a = disk.submit(request(0, 8));
    const auto b = disk.submit(request(100, 8));
    EXPECT_NE(a, b);
    events.runAll();
}

TEST_F(DeviceFixture, FifoOrderWithFifoScheduler)
{
    for (std::uint32_t i = 0; i < 3; ++i)
        disk.submit(request(std::uint64_t{i} * 5000, 8, 2, i));
    events.runAll();
    EXPECT_EQ(sink.done, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST_F(DeviceFixture, WaitTimeGrowsWithQueue)
{
    for (int i = 0; i < 5; ++i)
        disk.submit(request(static_cast<std::uint64_t>(i) * 100000, 64));
    events.runAll();
    // The last request waited for four service times; mean wait > 0.
    EXPECT_GT(disk.stats().waitMs.mean(), 0.0);
    EXPECT_GT(disk.stats().waitMs.max(), disk.stats().waitMs.min());
}

TEST_F(DeviceFixture, PerSpuStatsSeparate)
{
    disk.submit(request(0, 8, 2));
    disk.submit(request(100000, 16, 3));
    events.runAll();
    EXPECT_EQ(disk.spuStats(2).requests.value(), 1u);
    EXPECT_EQ(disk.spuStats(2).sectors.value(), 8u);
    EXPECT_EQ(disk.spuStats(3).sectors.value(), 16u);
    EXPECT_EQ(disk.spuStats(99).requests.value(), 0u);
}

TEST_F(DeviceFixture, BusyTimeAccumulates)
{
    disk.submit(request(50000, 8));
    events.runAll();
    EXPECT_GT(disk.stats().busyTime, 0u);
    EXPECT_LE(disk.stats().busyTime, events.now());
}

TEST_F(DeviceFixture, CompletionMaySubmitMore)
{
    sink.hook = [&](const DiskRequest &req) {
        if (req.tag.slot == 1)
            disk.submit(request(90000, 8, 2, 2));
    };
    disk.submit(request(0, 8, 2, 1));
    events.runAll();
    EXPECT_EQ(sink.done, (std::vector<std::uint32_t>{1, 2}));
}

TEST_F(DeviceFixture, KilledDeviceFailsEveryRequestInOrder)
{
    // Request 0 is in service when the disk dies; 1 and 2 are queued
    // and fail at once, in queue order, then 0 fails at the end of its
    // service time. A request submitted to the dead disk fails too.
    std::vector<bool> failed;
    sink.hook = [&](const DiskRequest &req) { failed.push_back(req.failed); };
    for (std::uint32_t i = 0; i < 3; ++i)
        disk.submit(request(std::uint64_t{i} * 5000, 8, 2, i));
    disk.kill();
    disk.submit(request(20000, 8, 2, 3));
    EXPECT_EQ(disk.queueDepth(), 0u);
    events.runAll();
    EXPECT_EQ(sink.done, (std::vector<std::uint32_t>{1, 2, 3, 0}));
    EXPECT_EQ(failed, (std::vector<bool>(4, true)));
    EXPECT_EQ(disk.stats().errors.value(), 4u);
    EXPECT_FALSE(disk.busy());
}

TEST_F(DeviceFixture, SchedulerSwapRequiresIdle)
{
    disk.submit(request(0, 8));
    EXPECT_THROW(disk.setScheduler(std::make_unique<FifoScheduler>()),
                 std::runtime_error);
    events.runAll();
    EXPECT_NO_THROW(disk.setScheduler(std::make_unique<FifoScheduler>()));
}

TEST_F(DeviceFixture, SequentialStreamIsFasterThanScattered)
{
    // Contiguous stream: each request continues at the head (no seek,
    // no rotation). Scattered requests pay positioning every time.
    EventQueue ev2;
    DiskDevice seq{ev2, DiskModel{}, std::make_unique<FifoScheduler>(),
                   Rng(2)};
    seq.setSink(sink);
    std::uint64_t pos = 0;
    for (int i = 0; i < 20; ++i) {
        DiskRequest r;
        r.spu = 2;
        r.startSector = pos;
        r.sectors = 64;
        pos += 64;
        seq.submit(std::move(r));
    }
    ev2.runAll();
    const Time seqTime = ev2.now();

    EventQueue ev3;
    DiskDevice scat{ev3, DiskModel{}, std::make_unique<FifoScheduler>(),
                    Rng(2)};
    scat.setSink(sink);
    for (int i = 0; i < 20; ++i) {
        DiskRequest r;
        r.spu = 2;
        r.startSector =
            (static_cast<std::uint64_t>(i) * 997 * 1368) % 2000000;
        r.sectors = 64;
        scat.submit(std::move(r));
    }
    ev3.runAll();
    EXPECT_LT(seqTime, ev3.now() / 2);
}

TEST(DiskDevice, RejectsZeroLengthRequest)
{
    EventQueue events;
    DiskDevice disk{events, DiskModel{},
                    std::make_unique<FifoScheduler>(), Rng(1)};
    StubSink sink;
    disk.setSink(sink);
    DiskRequest r;
    r.sectors = 0;
    EXPECT_DEATH(disk.submit(std::move(r)), "zero-length");
}
