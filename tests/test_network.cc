/**
 * @file
 * Tests for the network-bandwidth isolation extension (the paper's
 * Section 5 sketch: disk-style fairness without head position).
 */

#include <gtest/gtest.h>

#include <random>

#include "src/piso.hh"
#include "tests/decay_ref_util.hh"

using namespace piso;

namespace {

NetMessage
msg(SpuId spu, std::uint64_t bytes, std::uint32_t tag = 0)
{
    NetMessage m;
    m.spu = spu;
    m.bytes = bytes;
    m.tag.slot = tag;
    return m;
}

/** Completion sink recording each transmitted message's SPU and tag. */
class StubSink : public NetSink
{
  public:
    void
    netComplete(const NetMessage &m) override
    {
        spus.push_back(m.spu);
        tags.push_back(m.tag.slot);
    }

    std::vector<SpuId> spus;
    std::vector<std::uint32_t> tags;
};

} // namespace

TEST(NetworkInterface, TransmitTimeMatchesBandwidth)
{
    EventQueue events;
    // 10 Mbit/s, zero overhead: 1250 bytes = 1 ms.
    NetworkInterface net(events, 10e6,
                         std::make_unique<FifoNetScheduler>(), "n", 0);
    EXPECT_EQ(net.transmitTime(1250), kMs);
}

TEST(NetworkInterface, OverheadAdds)
{
    EventQueue events;
    NetworkInterface net(events, 10e6,
                         std::make_unique<FifoNetScheduler>(), "n",
                         50 * kUs);
    EXPECT_EQ(net.transmitTime(1250), kMs + 50 * kUs);
}

TEST(NetworkInterface, SingleMessageCompletes)
{
    EventQueue events;
    NetworkInterface net(events, 10e6,
                         std::make_unique<FifoNetScheduler>());
    StubSink sink;
    net.setSink(sink);
    net.submit(msg(2, 1250, 9));
    EXPECT_TRUE(net.busy());
    events.runAll();
    EXPECT_EQ(sink.tags, (std::vector<std::uint32_t>{9}));
    EXPECT_FALSE(net.busy());
    EXPECT_EQ(net.spuStats(2).bytes.value(), 1250u);
    EXPECT_EQ(net.totalMessages(), 1u);
}

TEST(NetworkInterface, FifoOrder)
{
    EventQueue events;
    NetworkInterface net(events, 10e6,
                         std::make_unique<FifoNetScheduler>());
    StubSink sink;
    net.setSink(sink);
    for (std::uint32_t i = 0; i < 3; ++i)
        net.submit(msg(2 + static_cast<SpuId>(i), 1000, i));
    events.runAll();
    EXPECT_EQ(sink.tags, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(NetworkInterface, RejectsBadConfig)
{
    EventQueue events;
    EXPECT_THROW(NetworkInterface(events, 0.0,
                                  std::make_unique<FifoNetScheduler>()),
                 std::runtime_error);
    EXPECT_THROW(NetworkInterface(events, 1e6, nullptr),
                 std::runtime_error);
}

TEST(FairNetScheduler, AlternatesBetweenEqualSpus)
{
    EventQueue events;
    auto sched = std::make_unique<FairNetScheduler>();
    FairNetScheduler *fair = sched.get();
    NetworkInterface net(events, 10e6, std::move(sched));
    StubSink sink;
    net.setSink(sink);
    fair->tracker().setShare(2, 1.0);
    fair->tracker().setShare(3, 1.0);

    for (int i = 0; i < 4; ++i) {
        // SPU 2 floods 2:1, but service should alternate ~1:1.
        for (SpuId spu : {SpuId{2}, SpuId{2}, SpuId{3}})
            net.submit(msg(spu, 2000));
    }
    events.runAll();
    const std::vector<SpuId> &order = sink.spus;
    // Count SPU 3 messages in the first half of completions: strict
    // FIFO would leave most of them at the back.
    int spu3First = 0;
    for (std::size_t i = 0; i < order.size() / 2; ++i)
        spu3First += order[i] == 3 ? 1 : 0;
    EXPECT_GE(spu3First, 3); // nearly all of SPU 3 is served early
}

TEST(FairNetScheduler, SharesWeightService)
{
    EventQueue events;
    auto sched = std::make_unique<FairNetScheduler>();
    FairNetScheduler *fair = sched.get();
    NetworkInterface net(events, 10e6, std::move(sched));
    StubSink sink;
    net.setSink(sink);
    fair->tracker().setShare(2, 3.0);
    fair->tracker().setShare(3, 1.0);

    // Both SPUs keep 20 equal messages queued.
    for (int i = 0; i < 20; ++i) {
        for (SpuId spu : {SpuId{2}, SpuId{3}})
            net.submit(msg(spu, 4000));
    }
    events.runAll();
    const std::vector<SpuId> &order = sink.spus;
    // In the first 12 services, the 3-share SPU should get about 3x.
    int a = 0, b = 0;
    for (std::size_t i = 0; i < 12; ++i)
        (order[i] == 2 ? a : b)++;
    EXPECT_GE(a, 7);
    EXPECT_GE(b, 2);
}

TEST(NetworkKernel, SendActionBlocksForTransmission)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 16 * kMiB;
    cfg.scheme = Scheme::PIso;
    cfg.networkBitsPerSec = 10e6;
    cfg.seed = 3;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    // 1 MB at 10 Mbit/s ~ 0.84 s on the wire.
    sim.addJob(u, makeScriptJob("send", {SendAction{1 << 20}}));
    const SimResults r = sim.run();
    ASSERT_TRUE(r.completed);
    EXPECT_NEAR(r.job("send").responseSec(), 0.84, 0.05);
    ASSERT_NE(sim.network(), nullptr);
    EXPECT_EQ(sim.network()->spuStats(u).bytes.value(), 1u << 20);
}

TEST(NetworkKernel, SendWithoutNetworkIsFatal)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 16 * kMiB;
    cfg.scheme = Scheme::PIso;
    cfg.seed = 3;
    Simulation sim(cfg);
    const SpuId u = sim.addSpu({.name = "u"});
    sim.addJob(u, makeScriptJob("send", {SendAction{1024}}));
    EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(NetworkKernel, FairLinkProtectsInteractiveSender)
{
    // A bulk sender floods the link; an interactive sender pushes
    // small messages. FIFO (Smp) queues the small messages behind the
    // flood; the fair link (PIso) serves them promptly.
    auto run = [](Scheme scheme) {
        SystemConfig cfg;
        cfg.cpus = 2;
        cfg.memoryBytes = 16 * kMiB;
        cfg.scheme = scheme;
        cfg.networkBitsPerSec = 10e6;
        cfg.seed = 5;
        Simulation sim(cfg);
        const SpuId bulk = sim.addSpu({.name = "bulk"});
        const SpuId inter = sim.addSpu({.name = "inter"});

        // Four concurrent bulk streams keep the transmit queue deep.
        for (int j = 0; j < 4; ++j) {
            std::vector<Action> flood;
            for (int i = 0; i < 16; ++i)
                flood.push_back(SendAction{256 * 1024});
            sim.addJob(bulk, makeScriptJob("flood" + std::to_string(j),
                                           std::move(flood)));
        }

        std::vector<Action> chat;
        for (int i = 0; i < 20; ++i) {
            chat.push_back(SendAction{2 * 1024});
            chat.push_back(SleepAction{10 * kMs});
        }
        sim.addJob(inter, makeScriptJob("chat", std::move(chat)));
        return sim.run().job("chat").responseSec();
    };
    const double fifo = run(Scheme::Smp);
    const double fair = run(Scheme::PIso);
    EXPECT_LT(fair, 0.5 * fifo);
}

// ---------------------------------------------------------------------------
// Lazy-decay equivalence: the fair scheduler's per-SPU byte counters
// fold their exponential decay lazily on read; prove that equals the
// eager periodic-sweep reference to 1 ulp over randomized completion
// sequences (satellite of the big-machine scaling PR; the disk twin
// lives in test_disk_fair.cc).

TEST(FairNetSchedulerProperty, LazyDecayMatchesEagerSweepTo1Ulp)
{
    const Time halfLife = 500 * kMs;
    for (std::uint64_t seed : {5u, 17u, 71u}) {
        FairNetScheduler sched(halfLife);
        piso::testutil::EagerDecayRef ref(halfLife);
        std::mt19937_64 rng(seed);
        std::uniform_int_distribution<int> spuDist(2, 6);
        std::uniform_int_distribution<Time> gapDist(1, 1200 * kUs);
        std::uniform_int_distribution<std::uint64_t> byteDist(64,
                                                             65536);

        Time now = 0;
        for (int op = 0; op < 4000; ++op) {
            now += gapDist(rng);
            const SpuId spu = static_cast<SpuId>(spuDist(rng));
            if (op % 3 != 2) {
                const std::uint64_t bytes = byteDist(rng);
                sched.onComplete(msg(spu, bytes), now);
                ref.add(spu, bytes, now);
            }
            const double lazy = sched.tracker().usage(spu, now);
            const double eager = ref.usage(spu, now);
            ASSERT_LE(piso::testutil::ulpDistance(lazy, eager), 1)
                << "seed " << seed << " op " << op << ": lazy " << lazy
                << " vs eager " << eager;
        }
    }
}
