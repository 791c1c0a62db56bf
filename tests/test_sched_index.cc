/**
 * @file
 * The per-SPU CPU index against the full-scan scheduler it replaced.
 *
 * A scheduler and its FullScanRef twin (tests/sched_ref_util.hh) are
 * driven through the same seeded steps — ready, block, exit, time
 * advance and ticks, with repartitions, CPUs going offline and online,
 * loan hold-offs, IPI revocation and checkpoint save/load mixed in —
 * and must agree on every CPU's occupant and revocation state after
 * every step and every event. Alongside: the index matches the CPUs'
 * ownership fields, idle online CPUs never carry a pending revocation
 * (what makes skipping the tick's idle pass exact), and a Quo wake-up
 * asks eligibleIdle about no more CPUs than its SPU holds a share on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/core/sched_piso.hh"
#include "src/core/sched_quota.hh"
#include "src/os/sched_smp.hh"
#include "src/sim/checkpoint.hh"
#include "src/sim/random.hh"
#include "tests/sched_ref_util.hh"
#include "tests/sched_test_util.hh"

using namespace piso;
using piso::test::FakeClient;
using piso::testutil::cpuIndexFromCpus;
using piso::testutil::FullScanRef;
using piso::testutil::pathKinship;

namespace {

constexpr SpuId kFirstSpu = 2;

/** One scheduler with its own queue, client and processes. */
template <class Sched>
struct Side
{
    explicit Side(int cpus) : sched(events, cpus) {}

    EventQueue events;
    Sched sched;
    FakeClient client{events, sched};
    std::vector<Process *> procs;  ///< index = pid - 1

    Process *
    byPid(Pid pid) const
    {
        return procs.at(static_cast<std::size_t>(pid - 1));
    }
};

/** One of @p n SPU ids from kFirstSpu up. */
SpuId
randomSpu(Rng &rng, int n)
{
    const auto i = rng.uniformInt(static_cast<std::uint64_t>(n));
    return kFirstSpu + static_cast<SpuId>(i);
}

/** Random shares over @p spus SPUs from kFirstSpu up: fractional
 *  values, some SPUs left without a share. */
SpuTable<double>
randomShares(Rng &rng, int spus)
{
    SpuTable<double> shares;
    for (int i = 0; i < spus; ++i) {
        if (rng.chance(0.15))
            continue;
        shares[kFirstSpu + i] = rng.uniformRange(0.05, 2.5);
    }
    if (shares.empty())
        shares[kFirstSpu] = 1.0;
    return shares;
}

/** A random SPU tree: leaves under groups, groups under supergroups. */
SpuTable<SpuId>
randomTree(Rng &rng, int spus)
{
    SpuTable<SpuId> parents;
    const int groups = std::max(2, spus / 8);
    const SpuId firstGroup = kFirstSpu + spus;
    const SpuId firstSuper = firstGroup + groups;
    for (int i = 0; i < spus; ++i) {
        if (rng.chance(0.1))
            continue;  // a top-level leaf
        parents[kFirstSpu + i] = firstGroup +
            static_cast<SpuId>(rng.uniformInt(
                static_cast<std::uint64_t>(groups)));
    }
    for (int g = 0; g < groups; ++g) {
        if (rng.chance(0.5))
            parents[firstGroup + g] =
                firstSuper + static_cast<SpuId>(rng.uniformInt(2));
    }
    return parents;
}

template <class Sched>
void
expectIndexMatchesCpus(const Sched &s, int spus, const std::string &where)
{
    const auto ref = cpuIndexFromCpus(s);
    EXPECT_EQ(s.unownedCpus(), ref.unowned) << where;
    for (SpuId spu = 0; spu < kFirstSpu + spus + 2; ++spu) {
        const std::vector<CpuId> *want = ref.own.find(spu);
        EXPECT_EQ(s.cpusOf(spu), want ? *want : std::vector<CpuId>{})
            << where << " spu " << spu;
    }
}

/** Skipping the tick's idle pass is exact only while this holds. */
void
expectIdleCpusNotPending(const CpuScheduler &s, const std::string &where)
{
    for (CpuId id = 0; id < s.numCpus(); ++id) {
        const Cpu &c = s.cpu(id);
        EXPECT_FALSE(c.online && !c.running && c.revokePending)
            << where << " cpu" << id;
    }
}

template <class A, class B>
bool
sameState(const Side<A> &a, const Side<B> &b, int spus,
          const std::string &where)
{
    const auto fail = [&](const std::string &what) {
        ADD_FAILURE() << where << ": " << what;
        return false;
    };
    if (a.events.now() != b.events.now())
        return fail("clock");
    for (CpuId id = 0; id < a.sched.numCpus(); ++id) {
        const Cpu &x = a.sched.cpu(id);
        const Cpu &y = b.sched.cpu(id);
        const Pid px = x.running ? x.running->pid() : kNoPid;
        const Pid py = y.running ? y.running->pid() : kNoPid;
        if (px != py)
            return fail("cpu" + std::to_string(id) + " runs pid " +
                        std::to_string(px) + ", reference " +
                        std::to_string(py));
        if (x.online != y.online || x.loaned != y.loaned ||
            x.revokePending != y.revokePending ||
            x.homeSpu != y.homeSpu || x.noLoanBefore != y.noLoanBefore ||
            x.lastSpu != y.lastSpu || x.busyTime != y.busyTime ||
            x.idleTime != y.idleTime)
            return fail("cpu" + std::to_string(id) + " state");
    }
    if (a.procs.size() != b.procs.size())
        return fail("process count");
    for (std::size_t i = 0; i < a.procs.size(); ++i) {
        const Process &x = *a.procs[i];
        const Process &y = *b.procs[i];
        if (x.state() != y.state() || x.runningOn != y.runningOn ||
            x.cpuTime != y.cpuTime)
            return fail("pid " + std::to_string(x.pid()));
    }
    if constexpr (std::is_base_of_v<QuotaScheduler, A>) {
        for (SpuId spu = 0; spu < kFirstSpu + spus + 1; ++spu) {
            if (a.sched.readyCount(spu) != b.sched.readyCount(spu))
                return fail("ready count of spu " + std::to_string(spu));
        }
    } else {
        if (a.sched.readyCount() != b.sched.readyCount())
            return fail("ready count");
    }
    if constexpr (std::is_base_of_v<PisoScheduler, A>) {
        if (a.sched.revocations() != b.sched.revocations())
            return fail("revocations");
    }
    return true;
}

struct Scenario
{
    int cpus;
    int spus;
    bool tree;
    std::uint64_t seed;
    int steps;
};

std::string
scenarioName(const Scenario &sc)
{
    return std::to_string(sc.cpus) + "x" + std::to_string(sc.spus) +
           (sc.tree ? " tree" : "") + " seed " + std::to_string(sc.seed);
}

/**
 * Drive @p Policy and FullScanRef<Policy> through sc.steps seeded
 * steps, comparing them after every step and every event.
 * @return revocations seen (PIso), to show the scenario reached them.
 */
template <class Policy>
std::uint64_t
runTwins(const Scenario &sc)
{
    constexpr bool kPiso = std::is_base_of_v<PisoScheduler, Policy>;
    Side<Policy> s(sc.cpus);
    Side<FullScanRef<Policy>> r(sc.cpus);
    Rng rng(sc.seed);
    const std::string name = scenarioName(sc);

    const auto both = [&](auto &&fn) {
        fn(s);
        fn(r);
    };
    const auto check = [&](const std::string &where) {
        expectIndexMatchesCpus(s.sched, sc.spus, where);
        expectIdleCpusNotPending(s.sched, where);
        return sameState(s, r, sc.spus, where);
    };

    const SpuTable<double> first = randomShares(rng, sc.spus);
    both([&](auto &side) { side.sched.partitionCpus(first); });
    if (sc.tree) {
        const SpuTable<SpuId> parents = randomTree(rng, sc.spus);
        both([&](auto &side) { side.sched.setSpuParents(parents); });
    }
    both([](auto &side) { side.sched.start(); });

    // Most work lands on a few busy SPUs, as on a big machine where a
    // handful of SPUs are active; the rest anywhere, including SPUs
    // that hold no share at all.
    std::vector<SpuId> busy;
    for (int i = 0; i < 8; ++i)
        busy.push_back(randomSpu(rng, sc.spus));
    const auto maxLive = static_cast<std::size_t>(sc.cpus * 3 / 2 + 4);

    const auto live = [&](ProcState st) {
        std::vector<std::size_t> out;
        for (std::size_t i = 0; i < s.procs.size(); ++i) {
            if (s.procs[i]->state() == st)
                out.push_back(i);
        }
        return out;
    };
    const auto pick = [&](const std::vector<std::size_t> &v) {
        return v[rng.uniformInt(v.size())];
    };
    const auto advance = [&](Time target, const std::string &where) {
        while (s.events.nextEventTime() <= target) {
            if (s.events.nextEventTime() != r.events.nextEventTime()) {
                ADD_FAILURE() << where << ": next event time";
                return false;
            }
            s.events.runOne();
            r.events.runOne();
            if (!check(where + " event"))
                return false;
        }
        both([&](auto &side) { side.events.advanceTo(target); });
        return true;
    };

    for (int step = 0; step < sc.steps; ++step) {
        const std::string where =
            name + " step " + std::to_string(step) + " op ";
        const std::size_t roll = rng.uniformInt(100);
        const Time now = s.events.now();
        std::string op;
        if (roll < 30) {
            op = "ready-new";
            if (live(ProcState::Running).size() +
                    live(ProcState::Ready).size() >= maxLive)
                continue;
            const SpuId spu =
                rng.chance(0.7)
                    ? busy[rng.uniformInt(busy.size())]
                    : randomSpu(rng, sc.spus + 1);
            const Time work = 1 * kMs + rng.uniformTime(200 * kMs);
            both([&](auto &side) {
                side.procs.push_back(side.client.createProcess(spu, work));
                side.procs.back()->startTime = now;
            });
            s.sched.processReady(s.procs.back());
            r.sched.processReadyRef(r.procs.back());
        } else if (roll < 42) {
            op = "ready-blocked";
            const auto blocked = live(ProcState::Blocked);
            if (blocked.empty())
                continue;
            const std::size_t i = pick(blocked);
            s.sched.processReady(s.procs[i]);
            r.sched.processReadyRef(r.procs[i]);
        } else if (roll < 54) {
            op = "block";
            const auto running = live(ProcState::Running);
            if (running.empty())
                continue;
            const std::size_t i = pick(running);
            both([&](auto &side) { side.client.block(side.procs[i]); });
        } else if (roll < 59) {
            op = "exit";
            const auto running = live(ProcState::Running);
            if (running.empty())
                continue;
            const std::size_t i = pick(running);
            both([&](auto &side) { side.client.exit(side.procs[i]); });
        } else if (roll < 72) {
            op = "advance";
            if (!advance(now + rng.uniformTime(15 * kMs), where + op))
                return 0;
        } else if (roll < 82) {
            op = "tick";
            const Time period = s.sched.tickPeriod();
            if (!advance((now / period + 1) * period, where + op))
                return 0;
        } else if (roll < 86) {
            op = "repartition";
            const SpuTable<double> shares =
                rng.chance(0.05) ? SpuTable<double>{}
                                 : randomShares(rng, sc.spus);
            both([&](auto &side) { side.sched.repartitionCpus(shares); });
        } else if (roll < 89) {
            op = "offline";
            const int k = 1 + static_cast<int>(rng.uniformInt(3));
            const bool rebalance = rng.chance(0.5);
            const SpuTable<double> shares = randomShares(rng, sc.spus);
            both([&](auto &side) {
                side.sched.takeCpusOffline(k);
                if (rebalance)
                    side.sched.repartitionCpus(shares);
            });
        } else if (roll < 92) {
            op = "online";
            const int k = 1 + static_cast<int>(rng.uniformInt(3));
            const bool rebalance = rng.chance(0.5);
            const SpuTable<double> shares = randomShares(rng, sc.spus);
            both([&](auto &side) {
                side.sched.bringCpusOnline(k);
                if (rebalance)
                    side.sched.repartitionCpus(shares);
            });
        } else if (roll < 95) {
            op = "policy";
            const Time holdoff =
                rng.chance(0.5) ? 0 : rng.uniformTime(30 * kMs);
            const bool ipi = rng.chance(0.5);
            if constexpr (kPiso) {
                both([&](auto &side) {
                    side.sched.setLoanHoldoff(holdoff);
                    side.sched.setIpiRevocation(ipi);
                });
            }
        } else {
            op = "save-load";
            // Every SPU id the scenario uses is below this bound.
            const auto spus = static_cast<std::size_t>(kFirstSpu + sc.spus + 1);
            CkptWriter ws;
            const ProcessByPid byPidS = [&](Pid pid) { return s.byPid(pid); };
            CkptIo saveS(ws);
            s.sched.ckpt(saveS, byPidS, spus);
            const std::string image = ws.image(0);
            // A scheduler that never saw a partition gets its index from
            // a checkpoint load alone.
            EventQueue probeEvents;
            Policy probe(probeEvents, sc.cpus);
            CkptReader rp(image);
            CkptIo loadP(rp);
            probe.ckpt(loadP, byPidS, spus);
            expectIndexMatchesCpus(probe, sc.spus, where + op + " probe");
            for (SpuId spu = 0; spu < kFirstSpu + sc.spus + 1; ++spu)
                EXPECT_EQ(probe.cpusOf(spu), s.sched.cpusOf(spu)) << where;
            CkptReader rs(image);
            CkptIo loadS(rs);
            s.sched.ckpt(loadS, byPidS, spus);
            const ProcessByPid byPidR = [&](Pid pid) { return r.byPid(pid); };
            CkptWriter wr;
            CkptIo saveR(wr);
            r.sched.ckpt(saveR, byPidR, spus);
            CkptReader rr(wr.image(0));
            CkptIo loadR(rr);
            r.sched.ckpt(loadR, byPidR, spus);
        }
        if (!check(where + op))
            return 0;
    }
    if constexpr (kPiso)
        return s.sched.revocations();
    return 0;
}

const std::vector<Scenario> &
scenarios()
{
    static const std::vector<Scenario> kAll = {
        {4, 3, false, 11, 1500},    {8, 6, false, 12, 1500},
        {8, 6, true, 13, 1500},     {8, 6, true, 19, 1500},
        {16, 40, false, 14, 1200},  {16, 40, true, 15, 1200},
        {64, 96, true, 16, 800},    {64, 96, true, 20, 800},
        {256, 512, false, 17, 500}, {256, 512, true, 18, 500},
    };
    return kAll;
}

} // namespace

TEST(SchedIndexEquivalence, SmpMatchesFullScan)
{
    for (const Scenario &sc : scenarios()) {
        SCOPED_TRACE(scenarioName(sc));
        runTwins<SmpScheduler>(sc);
        if (HasFailure())
            return;
    }
}

TEST(SchedIndexEquivalence, QuotaMatchesFullScan)
{
    for (const Scenario &sc : scenarios()) {
        SCOPED_TRACE(scenarioName(sc));
        runTwins<QuotaScheduler>(sc);
        if (HasFailure())
            return;
    }
}

TEST(SchedIndexEquivalence, PisoMatchesFullScan)
{
    std::uint64_t revocations = 0;
    for (const Scenario &sc : scenarios()) {
        SCOPED_TRACE(scenarioName(sc));
        revocations += runTwins<PisoScheduler>(sc);
        if (HasFailure())
            return;
    }
    // The scenarios reach the revocation path, not only placement.
    EXPECT_GT(revocations, 0U);
}

namespace {

/**
 * Fill two twins with the same random ready set over @p spus SPUs
 * (flat, or under a random tree), then pop cross-SPU picks for random
 * owners from both — the policy's own pick from one, the full
 * ready-table scan from the other — topping the set up between pops.
 * Priorities are drawn from a few values so ties exercise the FIFO
 * tie-break. @return picks made.
 */
template <class Policy>
int
runPickTwins(int spus, bool tree, std::uint64_t seed)
{
    EventQueue events;
    FullScanRef<Policy> lazy(events, 4);
    FullScanRef<Policy> full(events, 4);
    Rng rng(seed);
    if (tree) {
        const SpuTable<SpuId> parents = randomTree(rng, spus);
        lazy.setSpuParents(parents);
        full.setSpuParents(parents);
    }
    std::vector<std::unique_ptr<Process>> procs;
    const auto add = [&] {
        const Pid pid = static_cast<Pid>(procs.size() + 1);
        // Work clustered on a few SPUs, the rest spread thin.
        const SpuId spu = rng.chance(0.6)
                              ? randomSpu(rng, std::min(spus, 6))
                              : randomSpu(rng, spus);
        procs.push_back(std::make_unique<Process>(
            pid, spu, kNoJob, "p",
            std::make_unique<ScriptBehavior>(std::vector<Action>{}),
            Rng(static_cast<std::uint64_t>(pid))));
        Process *p = procs.back().get();
        p->setRecentCpu(0.25 * static_cast<double>(rng.uniformInt(4)));
        p->readySince = rng.uniformTime(5 * kMs);
        lazy.enqueue(p);
        full.enqueue(p);
    };
    for (int i = 0, n = static_cast<int>(rng.uniformInt(120)); i < n; ++i)
        add();
    int picks = 0;
    for (int step = 0; step < 400; ++step) {
        if (rng.chance(0.3)) {
            add();
            continue;
        }
        // Owners include ids outside the tree and SPUs with no work.
        const SpuId owner = randomSpu(rng, spus + 2);
        Process *want = full.popForeignRef(owner);
        Process *got = lazy.popForeign(owner);
        EXPECT_EQ(got ? got->pid() : kNoPid, want ? want->pid() : kNoPid)
            << "spus " << spus << (tree ? " tree" : "") << " seed "
            << seed << " step " << step << " owner " << owner;
        if (::testing::Test::HasFailure())
            return picks;
        picks += want != nullptr;
    }
    return picks;
}

} // namespace

TEST(SchedIndexPick, QuotaForeignPickMatchesFullScan)
{
    int picks = 0;
    for (const int spus : {3, 40, 512}) {
        for (std::uint64_t seed = 1; seed <= 6; ++seed)
            picks += runPickTwins<QuotaScheduler>(spus, false, seed);
    }
    EXPECT_GT(picks, 1000);
}

TEST(SchedIndexPick, PisoKinPickMatchesFullScan)
{
    int picks = 0;
    for (const bool tree : {false, true}) {
        for (const int spus : {3, 40, 512}) {
            for (std::uint64_t seed = 1; seed <= 6; ++seed)
                picks += runPickTwins<PisoScheduler>(spus, tree, seed);
        }
    }
    EXPECT_GT(picks, 2000);
}

namespace {

/** @p Policy with its ready-queue primitives in reach. */
template <class Policy>
class QueueProbe : public Policy
{
  public:
    using Policy::Policy;

    static constexpr bool kPerSpu = std::is_base_of_v<QuotaScheduler, Policy>;

    void enqueue(Process *p) { this->enqueueReady(p); }

    /** SMP's pick, else popBest(@p spu). */
    Process *
    pick(SpuId spu)
    {
        if constexpr (kPerSpu)
            return this->popBest(spu);
        else
            return this->selectNext(this->cpus_[0]);
    }

    Process *
    popForeign(SpuId exclude)
    {
        return this->popBestForeign(exclude);
    }

    Process *
    popKin(SpuId owner)
    {
        return this->popBestKin(owner);
    }

    /** Take the queued @p p off its SPU's queue, as a pick would. */
    void
    take(Process *p)
    {
        const std::vector<Process *> &queue = this->ready_[p->spu()];
        const auto at = std::find(queue.begin(), queue.end(), p);
        this->takeReady(p->spu(),
                        static_cast<std::size_t>(at - queue.begin()));
    }

    /** The ready queues' image, without PIso's revocation count. */
    void
    ckptQueues(CkptIo &io, const ProcessByPid &byPid, std::size_t spuBound)
    {
        if constexpr (kPerSpu)
            this->QuotaScheduler::ckptReady(io, byPid, spuBound);
        else
            this->ckptReady(io, byPid, spuBound);
    }
};

/**
 * Drive @p Policy's ready queues and the node-based ListReadyRef twin
 * (tests/sched_ref_util.hh) through @p steps seeded steps over the
 * same processes: ready (new processes and returning ones), block
 * (a queued process taken off), tick (recent CPU usage decays or
 * grows, which reorders priorities), popBest, popBestForeign and
 * popBestKin for random SPUs, and a checkpoint save and cross-load
 * between steps. Every pick, the policy-loop iteration count and the
 * queue lengths must agree after every step, and both sides must
 * image the same bytes. Priorities come from a few values so ties
 * exercise the earliest-entry-wins rule. @return picks made.
 */
template <class Policy>
int
runQueueTwins(int spus, bool tree, std::uint64_t seed, int steps)
{
    using Probe = QueueProbe<Policy>;
    constexpr bool kPiso = std::is_base_of_v<PisoScheduler, Policy>;
    EventQueue events;
    Probe real(events, 4);
    testutil::ListReadyRef ref(!Probe::kPerSpu);
    Rng rng(seed);
    SpuTable<SpuId> parents;
    if (tree) {
        parents = randomTree(rng, spus);
        real.setSpuParents(parents);
    }
    const std::string name = std::to_string(spus) +
                             (tree ? " tree" : "") + " seed " +
                             std::to_string(seed);

    std::vector<std::unique_ptr<Process>> procs;
    std::vector<bool> queued;
    const ProcessByPid byPid = [&procs](Pid pid) {
        return procs.at(static_cast<std::size_t>(pid - 1)).get();
    };
    Time clock = 0;
    const auto ready = [&](Process *p) {
        p->readySince = clock;
        queued[static_cast<std::size_t>(p->pid() - 1)] = true;
        real.enqueue(p);
        ref.enqueue(p);
    };
    const auto picked = [&](Process *p) {
        if (p)
            queued[static_cast<std::size_t>(p->pid() - 1)] = false;
    };
    const auto anyQueued = [&]() -> Process * {
        std::vector<Process *> v;
        for (std::size_t i = 0; i < procs.size(); ++i) {
            if (queued[i])
                v.push_back(procs[i].get());
        }
        return v.empty() ? nullptr : v[rng.uniformInt(v.size())];
    };
    // Owners and excluded SPUs include ids no process runs in.
    const auto anySpu = [&] { return randomSpu(rng, spus + 2); };
    const auto spuBound = static_cast<std::size_t>(kFirstSpu + spus + 2);

    int picks = 0;
    for (int step = 0; step < steps; ++step) {
        const std::string where = name + " step " + std::to_string(step);
        const std::size_t roll = rng.uniformInt(100);
        Process *got = nullptr;
        Process *want = nullptr;
        if (roll < 30) {
            Process *p = nullptr;
            for (std::size_t i = 0; i < procs.size() && !p; ++i) {
                if (!queued[i] && rng.chance(0.2))
                    p = procs[i].get();
            }
            if (!p) {
                const Pid pid = static_cast<Pid>(procs.size() + 1);
                // Work clustered on a few SPUs, the rest spread thin.
                const SpuId spu = rng.chance(0.6)
                                      ? randomSpu(rng, std::min(spus, 6))
                                      : randomSpu(rng, spus);
                procs.push_back(std::make_unique<Process>(
                    pid, spu, kNoJob, "p",
                    std::make_unique<ScriptBehavior>(
                        std::vector<Action>{}),
                    Rng(static_cast<std::uint64_t>(pid))));
                queued.push_back(false);
                p = procs.back().get();
                p->setRecentCpu(0.25 *
                                static_cast<double>(rng.uniformInt(4)));
            }
            ready(p);
        } else if (roll < 40) {
            // SMP's one queue has no per-SPU take.
            if constexpr (Probe::kPerSpu) {
                if (Process *p = anyQueued()) {
                    real.take(p);
                    ref.take(p);
                    picked(p);
                }
            }
        } else if (roll < 50) {
            // A tick: a second's decay for some, a slice of CPU for
            // others, in steps that keep ties common.
            clock += 10 * kMs;
            for (const auto &p : procs) {
                if (rng.chance(0.2))
                    p->setRecentCpu(p->recentCpu() * 0.5);
                else if (rng.chance(0.1))
                    p->setRecentCpu(p->recentCpu() + 0.25);
            }
        } else if (roll < 70) {
            const SpuId spu = anySpu();
            got = real.pick(spu);
            want = Probe::kPerSpu ? ref.popBest(spu) : ref.popGlobal();
        } else if (Probe::kPerSpu && (roll < 85 || !kPiso)) {
            const SpuId exclude = anySpu();
            if constexpr (Probe::kPerSpu) {
                got = real.popForeign(exclude);
                want = ref.popBestKin(exclude, SpuTable<SpuId>{});
            }
        } else if (kPiso) {
            const SpuId owner = anySpu();
            if constexpr (kPiso) {
                got = real.popKin(owner);
                want = ref.popBestKin(owner, parents);
            }
        }
        EXPECT_EQ(got ? got->pid() : kNoPid, want ? want->pid() : kNoPid)
            << where << " roll " << roll;
        picked(got);
        picks += got != nullptr;
        EXPECT_EQ(real.policyIters(), ref.policyIters()) << where;
        if constexpr (Probe::kPerSpu) {
            for (SpuId spu = 0; spu < static_cast<SpuId>(spuBound); ++spu)
                EXPECT_EQ(real.readyCount(spu), ref.readyCount(spu))
                    << where << " spu " << spu;
        } else {
            EXPECT_EQ(real.readyCount(), ref.globalCount()) << where;
        }
        if (::testing::Test::HasFailure())
            return picks;

        if (rng.chance(0.25)) {
            // Save both, compare the bytes, and load each side from
            // the other's image.
            CkptWriter wr;
            CkptIo saveReal(wr);
            real.ckptQueues(saveReal, byPid, spuBound);
            CkptWriter wf;
            CkptIo saveRef(wf);
            ref.ckpt(saveRef, byPid, spuBound);
            EXPECT_EQ(wr.payload(), wf.payload()) << where << " image";
            const std::string realImage = wr.image(0);
            const std::string refImage = wf.image(0);
            CkptReader rr(refImage);
            CkptIo loadReal(rr);
            real.ckptQueues(loadReal, byPid, spuBound);
            rr.expectEnd();
            CkptReader rf(realImage);
            CkptIo loadRef(rf);
            ref.ckpt(loadRef, byPid, spuBound);
            rf.expectEnd();
        }
    }
    return picks;
}

} // namespace

TEST(SchedQueueTwin, SmpMatchesListQueue)
{
    int picks = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        picks += runQueueTwins<SmpScheduler>(8, false, seed, 800);
    EXPECT_GT(picks, 600);
}

TEST(SchedQueueTwin, QuotaMatchesListQueues)
{
    int picks = 0;
    for (const int spus : {8, 64, 512}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed)
            picks += runQueueTwins<QuotaScheduler>(spus, false, seed, 800);
    }
    EXPECT_GT(picks, 2000);
}

TEST(SchedQueueTwin, PisoMatchesListQueues)
{
    int picks = 0;
    for (const bool tree : {false, true}) {
        for (const int spus : {8, 64, 512}) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed)
                picks +=
                    runQueueTwins<PisoScheduler>(spus, tree, seed, 800);
        }
    }
    EXPECT_GT(picks, 4000);
}

TEST(SchedIndexKinship, MatchesPathPrefixReference)
{
    Rng rng(31);
    for (int round = 0; round < 20; ++round) {
        const int spus = 4 + static_cast<int>(rng.uniformInt(200));
        const SpuTable<SpuId> parents = randomTree(rng, spus);
        // Leaves, groups, supergroups and ids outside the tree.
        const auto anySpu = [&] {
            return static_cast<SpuId>(rng.uniformInt(
                static_cast<std::uint64_t>(kFirstSpu + spus * 2)));
        };
        for (int n = 0; n < 500; ++n) {
            const SpuId a = anySpu();
            const SpuId b = rng.chance(0.1) ? a : anySpu();
            ASSERT_EQ(PisoScheduler::kinship(parents, a, b),
                      pathKinship(parents, a, b))
                << "spus " << spus << " a " << a << " b " << b;
        }
    }
}

TEST(SchedIndexKinship, LoanGoesToDeepestCommonAncestor)
{
    // 20 -> 21 -> 22 -> 5, 21 -> 9, 20 -> 7, 30 -> 6.
    EventQueue events;
    PisoScheduler sched(events, 4);
    FakeClient client(events, sched);
    sched.setSpuParents(
        {{5, 22}, {22, 21}, {21, 20}, {9, 21}, {7, 20}, {6, 30}});
    sched.partitionCpus({{5, 1.0}, {6, 1.0}, {7, 1.0}, {9, 1.0}});
    sched.start();
    Process *mine = client.createProcess(5, 50 * kMs);
    client.startProcess(mine);
    ASSERT_EQ(mine->runningOn, 0);
    // Every other CPU busy with its owner's work, so foreigners queue.
    for (SpuId spu : {6, 7, 9})
        client.startProcess(client.createProcess(spu, 500 * kMs));
    // Queued in ascending SPU order with equal priority: without kin
    // order the stranger (SPU 6) would win.
    Process *stranger = client.createProcess(6, 500 * kMs);
    Process *cousin = client.createProcess(7, 500 * kMs);
    Process *sibling = client.createProcess(9, 500 * kMs);
    for (Process *p : {stranger, cousin, sibling})
        client.startProcess(p);
    // CPU 0 frees up with no SPU-5 work left: SPU 9 shares the deepest
    // ancestor (21, depth 2) with SPU 5, SPU 7 only the root (depth 1),
    // SPU 6 nothing.
    client.exit(mine);
    EXPECT_EQ(sibling->runningOn, 0);
    EXPECT_EQ(cousin->state(), ProcState::Ready);
    EXPECT_EQ(stranger->state(), ProcState::Ready);
}

TEST(SchedIndexInvariant, IdleOnlineCpusNeverPendingRevocation)
{
    for (const bool ipi : {false, true}) {
        for (const Time holdoff : {Time{0}, 20 * kMs}) {
            SCOPED_TRACE(std::string(ipi ? "ipi" : "tick") +
                         " holdoff " + std::to_string(holdoff));
            EventQueue events;
            PisoScheduler sched(events, 8);
            FakeClient client(events, sched);
            sched.setIpiRevocation(ipi);
            sched.setLoanHoldoff(holdoff);
            sched.partitionCpus({{2, 1.5}, {3, 1.5}, {4, 0.5}, {5, 0.5}});
            sched.start();
            Rng rng(holdoff > 0 ? (ipi ? 104 : 103) : (ipi ? 102 : 101));
            std::vector<Process *> procs;
            bool sawPending = false;
            const auto check = [&](const std::string &where) {
                expectIdleCpusNotPending(sched, where);
                for (CpuId id = 0; id < sched.numCpus(); ++id)
                    sawPending |= sched.cpu(id).revokePending;
            };
            for (int step = 0; step < 3000; ++step) {
                const std::string where = "step " + std::to_string(step);
                const std::size_t roll = rng.uniformInt(10);
                if (roll < 4) {
                    // Bursts from one SPU take loans; the others then
                    // wake up to find their CPUs lent out.
                    const SpuId spu =
                        2 + static_cast<SpuId>(rng.uniformInt(4));
                    Process *p = client.createProcess(
                        spu, 1 * kMs + rng.uniformTime(80 * kMs));
                    procs.push_back(p);
                    client.startProcess(p);
                } else if (roll < 6) {
                    for (Process *p : procs) {
                        if (p->state() == ProcState::Blocked) {
                            sched.processReady(p);
                            break;
                        }
                    }
                } else if (roll < 7) {
                    for (Process *p : procs) {
                        if (p->state() == ProcState::Running &&
                            rng.chance(0.3)) {
                            client.block(p);
                            break;
                        }
                    }
                } else {
                    const Time until =
                        events.now() + rng.uniformTime(12 * kMs);
                    while (events.nextEventTime() <= until) {
                        events.runOne();
                        check(where + " event");
                    }
                    events.advanceTo(until);
                }
                check(where);
                if (HasFailure())
                    return;
            }
            EXPECT_GT(sched.revocations(), 0U);
            EXPECT_TRUE(ipi || sawPending);
        }
    }
}

namespace {

/** QuotaScheduler counting its eligibleIdle calls. */
class CountingQuota : public QuotaScheduler
{
  public:
    using QuotaScheduler::QuotaScheduler;

    mutable std::size_t eligibleCalls = 0;

  protected:
    bool
    eligibleIdle(const Cpu &cpu, const Process *p) const override
    {
        ++eligibleCalls;
        return QuotaScheduler::eligibleIdle(cpu, p);
    }
};

} // namespace

TEST(SchedIndexWork, QuotaWakeUpVisitsOnlyItsOwnCpus)
{
    constexpr int kCpus = 256;
    constexpr int kSpus = 512;
    for (const bool equal : {true, false}) {
        SCOPED_TRACE(equal ? "equal shares" : "random shares");
        EventQueue events;
        CountingQuota sched(events, kCpus);
        FakeClient client(events, sched);
        Rng rng(7);
        SpuTable<double> shares;
        for (int i = 0; i < kSpus; ++i)
            shares[kFirstSpu + i] =
                equal ? 1.0 : rng.uniformRange(0.1, 3.0);
        sched.partitionCpus(shares);
        sched.start();
        ASSERT_TRUE(sched.unownedCpus().empty());
        for (int n = 0; n < 2000; ++n) {
            const SpuId spu = randomSpu(rng, kSpus);
            Process *p = client.createProcess(spu, 1 * kSec);
            sched.eligibleCalls = 0;
            client.startProcess(p);
            ASSERT_LE(sched.eligibleCalls, sched.cpusOf(spu).size())
                << "spu " << spu << " wake-up " << n;
            ASSERT_GE(sched.cpusOf(spu).size(), 1U);
        }
    }
}
