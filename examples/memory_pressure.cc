/**
 * @file
 * Watching the entitled / allowed / used levels move (Section 2.3).
 *
 * A borrower SPU wants more memory than its half of the machine while
 * the lender idles; at t = 2 s the lender wakes and claims its own
 * pages back. The example samples the three levels every 250 ms so
 * you can watch the sharing policy lend idle pages and then revoke
 * them, with the Reserve Threshold hiding the revocation latency.
 */

#include <cstdio>
#include <string>

#include "src/piso.hh"

using namespace piso;

namespace {

/** Adds a row of both SPUs' levels to a table every 250 ms: an event
 *  target of its own, firing `external` events. */
struct LevelProbe final : EventSink
{
    Simulation &sim;
    SpuId lender;
    SpuId borrower;
    TextTable &table;

    LevelProbe(Simulation &s, SpuId l, SpuId b, TextTable &t)
        : sim(s), lender(l), borrower(b), table(t)
    {
    }

    void
    fire(EvKind, const EventArg &) override
    {
        auto eau = [](const MemLevels &m) {
            return std::to_string(m.entitled) + "/" +
                   std::to_string(m.allowed) + "/" +
                   std::to_string(m.used);
        };
        table.addRow({TextTable::num(toSeconds(sim.events().now()), 2),
                      eau(sim.vm().levels(lender)),
                      eau(sim.vm().levels(borrower)),
                      std::to_string(sim.vm().freePages()),
                      std::to_string(sim.vm().reservePages())});
        sim.events().scheduleAfter(250 * kMs, EvKind::External, *this);
    }
};

} // namespace

int
main()
{
    printBanner("Memory lending timeline: entitled/allowed/used per "
                "SPU (16 MB machine)");

    SystemConfig cfg;
    cfg.cpus = 4;
    cfg.memoryBytes = 16 * kMiB;
    cfg.diskCount = 2;
    cfg.scheme = Scheme::PIso;
    cfg.seed = 2;

    Simulation sim(cfg);
    const SpuId lender = sim.addSpu({.name = "lender", .homeDisk = 0});
    const SpuId borrower =
        sim.addSpu({.name = "borrower", .homeDisk = 1});

    // Borrower: wants ~2600 pages, entitled to ~1700.
    ComputeSpec hungry;
    hungry.totalCpu = 5 * kSec;
    hungry.wsPages = 2600;
    sim.addJob(borrower, makeComputeJob("hungry", hungry));

    // Lender: sleeps 2 s, then builds a 1300-page working set.
    std::vector<Action> wake;
    wake.push_back(GrowMemAction{1300});
    wake.push_back(ComputeAction{2 * kSec});
    sim.addJob(lender, makeScriptJob("wakeup", std::move(wake), 2 * kSec));

    TextTable table({"t (s)", "lender E/A/U", "borrower E/A/U",
                     "free", "reserve"});
    LevelProbe probe{sim, lender, borrower, table};
    sim.events().schedule(0, EvKind::External, probe);

    const SimResults r = sim.run();
    table.print();

    std::printf("\nJobs: hungry %.2f s, wakeup ramp %.2f s "
                "(both complete: %s)\n",
                r.job("hungry").responseSec(),
                r.job("wakeup").responseSec(),
                r.completed ? "yes" : "no");
    std::printf(
        "\nTimeline reading: while the lender sleeps, the policy "
        "raises the borrower's\nallowed level above its entitlement "
        "(idle pages lent, reserve withheld). When\nthe lender wakes "
        "it allocates instantly from the reserve; the borrower's\n"
        "allowance falls back and the pageout daemon reclaims its "
        "excess pages.\n");
    return 0;
}
