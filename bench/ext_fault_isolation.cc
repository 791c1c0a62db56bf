/**
 * @file
 * Extension bench: isolation under injected hardware faults.
 *
 * A victim SPU runs an interactive read workload (small periodic
 * reads, think time between them); an aggressor SPU streams a large
 * file copy through the same disk. Mid-run the disk enters a
 * slowdown window (service times multiplied — a failing drive
 * remapping sectors). The question is who absorbs the degradation:
 *
 *  - Under SMP the victim's reads queue behind the aggressor's deep
 *    pipeline on the now-slow disk and its response time blows up.
 *  - Under PIso the fair disk policy keeps charging the aggressor
 *    for its bandwidth, so the victim still gets its entitled share
 *    of the (degraded) device and stays near its no-fault response.
 *
 * Reported slowdowns are relative to the no-fault PIso run — the
 * victim's entitled response on healthy hardware.
 */

#include <cstdio>

#include "src/piso.hh"

using namespace piso;

namespace {

constexpr int kReads = 40;

double
run(Scheme scheme, bool faulty, std::uint64_t seed)
{
    SystemConfig cfg;
    cfg.cpus = 2;
    cfg.memoryBytes = 44 * kMiB;
    cfg.diskCount = 1;
    cfg.scheme = scheme;
    cfg.seed = seed;
    if (faulty) {
        // Slow window spanning the victim's whole run.
        cfg.faults.diskSlow(500 * kMs, /*disk=*/0,
                            /*duration=*/40 * kSec, /*factor=*/3.0);
    }

    Simulation sim(cfg);
    const SpuId victim = sim.addSpu({.name = "victim", .homeDisk = 0});
    const SpuId aggr = sim.addSpu({.name = "aggressor", .homeDisk = 0});
    (void)aggr;

    JobSpec v;
    v.name = "victim";
    v.build = [](Kernel &, WorkloadEnv &env) {
        const FileId f = env.fs.createFile(env.disk, kReads * 16 * 1024);
        std::vector<Action> script;
        for (int i = 0; i < kReads; ++i) {
            script.push_back(ReadAction{f, i * 16ull * 1024, 16 * 1024});
            script.push_back(SleepAction{150 * kMs});
        }
        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            "victim",
            std::make_unique<ScriptBehavior>(std::move(script))});
        return procs;
    };
    sim.addJob(victim, std::move(v));

    FileCopyConfig cc;
    cc.bytes = 64 * kMiB;
    sim.addJob(aggr, makeFileCopy("copy", cc));

    const SimResults r = sim.run();
    return r.job("victim").responseSec();
}

double
mean(Scheme scheme, bool faulty)
{
    double sum = 0.0;
    for (std::uint64_t seed : {1, 2, 3})
        sum += run(scheme, faulty, seed);
    return sum / 3;
}

} // namespace

int
main()
{
    printBanner("Extension: isolation under a disk-slowdown fault "
                "(victim reads vs aggressor copy)");

    const double entitled = mean(Scheme::PIso, false);
    TextTable table({"scheme", "victim (s)", "slowdown vs entitled"});
    for (Scheme s : {Scheme::Smp, Scheme::Quota, Scheme::PIso}) {
        const double resp = mean(s, true);
        table.addRow({schemeName(s), TextTable::num(resp, 2),
                      TextTable::num(resp / entitled, 2) + "x"});
    }
    table.addRow({"PIso (no fault)", TextTable::num(entitled, 2),
                  "1.00x"});
    table.print();

    std::printf("\nThe slow disk triples every service time. PIso "
                "still gives the victim its\nentitled share of the "
                "degraded device, so its response stays near the\n"
                "no-fault level; under SMP the victim queues behind "
                "the aggressor's copy\ntraffic on the slow disk.\n");
    return 0;
}
