/**
 * @file
 * Big-machine scaling bench: host cost per simulated event as the
 * configured machine grows from 8 CPUs x 8 SPUs to 256 CPUs x 512
 * SPUs (extension; the paper's machine stops at 8 CPUs).
 *
 * The workload holds the *active* set fixed — eight SPUs running the
 * Figure 2 pmake shape — while the configured SPU population grows, so
 * the bench isolates exactly what the O(active) policy loops claim:
 * per-event host cost must track the active set, not the population.
 * `SystemConfig::eagerPolicyLoops` re-enables the pre-PR-9 full scans
 * as the bit-exact baseline (same events, same results, more work).
 * Those scans include the tick's idle pass over every idle CPU, which
 * the lazy scheduler skips when nothing is ready; the baseline keeps
 * it. Both sides place wake-ups from the per-SPU CPU index, so the
 * lazy-over-eager ratio measures the policy loops plus that skip.
 *
 * Not a google-benchmark target: the self-check contract (--check) is
 * part of the release-perf CI gate, and the sweep output is a plain
 * table.
 *
 *   ext_scale           full sweep table (a minute or so)
 *   ext_scale --quick   tiny structural run (ctest, label `scale`)
 *   ext_scale --check   assert the scaling contract:
 *                         - lazy == eager event counts (bit-exact)
 *                         - at 256 CPUs, 8 -> 512 SPUs raises host
 *                           ns/event by at most 2x
 *                         - 256 CPU x 512 SPU pmake runs >= 5x faster
 *                           than the eager baseline
 *                         - that machine's t=0 checkpoint image is
 *                           under 1 MiB (bytes are deterministic, so
 *                           the gate is exact), and a run restored
 *                           from it executes the cold run's events;
 *                           restore and cold set-up times are
 *                           printed, not gated
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "src/piso.hh"

using namespace piso;

namespace {

struct Measured
{
    std::uint64_t events = 0;
    double wallSec = 0.0;
    std::uint64_t policyIters = 0;
    double simSec = 0.0;
    double setupSec = 0.0;

    double nsPerEvent() const
    {
        return events ? wallSec * 1e9 / static_cast<double>(events)
                      : 0.0;
    }
};

/** One fixed-horizon machine, populated but not run: @p spus SPUs
 *  configured, the first eight running the Figure 2 pmake shape (two
 *  parallel compiles each). */
std::unique_ptr<Simulation>
makePoint(int cpus, int spus, Scheme scheme, bool eager, Time horizon)
{
    SystemConfig cfg;
    cfg.cpus = cpus;
    cfg.memoryBytes = 512 * kMiB;
    cfg.diskCount = 8;
    cfg.scheme = scheme;
    cfg.maxTime = horizon;
    cfg.eagerPolicyLoops = eager;

    auto simPtr = std::make_unique<Simulation>(cfg);
    Simulation &sim = *simPtr;

    // Short compiles make the workload scheduling-bound: every segment
    // end parks the worker in disk I/O and forces a fresh pick, which
    // is exactly the path whose cost must not scale with the SPU
    // population. filesPerWorker keeps the active SPUs busy past every
    // horizon this bench uses.
    PmakeConfig pmake;
    pmake.parallelism = 2;
    pmake.filesPerWorker = 4096;
    pmake.compileCpu = 2 * kMs;
    pmake.workerWsPages = 330;
    pmake.inodeLock = sim.kernel().createLock(true);

    const int active = spus < 8 ? spus : 8;
    for (int u = 0; u < spus; ++u) {
        const SpuId spu = sim.addSpu(
            {.name = "u" + std::to_string(u),
             .homeDisk = static_cast<DiskId>(u % cfg.diskCount)});
        if (u < active) {
            sim.addJob(spu, makePmake("pm" + std::to_string(u) + "a",
                                      pmake));
            sim.addJob(spu, makePmake("pm" + std::to_string(u) + "b",
                                      pmake));
        }
        // Every SPU hosts a low-duty daemon (a big machine's idle
        // tenants are idle, not absent): 50 us of CPU roughly once a
        // second, staggered per SPU. This is what makes the
        // population visible to the policy loops — each daemon's SPU
        // enters the scheduler and memory registries, so the eager
        // baseline pays O(population) per pick while the O(active)
        // paths keep paying only for whoever is awake.
        std::vector<Action> script;
        const Time nap = 900 * kMs + static_cast<Time>(u) * kUs;
        for (int i = 0; i < 2 + static_cast<int>(toSeconds(horizon));
             ++i) {
            script.push_back(SleepAction{nap});
            script.push_back(ComputeAction{50 * kUs});
        }
        sim.addJob(spu, makeScriptJob("d" + std::to_string(u),
                                      std::move(script)));
    }
    return simPtr;
}

Measured
runPoint(int cpus, int spus, Scheme scheme, bool eager, Time horizon)
{
    const SimResults r =
        makePoint(cpus, spus, scheme, eager, horizon)->run();
    return {r.perf.events, r.perf.wallSec,
            r.perf.policyItersCpu + r.perf.policyItersMem +
                r.perf.policyItersDisk + r.perf.policyItersNet,
            toSeconds(r.simulatedTime), r.perf.setupSec};
}

/** A warm start of one point from its t=0 image: restore() replays
 *  the set-up, then loads the image; the restored run follows. */
struct WarmStart
{
    std::size_t imageBytes = 0;
    double setupSec = 0.0;  //!< restore()'s set-up replay
    double loadSec = 0.0;   //!< restore()'s image load
    std::uint64_t events = 0;
};

WarmStart
warmStartPoint(int cpus, int spus, Scheme scheme, Time horizon)
{
    std::ostringstream out;
    makePoint(cpus, spus, scheme, false, horizon)->checkpoint(out);
    const std::string image = std::move(out).str();

    auto sim = makePoint(cpus, spus, scheme, false, horizon);
    std::istringstream in(image);
    sim->restore(in);
    const SimResults r = sim->run();
    return {image.size(), r.perf.setupSec, r.perf.loadSec, r.perf.events};
}

void
printRow(int cpus, int spus, Scheme scheme, const char *mode,
         const Measured &m)
{
    std::printf("%5d %5d  %-5s %-6s %10llu %9.1f %8.0f %12llu\n",
                cpus, spus, schemeName(scheme), mode,
                static_cast<unsigned long long>(m.events),
                m.wallSec * 1e3, m.nsPerEvent(),
                static_cast<unsigned long long>(m.policyIters));
}

void
printHeader()
{
    std::printf("%5s %5s  %-5s %-6s %10s %9s %8s %12s\n", "cpus",
                "spus", "schm", "mode", "events", "wall ms",
                "ns/ev", "policy iters");
}

int
fail(const char *what, double got, double want)
{
    std::fprintf(stderr,
                 "ext_scale: FAIL %s (got %.3f, want %.3f)\n", what,
                 got, want);
    return 1;
}

/** The acceptance contract of the O(active) policy loops. */
int
check()
{
    const Time horizon = 10 * kSec;

    printHeader();
    const Measured small = runPoint(256, 8, Scheme::PIso, false,
                                    horizon);
    printRow(256, 8, Scheme::PIso, "lazy", small);
    const Measured big = runPoint(256, 512, Scheme::PIso, false,
                                  horizon);
    printRow(256, 512, Scheme::PIso, "lazy", big);
    const Measured eager = runPoint(256, 512, Scheme::PIso, true,
                                    horizon);
    printRow(256, 512, Scheme::PIso, "eager", eager);

    // Bit-exactness: the eager baseline replays the same simulation.
    if (eager.events != big.events)
        return fail("eager/lazy event divergence",
                    static_cast<double>(eager.events),
                    static_cast<double>(big.events));

    // Deterministic flatness: growing the population 64x may not blow
    // up the policy work against the same active set.
    if (static_cast<double>(big.policyIters) >
        8.0 * static_cast<double>(small.policyIters))
        return fail("policy iters vs population",
                    static_cast<double>(big.policyIters),
                    8.0 * static_cast<double>(small.policyIters));

    // Host flatness: 8 -> 512 configured SPUs at 256 CPUs costs at
    // most 2x per event.
    if (big.nsPerEvent() > 2.0 * small.nsPerEvent())
        return fail("ns/event flatness 8 -> 512 SPUs",
                    big.nsPerEvent(), 2.0 * small.nsPerEvent());

    // Headline speedup: the lazy loops beat the eager baseline >= 5x
    // on the big machine (the baseline's unskipped idle pass counts
    // towards it; see the file comment).
    if (eager.wallSec < 5.0 * big.wallSec)
        return fail("lazy speedup over eager baseline",
                    eager.wallSec / big.wallSec, 5.0);

    // A checkpoint images only what the set-up replay cannot rebuild,
    // so the big machine's t=0 image stays small however many files
    // its pmakes lay out. Restore against cold set-up is information:
    // wall time is not gated.
    const WarmStart warm = warmStartPoint(256, 512, Scheme::PIso, horizon);
    std::printf("t=0 image %zu bytes; restore %.1f ms (set-up replay "
                "%.1f + load %.1f) vs cold set-up %.1f ms\n",
                warm.imageBytes, (warm.setupSec + warm.loadSec) * 1e3,
                warm.setupSec * 1e3, warm.loadSec * 1e3,
                big.setupSec * 1e3);
    if (warm.events != big.events)
        return fail("warm/cold event divergence",
                    static_cast<double>(warm.events),
                    static_cast<double>(big.events));
    if (warm.imageBytes >= kMiB)
        return fail("t=0 image bytes at 256 CPUs x 512 SPUs",
                    static_cast<double>(warm.imageBytes),
                    static_cast<double>(kMiB));

    std::printf("ext_scale: OK (%.1fx over eager, ns/event %.0f -> "
                "%.0f)\n",
                eager.wallSec / big.wallSec, small.nsPerEvent(),
                big.nsPerEvent());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false;
    bool doCheck = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            quick = true;
        } else if (std::strcmp(argv[i], "--check") == 0) {
            doCheck = true;
        } else {
            std::fprintf(stderr,
                         "usage: ext_scale [--quick|--check]\n");
            return 2;
        }
    }

    if (doCheck)
        return check();

    const Time horizon = quick ? 2 * kSec : 10 * kSec;
    static const int kCpus[] = {8, 64, 256};
    static const int kSpus[] = {8, 64, 512};
    static const Scheme kSchemes[] = {Scheme::Smp, Scheme::Quota,
                                      Scheme::PIso};

    printHeader();
    for (int cpus : kCpus) {
        if (quick && cpus > 8)
            continue;
        for (int spus : kSpus) {
            if (quick && spus > 64)
                continue;
            for (Scheme scheme : kSchemes) {
                const Measured m =
                    runPoint(cpus, spus, scheme, false, horizon);
                printRow(cpus, spus, scheme, "lazy", m);
            }
        }
    }

    // The eager baseline on the biggest machine, for the table's sake.
    if (!quick) {
        const Measured m =
            runPoint(256, 512, Scheme::PIso, true, horizon);
        printRow(256, 512, Scheme::PIso, "eager", m);
    }
    return 0;
}
