/**
 * @file
 * Big-machine scaling bench: host cost per simulated event as the
 * configured machine grows from 8 CPUs x 8 SPUs to 256 CPUs x 512
 * SPUs (extension; the paper's machine stops at 8 CPUs).
 *
 * The workload (bench/scale_point.hh) holds the *active* set fixed —
 * eight SPUs running the Figure 2 pmake shape — while the configured
 * SPU population grows, so the bench isolates exactly what the
 * O(active) policy loops claim: policy work and per-event host cost
 * must track the active set, not the population.
 *
 * The self-check contract (--check) is part of the release CI job's
 * gates, and the sweep output is a plain table.
 *
 *   ext_scale           full sweep table (a minute or so)
 *   ext_scale --quick   tiny structural run (ctest, label `scale`)
 *   ext_scale --check   assert the scaling contract:
 *                         - at 256 CPUs, 8 -> 512 SPUs raises the
 *                           policy-loop iterations by at most 4x,
 *                           under Quo and under PIso (deterministic
 *                           counts: the gate is exact; a loop that
 *                           walks every SPU or process blows it)
 *                         - under PIso the same growth raises host
 *                           ns/event by at most 2x
 *                         - the 256 x 512 PIso machine's t=0
 *                           checkpoint image is under 1 MiB (bytes are
 *                           deterministic, so the gate is exact), and
 *                           a run restored from it executes the cold
 *                           run's events; restore and cold set-up
 *                           times are printed, not gated
 *
 * tests/test_alloc_ceiling pins the 256 x 512 point's events and
 * per-resource policy iterations exactly, for Quo and PIso.
 */

#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>

#include "bench/scale_point.hh"
#include "src/piso.hh"

using namespace piso;
using piso::bench::makeScalePoint;

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

Measured
runPoint(int cpus, int spus, Scheme scheme, Time horizon)
{
    const SimResults r = makeScalePoint(cpus, spus, scheme, horizon)->run();
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
    makeScalePoint(cpus, spus, scheme, horizon)->checkpoint(out);
    const std::string image = std::move(out).str();

    auto sim = makeScalePoint(cpus, spus, scheme, horizon);
    std::istringstream in(image);
    sim->restore(in);
    const SimResults r = sim->run();
    return {image.size(), r.perf.setupSec, r.perf.loadSec, r.perf.events};
}

void
printRow(int cpus, int spus, Scheme scheme, const Measured &m)
{
    std::printf("%5d %5d  %-5s %10llu %9.1f %8.0f %12llu\n",
                cpus, spus, schemeName(scheme),
                static_cast<unsigned long long>(m.events),
                m.wallSec * 1e3, m.nsPerEvent(),
                static_cast<unsigned long long>(m.policyIters));
}

void
printHeader()
{
    std::printf("%5s %5s  %-5s %10s %9s %8s %12s\n", "cpus", "spus",
                "schm", "events", "wall ms", "ns/ev", "policy iters");
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
    Measured pisoSmall;
    Measured pisoBig;
    for (const Scheme scheme : {Scheme::Quota, Scheme::PIso}) {
        const Measured small = runPoint(256, 8, scheme, horizon);
        printRow(256, 8, scheme, small);
        const Measured big = runPoint(256, 512, scheme, horizon);
        printRow(256, 512, scheme, big);

        // Deterministic flatness: growing the population 64x may not
        // blow up the policy work against the same active set.
        if (static_cast<double>(big.policyIters) >
            4.0 * static_cast<double>(small.policyIters)) {
            const std::string what = std::string("policy iters vs "
                                                 "population, ") +
                                     schemeName(scheme);
            return fail(what.c_str(),
                        static_cast<double>(big.policyIters),
                        4.0 * static_cast<double>(small.policyIters));
        }
        if (scheme == Scheme::PIso) {
            pisoSmall = small;
            pisoBig = big;
        }
    }

    // Host flatness: 8 -> 512 configured SPUs at 256 CPUs costs at
    // most 2x per event.
    if (pisoBig.nsPerEvent() > 2.0 * pisoSmall.nsPerEvent())
        return fail("ns/event flatness 8 -> 512 SPUs",
                    pisoBig.nsPerEvent(), 2.0 * pisoSmall.nsPerEvent());

    // A checkpoint images only what the set-up replay cannot rebuild,
    // so the big machine's t=0 image stays small however many files
    // its pmakes lay out. Restore against cold set-up is information:
    // wall time is not gated.
    const WarmStart warm = warmStartPoint(256, 512, Scheme::PIso, horizon);
    std::printf("t=0 image %zu bytes; restore %.1f ms (set-up replay "
                "%.1f + load %.1f) vs cold set-up %.1f ms\n",
                warm.imageBytes, (warm.setupSec + warm.loadSec) * 1e3,
                warm.setupSec * 1e3, warm.loadSec * 1e3,
                pisoBig.setupSec * 1e3);
    if (warm.events != pisoBig.events)
        return fail("warm/cold event divergence",
                    static_cast<double>(warm.events),
                    static_cast<double>(pisoBig.events));
    if (warm.imageBytes >= kMiB)
        return fail("t=0 image bytes at 256 CPUs x 512 SPUs",
                    static_cast<double>(warm.imageBytes),
                    static_cast<double>(kMiB));

    std::printf("ext_scale: OK (ns/event %.0f -> %.0f)\n",
                pisoSmall.nsPerEvent(), pisoBig.nsPerEvent());
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
                const Measured m = runPoint(cpus, spus, scheme, horizon);
                printRow(cpus, spus, scheme, m);
            }
        }
    }
    return 0;
}
