#ifndef PISO_BENCH_SCALE_POINT_HH
#define PISO_BENCH_SCALE_POINT_HH

/**
 * @file
 * The big-machine scaling point of bench/ext_scale: @p cpus CPUs and
 * @p spus configured SPUs (flat, or as leaves under @p groups
 * top-level groups), of which at most eight run the Figure 2
 * pmake shape while every SPU hosts a low-duty daemon. The active set
 * stays fixed as the population grows, so the policy loops' work must
 * track the active set, not the population. tests/test_alloc_ceiling
 * pins the 256 x 512 point's work counters.
 */

#include <memory>
#include <string>
#include <vector>

#include "src/piso.hh"

namespace piso::bench {

/** One fixed-horizon machine, populated but not run. */
inline std::unique_ptr<Simulation>
makeScalePoint(int cpus, int spus, Scheme scheme, Time horizon,
               int groups = 0)
{
    SystemConfig cfg;
    cfg.cpus = cpus;
    cfg.memoryBytes = 512 * kMiB;
    cfg.diskCount = 8;
    cfg.scheme = scheme;
    cfg.maxTime = horizon;

    auto simPtr = std::make_unique<Simulation>(cfg);
    Simulation &sim = *simPtr;

    // Short compiles make the workload scheduling-bound: every segment
    // end parks the worker in disk I/O and forces a fresh pick, which
    // is exactly the path whose cost must not scale with the SPU
    // population. filesPerWorker keeps the active SPUs busy past every
    // horizon the bench uses.
    PmakeConfig pmake;
    pmake.parallelism = 2;
    pmake.filesPerWorker = 4096;
    pmake.compileCpu = 2 * kMs;
    pmake.workerWsPages = 330;
    pmake.inodeLock = sim.kernel().createLock(true);

    // With @p groups, the SPUs are dealt round-robin under that many
    // top-level groups: the same population as a tree.
    std::vector<SpuId> parents;
    for (int g = 0; g < groups; ++g)
        parents.push_back(sim.addSpu({.name = "g" + std::to_string(g)}));
    const int active = spus < 8 ? spus : 8;
    for (int u = 0; u < spus; ++u) {
        const SpuId spu = sim.addSpu(
            {.name = "u" + std::to_string(u),
             .homeDisk = static_cast<DiskId>(u % cfg.diskCount),
             .parent = parents.empty()
                           ? kNoSpu
                           : parents[static_cast<std::size_t>(u) %
                                     parents.size()]});
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
        // enters the scheduler and memory registries, so a loop that
        // walks every SPU pays O(population) per pick while the
        // O(active) paths keep paying only for whoever is awake.
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

} // namespace piso::bench

#endif // PISO_BENCH_SCALE_POINT_HH
