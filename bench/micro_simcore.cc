/**
 * @file
 * Microbenchmarks of the simulator substrate itself (google-benchmark):
 * event-queue throughput, disk-model service-time evaluation, and a
 * full small simulation per iteration. These guard the simulator's
 * own performance — the experiment harnesses run hundreds of
 * simulated seconds and need the core loops tight.
 */

#include <benchmark/benchmark.h>

#include "src/piso.hh"

using namespace piso;

namespace {

/** Counts the events fired on it. */
struct CountingSink final : EventSink
{
    std::uint64_t fired = 0;

    void fire(EvKind, const EventArg &) override { ++fired; }
};

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int batch = static_cast<int>(state.range(0));
    for (auto _ : state) {
        EventQueue q;
        CountingSink sink;
        for (int i = 0; i < batch; ++i) {
            q.schedule(static_cast<Time>((i * 7919) % 100000),
                       EvKind::External, sink);
        }
        q.runAll();
        benchmark::DoNotOptimize(sink.fired);
    }
    state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000);

void
BM_EventQueueCancel(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue q;
        CountingSink sink;
        std::vector<EventId> ids;
        ids.reserve(1000);
        for (int i = 0; i < 1000; ++i) {
            ids.push_back(
                q.schedule(static_cast<Time>(i), EvKind::External, sink));
        }
        for (EventId id : ids)
            q.cancel(id);
        q.runAll();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueCancel);

void
BM_DiskModelService(benchmark::State &state)
{
    DiskModel model{DiskParams{}};
    Rng rng(1);
    std::uint64_t head = 0;
    for (auto _ : state) {
        const std::uint64_t target =
            (head * 16807 + 12345) % (model.totalSectors() - 64);
        const DiskServiceTime st = model.service(head, target, 64, rng);
        benchmark::DoNotOptimize(st.total());
        head = target + 64;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DiskModelService);

void
BM_RngExponential(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.exponentialTime(3 * kMs));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponential);

void
BM_FullSmallSimulation(benchmark::State &state)
{
    const Scheme scheme = static_cast<Scheme>(state.range(0));
    for (auto _ : state) {
        SystemConfig cfg;
        cfg.cpus = 4;
        cfg.memoryBytes = 24 * kMiB;
        cfg.diskCount = 2;
        cfg.scheme = scheme;
        cfg.seed = 5;
        Simulation sim(cfg);
        const SpuId a = sim.addSpu({.name = "a", .homeDisk = 0});
        const SpuId b = sim.addSpu({.name = "b", .homeDisk = 1});
        PmakeConfig pm;
        pm.parallelism = 2;
        pm.filesPerWorker = 6;
        sim.addJob(a, makePmake("pm", pm));
        FileCopyConfig cc;
        cc.bytes = 4 * kMiB;
        sim.addJob(b, makeFileCopy("cp", cc));
        const SimResults r = sim.run();
        benchmark::DoNotOptimize(r.simulatedTime);
    }
}
BENCHMARK(BM_FullSmallSimulation)
    ->Arg(static_cast<int>(Scheme::Smp))
    ->Arg(static_cast<int>(Scheme::Quota))
    ->Arg(static_cast<int>(Scheme::PIso))
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
