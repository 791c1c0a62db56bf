#include "perfbench/src/workloads.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench/pmake8.hh"
#include "perfbench/src/probe.hh"
#include "src/config/workload_spec.hh"
#include "src/exp/experiment.hh"
#include "src/exp/runner.hh"
#include "src/metrics/report.hh"
#include "src/piso.hh"

using namespace piso;

namespace perfbench {

namespace {

double
secondsBetween(std::uint64_t t0, std::uint64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

double
usBetween(std::uint64_t t0, std::uint64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-3;
}

/** Per-layer counts of one finished simulation. Every value is an
 *  integer, so round sums are exact whatever the unit order. */
void
addResultCounts(const SimResults &r, std::map<std::string, double> &c)
{
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    c["sim.events"] += u(r.perf.events);
    c["core.policy_iters_cpu"] += u(r.perf.policyItersCpu);
    c["core.policy_iters_mem"] += u(r.perf.policyItersMem);
    c["core.policy_iters_disk"] += u(r.perf.policyItersDisk);
    c["core.policy_iters_net"] += u(r.perf.policyItersNet);

    const KernelStats &k = r.kernel;
    c["os.zero_fills"] += u(k.zeroFills.value());
    c["os.refaults"] += u(k.refaults.value());
    c["os.pageout_writes"] += u(k.pageoutWrites.value());
    c["os.cache_hits"] += u(k.cacheHits.value());
    c["os.cache_misses"] += u(k.cacheMisses.value());
    c["os.readahead_requests"] += u(k.readAheadRequests.value());
    c["os.bdflush_requests"] += u(k.bdflushRequests.value());
    c["os.sync_writes"] += u(k.syncWriteRequests.value());
    c["os.throttle_stalls"] += u(k.throttleStalls.value());
    c["os.io_retries"] += u(k.ioRetries.value());
    c["os.io_timeouts"] += u(k.ioTimeouts.value());

    // Simulated-clock disk figures, kept as integers (ppb of busy
    // fraction, us of summed queue wait) so sums stay exact.
    for (const DiskResult &d : r.disks) {
        c["machine.disk_requests"] += u(d.requests);
        c["machine.disk_sectors"] += u(d.sectors);
        c["machine.disk_count"] += 1;
        c["machine.disk_busy_ppb"] +=
            static_cast<double>(std::llround(d.busyFraction * 1e9));
        c["machine.disk_wait_us"] += static_cast<double>(std::llround(
            d.avgWaitMs * 1e3 * static_cast<double>(d.requests)));
    }
}

/** Probe counters accrued between two snapshots. */
void
addProbeCounts(const ProbeCounts &a, const ProbeCounts &b, UnitResult &out)
{
    const auto d = [](std::uint64_t x, std::uint64_t y) {
        return static_cast<double>(y - x);
    };
    out.counts["host.allocs"] += d(a.allocs, b.allocs);
    out.counts["workload.next_calls"] += d(a.nextCalls, b.nextCalls);
    static const char *kActionNames[kActKinds] = {
        "workload.actions.compute", "workload.actions.read",
        "workload.actions.write", "workload.actions.lock",
        "workload.actions.other"};
    for (std::size_t k = 0; k < kActKinds; ++k)
        out.counts[kActionNames[k]] += d(a.actions[k], b.actions[k]);
    if (b.nextCalls > a.nextCalls)
        out.hostTimes["workload.next_ns"] =
            d(a.nextNs, b.nextNs) / d(a.nextCalls, b.nextCalls);
}

/** Turns tracing instruments on for the duration of one timed call. */
class TracedCall
{
  public:
    explicit TracedCall(bool traced) : traced_(traced)
    {
        if (!traced_)
            return;
        before_ = probeCounts();
        setCountAllocs(true);
        setSampleGate(true);
    }

    /** Close the window; add the probe counts it saw to @p out. */
    void
    finish(UnitResult &out)
    {
        if (!traced_)
            return;
        setSampleGate(false);
        setCountAllocs(false);
        addProbeCounts(before_, probeCounts(), out);
    }

  private:
    bool traced_;
    ProbeCounts before_;
};

/** Host times of the set-up stages of one simulation. */
struct SetupTimes
{
    std::uint64_t parseNs = 0;  //!< 0 when built without a spec file
    std::uint64_t constructNs = 0;
    std::uint64_t populateNs = 0;
};

/**
 * A workload whose unit is one Simulation: set up, run(), format.
 * Subclasses say how to build the simulation of a unit.
 */
class SimWorkload : public Workload
{
  public:
    UnitResult
    run(const Unit &unit, bool traced) override
    {
        UnitResult out;
        SetupTimes st;
        const std::uint64_t t0 = nowNs();
        std::unique_ptr<Simulation> sim = setUp(unit, st);
        const std::uint64_t t1 = nowNs();

        TracedCall call(traced);
        const std::uint64_t t2 = nowNs();
        const SimResults r = sim->run();
        const std::uint64_t t3 = nowNs();
        call.finish(out);

        out.output = formatResultsJson(r);
        const std::uint64_t t4 = nowNs();

        out.completed = finished(r, sim->config());
        out.setupSec = secondsBetween(t0, t1);
        out.runSec = secondsBetween(t2, t3);
        out.sims = 1;
        out.events = r.perf.events;
        out.simSec = toSeconds(r.simulatedTime);
        if (!traced)
            return out;

        addResultCounts(r, out.counts);
        LockTable &locks = sim->kernel().locks();
        for (std::size_t i = 0; i < locks.count(); ++i) {
            const LockStats &ls = locks.stats(static_cast<int>(i));
            out.counts["os.lock_acquisitions"] +=
                static_cast<double>(ls.acquisitions.value());
            out.counts["os.lock_contended"] +=
                static_cast<double>(ls.contended.value());
        }
        if (st.parseNs > 0)
            out.hostTimes["config.parse_us"] =
                1e-3 * static_cast<double>(st.parseNs);
        out.hostTimes["simulation.construct_us"] =
            1e-3 * static_cast<double>(st.constructNs);
        out.hostTimes["simulation.populate_us"] =
            1e-3 * static_cast<double>(st.populateNs);
        out.hostTimes["metrics.format_us"] = usBetween(t3, t4);
        return out;
    }

  protected:
    /** Build (and time) the simulation of @p unit. */
    virtual std::unique_ptr<Simulation> setUp(const Unit &unit,
                                              SetupTimes &st) const = 0;

    /** Whether @p r is a complete run of this workload. */
    virtual bool
    finished(const SimResults &r, const SystemConfig &) const
    {
        return r.completed;
    }

    /** Construct from @p cfg and populate, timing both stages. */
    template <typename Populate>
    static std::unique_ptr<Simulation>
    construct(const SystemConfig &cfg, SetupTimes &st, Populate populate)
    {
        const std::uint64_t t0 = nowNs();
        auto sim = std::make_unique<Simulation>(cfg);
        const std::uint64_t t1 = nowNs();
        populate(*sim);
        const std::uint64_t t2 = nowNs();
        st.constructNs = t1 - t0;
        st.populateNs = t2 - t1;
        return sim;
    }

    /** Parse @p text, then construct and populate from the spec. */
    static std::unique_ptr<Simulation>
    fromSpec(const std::string &text, SetupTimes &st)
    {
        const std::uint64_t t0 = nowNs();
        const WorkloadSpec spec = parseWorkloadSpec(text);
        st.parseNs = nowNs() - t0;
        return construct(spec.config, st, [&spec](Simulation &sim) {
            populateWorkloadSpec(sim, spec);
        });
    }
};

Scheme
schemeOf(const std::string &point)
{
    if (point == "smp")
        return Scheme::Smp;
    if (point == "quota")
        return Scheme::Quota;
    return Scheme::PIso;
}

/** Figure 2: the unbalanced Pmake8 machine under SMP, Quo and PIso. */
class Pmake8 final : public SimWorkload
{
  public:
    std::vector<std::string> points() const override
    {
        return {"smp", "quota", "piso"};
    }
    std::uint64_t poolSize() const override { return 64; }
    std::size_t seedsPerRun() const override { return 31; }

  protected:
    std::unique_ptr<Simulation>
    setUp(const Unit &unit, SetupTimes &st) const override
    {
        return construct(bench::pmake8Config(schemeOf(unit.point),
                                             unit.seed),
                         st, [](Simulation &sim) {
                             bench::populatePmake8(sim, /*unbalanced=*/true);
                         });
    }
};

/** Table 3: a pmake against a 20 MB copy on one shared disk, under the
 *  pos / iso / piso disk policies, written as .piso text. */
class DiskCopy final : public SimWorkload
{
  public:
    std::vector<std::string> points() const override
    {
        return {"pos", "iso", "piso"};
    }
    std::uint64_t poolSize() const override { return 64; }
    std::size_t seedsPerRun() const override { return 23; }

  protected:
    std::unique_ptr<Simulation>
    setUp(const Unit &unit, SetupTimes &st) const override
    {
        char machine[256];
        std::snprintf(machine, sizeof machine,
                      "machine cpus=2 memory_mb=44 disks=1 scheme=piso "
                      "disk_policy=%s seek_scale=0.5 bw_threshold=1024 "
                      "seed=%" PRIu64 "\n",
                      unit.point.c_str(), unit.seed);
        return fromSpec(std::string(machine) +
                            "spu pmk share=1 disk=0\n"
                            "spu cpy share=1 disk=0\n"
                            "job pmk pmake name=pmake workers=2 files=40 "
                            "compile_ms=25 ws_pages=200\n"
                            "job cpy copy name=copy bytes_kb=20480\n",
                        st);
    }
};

/** ext_scale's check point: 256 CPUs, 512 SPUs, 8 of them active, a
 *  low-duty daemon in every SPU, 10 s horizon. SMP joins PIso and Quo
 *  as the point without per-SPU policy loops; with three points the
 *  median run time falls inside one scheme's cluster instead of on the
 *  gap between two. */
class Scale512 final : public SimWorkload
{
  public:
    std::vector<std::string> points() const override
    {
        return {"piso", "quota", "smp"};
    }
    std::uint64_t poolSize() const override { return 16; }
    std::size_t seedsPerRun() const override { return 2; }

  protected:
    static constexpr Time kHorizon = 10 * kSec;
    static constexpr int kSpus = 512;
    static constexpr int kActive = 8;

    std::unique_ptr<Simulation>
    setUp(const Unit &unit, SetupTimes &st) const override
    {
        SystemConfig cfg;
        cfg.cpus = 256;
        cfg.memoryBytes = 512 * kMiB;
        cfg.diskCount = 8;
        cfg.scheme = schemeOf(unit.point);
        cfg.maxTime = kHorizon;
        cfg.seed = unit.seed;
        return construct(cfg, st, [&cfg](Simulation &sim) {
            PmakeConfig pmake;
            pmake.parallelism = 2;
            pmake.filesPerWorker = 4096;  // busy past the horizon
            pmake.compileCpu = 2 * kMs;
            pmake.workerWsPages = 330;
            pmake.inodeLock = sim.kernel().createLock(true);
            for (int u = 0; u < kSpus; ++u) {
                const SpuId spu = sim.addSpu(
                    {.name = "u" + std::to_string(u),
                     .homeDisk = static_cast<DiskId>(u % cfg.diskCount)});
                if (u < kActive) {
                    sim.addJob(spu, makePmake("pm" + std::to_string(u) + "a",
                                              pmake));
                    sim.addJob(spu, makePmake("pm" + std::to_string(u) + "b",
                                              pmake));
                }
                std::vector<Action> script;
                const Time nap = 900 * kMs + static_cast<Time>(u) * kUs;
                for (int i = 0; i < 2 + static_cast<int>(toSeconds(kHorizon));
                     ++i) {
                    script.push_back(SleepAction{nap});
                    script.push_back(ComputeAction{50 * kUs});
                }
                sim.addJob(spu, makeScriptJob("d" + std::to_string(u),
                                              std::move(script)));
            }
        });
    }

    /** The active pmakes outlive the horizon by design: a complete run
     *  is one that reached it. */
    bool
    finished(const SimResults &r, const SystemConfig &cfg) const override
    {
        return r.simulatedTime >= cfg.maxTime;
    }
};

/**
 * ext_warm_start's plan: Ocean plus two hogs on 4 CPUs, swept over
 * eight disk-slowdown scenarios that diverge at 4 s, run by the sweep
 * engine with warm start on and two workers.
 */
class FaultSweep final : public Workload
{
  public:
    std::vector<std::string> points() const override { return {"warm"}; }
    std::uint64_t poolSize() const override { return 32; }
    std::size_t seedsPerRun() const override { return 15; }
    double timedShare() const override { return 0.25; }

    UnitResult
    run(const Unit &unit, bool traced) override
    {
        UnitResult out;
        const std::uint64_t t0 = nowNs();
        const exp::ExperimentPlan plan = makePlan(unit.seed);
        const std::uint64_t t1 = nowNs();

        exp::SweepOptions opts;
        opts.jobs = kWorkers;
        opts.warmStart = true;
        TracedCall call(traced);
        const std::uint64_t t2 = nowNs();
        const exp::SweepOutcome outcome = exp::runPlan(plan, opts);
        const std::uint64_t t3 = nowNs();
        call.finish(out);

        out.output = exp::formatSweepJsonl(outcome);
        const std::uint64_t t4 = nowNs();

        out.completed = outcome.failures() == 0;
        double busySec = 0.0;
        for (const exp::TaskRun &run : outcome.runs) {
            out.completed = out.completed && run.results.completed;
            out.events += run.results.perf.events;
            out.simSec += toSeconds(run.results.simulatedTime);
            busySec += run.results.perf.wallSec;
            if (traced)
                addResultCounts(run.results, out.counts);
        }
        out.setupSec = secondsBetween(t0, t1);
        out.runSec = secondsBetween(t2, t3);
        out.sims = outcome.runs.size();
        if (!traced)
            return out;

        out.counts["exp.tasks"] += static_cast<double>(outcome.runs.size());
        out.hostTimes["config.parse_us"] = usBetween(t0, t1);
        out.hostTimes["exp.run_plan_ms"] = 1e3 * secondsBetween(t2, t3);
        out.hostTimes["metrics.format_us"] = usBetween(t3, t4);
        if (outcome.wallSec > 0.0)
            out.hostTimes["exp.worker_idle_share"] =
                1.0 - busySec / (outcome.jobs * outcome.wallSec);
        if (!outcome.runs.empty() && outcome.runs.front().outcome.ok())
            out.completed =
                checkpointRoundTrip(plan.base,
                                    formatResultsJson(
                                        outcome.runs.front().results),
                                    out) &&
                out.completed;
        return out;
    }

    std::string
    referenceOutput(const Unit &unit) override
    {
        exp::SweepOptions opts;
        opts.jobs = 1;
        opts.warmStart = false;
        return exp::formatSweepJsonl(exp::runPlan(makePlan(unit.seed), opts));
    }

  private:
    static constexpr int kWorkers = 2;

    static exp::ExperimentPlan
    makePlan(std::uint64_t seed)
    {
        char machine[128];
        std::snprintf(machine, sizeof machine,
                      "machine cpus=4 memory_mb=32 disks=2 scheme=piso "
                      "seed=%" PRIu64 "\n",
                      seed);
        exp::ExperimentPlan plan;
        plan.base = parseWorkloadSpec(
            std::string(machine) +
            "spu ocean share=1 disk=0\n"
            "spu eng share=1 disk=1\n"
            "job ocean ocean name=sim procs=2 iters=60 grain_ms=20 "
            "ws_pages=400\n"
            "job eng compute name=hog1 cpu_ms=5000 ws_pages=300\n"
            "job eng compute name=hog2 cpu_ms=5000 ws_pages=300\n");
        plan.axes.push_back(exp::parseGridAxis(
            "fault_disk_slow=none,4:0.5:0:2,4:0.5:0:4,4:0.5:0:8,"
            "4:0.5:1:4,4:1:0:4,4:1:1:8,4.2:0.5:0:4"));
        return plan;
    }

    /**
     * The checkpoint layer timed from outside: run the plan's shared
     * prefix to the sweep engine's first template boundary (3/4 of the
     * 4 s divergence), where the run hands its image to the sink and
     * stops; time a Simulation::checkpoint() of the stopped run; then
     * time restore() of the sink's image onto a fresh simulation and
     * run the tail, which must reproduce the fault-free grid point
     * (@p coldJson).
     */
    static bool
    checkpointRoundTrip(const WorkloadSpec &base, const std::string &coldJson,
                        UnitResult &out)
    {
        WorkloadSpec prefix = base;
        std::string image;
        prefix.config.checkpointAt = 3 * kSec;
        prefix.config.checkpointDeadline = 4 * kSec;
        prefix.config.checkpointStop = true;
        prefix.config.checkpointSink = [&image](std::string img) {
            image = std::move(img);
        };
        Simulation first(prefix.config);
        populateWorkloadSpec(first, prefix);
        first.run();

        std::ostringstream saved;
        const std::uint64_t t0 = nowNs();
        first.checkpoint(saved);
        const std::uint64_t t1 = nowNs();

        Simulation resumed(base.config);
        populateWorkloadSpec(resumed, base);
        std::istringstream in(image);
        const std::uint64_t t2 = nowNs();
        resumed.restore(in);
        const std::uint64_t t3 = nowNs();
        const std::string json = formatResultsJson(resumed.run());

        out.hostTimes["checkpoint.save_ms"] = 1e3 * secondsBetween(t0, t1);
        out.hostTimes["checkpoint.restore_ms"] = 1e3 * secondsBetween(t2, t3);
        out.counts["checkpoint.image_bytes"] +=
            static_cast<double>(image.size());
        if (json != coldJson) {
            std::fprintf(stderr, "perfbench: restored run diverged from "
                                 "the cold grid point\n");
            return false;
        }
        return true;
    }
};

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"pmake8", "disk_copy", "scale_512", "fault_sweep"};
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "pmake8")
        return std::make_unique<Pmake8>();
    if (name == "disk_copy")
        return std::make_unique<DiskCopy>();
    if (name == "scale_512")
        return std::make_unique<Scale512>();
    if (name == "fault_sweep")
        return std::make_unique<FaultSweep>();
    return nullptr;
}

std::string
digest(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
    return hex;
}

} // namespace perfbench
