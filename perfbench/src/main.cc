/**
 * @file
 * perfbench: the repository benchmark's driver process.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --reference FILE [--golden-dir DIR]
 *   perfbench --record FILE [--golden-dir DIR]
 *
 * One run measures one workload for S seconds as a closed loop of
 * whole rounds (every unit of the run once, in a seeded order), scales
 * each round's timings for host contention (see calibrate()), and
 * checks every unit's output digest against the reference file.
 * --trace 0 prints the end-to-end metrics; --trace 1 runs a short
 * untraced pass, then traced rounds, and prints the per-layer metrics
 * plus the raw PC samples (perfbench/run.py resolves them to modules).
 * --record recomputes the reference digests of every workload.
 *
 * Output is one JSON object on stdout; progress goes to stderr.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/probe.hh"
#include "perfbench/src/workloads.hh"

namespace perfbench {
namespace {

/** Host CPU time between samples of the traced pass. */
constexpr int kSampleIntervalUs = 1000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string reference;
    std::string goldenDir;
    std::string record;
};

/** splitmix64: a portable generator, so a seed names the same inputs
 *  on every platform and standard library. */
class SeedRng
{
  public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t
    next()
    {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    std::size_t
    below(std::size_t n)
    {
        return static_cast<std::size_t>(next() % n);
    }

    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::uint64_t state_;
};

using Reference = std::map<std::string, std::string>;

std::string
refKey(const std::string &workload, const Unit &u)
{
    return workload + " " + u.point + " " + std::to_string(u.seed);
}

bool
loadReference(const std::string &path, Reference &ref)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string workload, point, digestHex;
        std::uint64_t seed = 0;
        if (!(ls >> workload >> point >> seed >> digestHex))
            return false;
        ref[refKey(workload, {point, seed})] = digestHex;
    }
    return !ref.empty();
}

/** The golden fixtures that pin the seed-1 points (file -> key). */
const std::vector<std::pair<std::string, std::string>> &
goldenKeys()
{
    static const std::vector<std::pair<std::string, std::string>> keys = {
        {"fig2_smp.json", "pmake8 smp 1"},
        {"fig2_quota.json", "pmake8 quota 1"},
        {"fig2_piso.json", "pmake8 piso 1"},
        {"table3_pos.json", "disk_copy pos 1"},
        {"table3_iso.json", "disk_copy iso 1"},
        {"table3_piso.json", "disk_copy piso 1"},
    };
    return keys;
}

/** Compare the golden files of @p workload (all workloads when empty)
 *  with the reference digests. A missing golden dir checks nothing. */
bool
goldensMatch(const std::string &dir, const std::string &workload,
             const Reference &ref)
{
    if (dir.empty())
        return true;
    bool ok = true;
    for (const auto &[file, key] : goldenKeys()) {
        if (!workload.empty() && key.rfind(workload + " ", 0) != 0)
            continue;
        std::ifstream in(dir + "/" + file, std::ios::binary);
        if (!in)
            continue;
        std::ostringstream bytes;
        bytes << in.rdbuf();
        const auto it = ref.find(key);
        if (it == ref.end() || it->second != digest(bytes.str())) {
            std::fprintf(stderr,
                         "perfbench: golden %s does not match the "
                         "reference digest of %s\n",
                         file.c_str(), key.c_str());
            ok = false;
        }
    }
    return ok;
}

/** The units of one run: every point at seed 1 and at
 *  seedsPerRun() seeds drawn from 2..poolSize(). */
std::vector<Unit>
chooseUnits(const Workload &wl, SeedRng &rng)
{
    std::vector<std::uint64_t> pool;
    for (std::uint64_t s = 2; s <= wl.poolSize(); ++s)
        pool.push_back(s);
    rng.shuffle(pool);
    pool.resize(std::min(pool.size(), wl.seedsPerRun()));
    pool.insert(pool.begin(), 1);
    std::sort(pool.begin(), pool.end());

    std::vector<Unit> units;
    for (const std::string &p : wl.points()) {
        for (std::uint64_t s : pool)
            units.push_back({p, s});
    }
    return units;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
median(const std::vector<double> &v)
{
    return percentile(v, 0.5);
}

/** Peak resident set of this process (VmHWM), in MiB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * Host contention on the machine this benchmark was built on (a shared
 * 4-vCPU VM) comes from other tenants' cache and memory traffic, in
 * epochs of seconds to minutes: it slowed whole runs by up to 70% with
 * no steal time recorded, while a register-only loop kept its speed.
 * calibrate() runs a fixed memory-bound kernel (a shuffle and a
 * pointer chase over 2 MiB, tree inserts, heap pushes), and each
 * round's timings are scaled by kCalibrationRefSec over the kernel's
 * time around that round. The kernel works only in static storage, so
 * the heap state a simulation leaves behind cannot change its time; it
 * does share the host caches with the round before it. So the
 * end-to-end figures read as host time at the build host's uncontended
 * speed: across runs they spread a few percent instead of tens, and a
 * change to the simulator still moves them one for one. Every untraced
 * run also prints its unadjusted figures on stderr.
 */
constexpr double kCalibrationRefSec = 0.0080;

constexpr std::size_t kChaseSlots = std::size_t{1} << 19;  // 2 MiB
constexpr std::size_t kTreeNodes = 20000;

/** The calibration kernel's storage: a pointer-chase ring, a binary
 *  search tree in a node pool (index 0 is null) and a binary heap. */
struct CalibrationStore
{
    struct Node
    {
        std::uint64_t key;
        std::uint64_t value;
        std::uint32_t child[2];
    };
    std::uint32_t chase[kChaseSlots];
    Node tree[kTreeNodes + 1];
    std::uint64_t heap[kTreeNodes];
};

CalibrationStore gCalibration;
volatile std::uint64_t gCalibrationSink = 0;

/** @return host seconds one pass of the calibration kernel took. */
double
calibrate()
{
    CalibrationStore &cs = gCalibration;
    const std::uint64_t t0 = nowNs();
    std::uint64_t x = 12345;
    const auto step = [&x] {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return x >> 20;
    };
    for (std::uint32_t i = 0; i < kChaseSlots; ++i)
        cs.chase[i] = i;
    for (std::size_t i = kChaseSlots - 1; i > 0; --i)
        std::swap(cs.chase[i], cs.chase[step() % (i + 1)]);

    cs.tree[0] = {};
    std::uint32_t nodes = 0;
    std::size_t heapSize = 0;
    for (std::uint64_t i = 0; i < kTreeNodes; ++i) {
        const std::uint64_t key = step() >> 20;
        std::uint32_t *link = &cs.tree[0].child[0];  // the root
        while (*link != 0 && cs.tree[*link].key != key)
            link = &cs.tree[*link].child[key > cs.tree[*link].key];
        if (*link == 0) {
            *link = ++nodes;
            cs.tree[nodes] = {key, 0, {0, 0}};
        }
        cs.tree[*link].value += i;

        cs.heap[heapSize++] = step();
        std::push_heap(cs.heap, cs.heap + heapSize);
        if (i % 3 == 0)
            std::pop_heap(cs.heap, cs.heap + heapSize--);
    }

    std::uint32_t p = 0;
    for (int i = 0; i < 200000; ++i)
        p = cs.chase[p];
    std::uint64_t acc = p + heapSize;
    for (std::uint32_t n = 1; n <= nodes; ++n)
        acc += cs.tree[n].key ^ cs.tree[n].value;
    gCalibrationSink = acc;
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/** Timings of one measured round, as measured, with the contention
 *  factor they are scaled by (see calibrate()). */
struct Round
{
    double factor = 1.0;
    double wallSec = 0.0;  //!< the whole round: set-up, run, output, check
    double setupSec = 0.0;
    double sims = 0.0;
    double events = 0.0;
    double simSec = 0.0;
    std::vector<double> runMs;  //!< one per unit

    double
    scale(bool adjusted) const
    {
        return adjusted ? factor : 1.0;
    }
};

/** Everything one pass measured. */
struct Pass
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Round> rounds;
    std::vector<double> calibrationSec;

    /** Traced passes: host time inside the sampled calls and the events
     *  they ran; the first round's counts, whether every later round
     *  repeated them, and every unit's host timings (not adjusted). */
    double runSec = 0.0;
    std::uint64_t events = 0;
    std::map<std::string, double> counts;
    bool countsRepeat = true;
    std::map<std::string, std::vector<double>> hostTimes;

    /** The rounds run times and rates come from: the fastest @p share
     *  of them by adjusted wall time (at least one; see
     *  Workload::timedShare()). */
    std::vector<const Round *>
    timed(double share) const
    {
        std::vector<const Round *> t;
        for (const Round &r : rounds)
            t.push_back(&r);
        std::sort(t.begin(), t.end(), [](const Round *a, const Round *b) {
            return a->wallSec * a->factor < b->wallSec * b->factor;
        });
        const auto keep = static_cast<std::size_t>(
            std::ceil(share * static_cast<double>(t.size())));
        t.resize(std::min(t.size(), std::max<std::size_t>(keep, 1)));
        return t;
    }

    /** Unit run times of the timed rounds. */
    std::vector<double>
    runMs(double share, bool adjusted) const
    {
        std::vector<double> ms;
        for (const Round *r : timed(share)) {
            for (const double v : r->runMs)
                ms.push_back(v * r->scale(adjusted));
        }
        return ms;
    }
};

class Runner
{
  public:
    Runner(std::string name, Workload &wl, const Reference &ref)
        : name_(std::move(name)), wl_(wl), ref_(ref)
    {
    }

    /** Run one unit and check its output; failures are counted, not
     *  thrown. */
    bool
    runChecked(const Unit &u, bool traced, Pass &pass, UnitResult &r)
    {
        ++pass.attempted;
        try {
            r = wl_.run(u, traced);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: %s %s seed %" PRIu64
                                 " threw: %s\n",
                         name_.c_str(), u.point.c_str(), u.seed, e.what());
            ++pass.failed;
            return false;
        }
        const auto it = ref_.find(refKey(name_, u));
        const bool matches =
            it != ref_.end() && it->second == digest(r.output);
        if (!r.completed || !matches) {
            std::fprintf(stderr, "perfbench: %s %s seed %" PRIu64 " %s\n",
                         name_.c_str(), u.point.c_str(), u.seed,
                         !r.completed ? "did not complete"
                                      : "output digest differs from the "
                                        "reference");
            ++pass.failed;
            return false;
        }
        return true;
    }

    /**
     * Closed loop of whole rounds until @p seconds have elapsed (at
     * least @p minRounds). The first round of an untraced pass warms
     * caches and the allocator and is checked but not measured.
     */
    Pass
    runPass(std::vector<Unit> units, SeedRng &rng, double seconds,
            bool traced, std::size_t minRounds)
    {
        Pass pass;
        if (!traced) {
            UnitResult r;
            for (const Unit &u : units)
                runChecked(u, false, pass, r);
        }
        double calibBefore = calibrate();
        const std::uint64_t start = nowNs();
        while (pass.rounds.size() < minRounds ||
               static_cast<double>(nowNs() - start) * 1e-9 < seconds) {
            rng.shuffle(units);
            const std::uint64_t roundStart = nowNs();
            Round round;
            std::map<std::string, double> counts;
            for (const Unit &u : units) {
                UnitResult r;
                if (!runChecked(u, traced, pass, r))
                    continue;
                round.setupSec += r.setupSec;
                round.sims += static_cast<double>(r.sims);
                round.events += static_cast<double>(r.events);
                round.simSec += r.simSec;
                round.runMs.push_back(r.runSec * 1e3);
                pass.runSec += r.runSec;
                pass.events += r.events;
                for (const auto &[k, v] : r.counts)
                    counts[k] += v;
                for (const auto &[k, v] : r.hostTimes)
                    pass.hostTimes[k].push_back(v);
            }
            round.wallSec = static_cast<double>(nowNs() - roundStart) * 1e-9;

            // The round's contention factor: the reference time of the
            // calibration kernel over its mean time just before and
            // just after the round.
            const double calibAfter = calibrate();
            pass.calibrationSec.push_back(calibAfter);
            round.factor =
                kCalibrationRefSec / (0.5 * (calibBefore + calibAfter));
            calibBefore = calibAfter;

            if (traced) {
                if (pass.rounds.empty()) {
                    pass.counts = counts;
                } else if (counts != pass.counts) {
                    pass.countsRepeat = false;
                    reportCountDiff(pass.counts, counts);
                }
            }
            pass.rounds.push_back(std::move(round));
        }
        return pass;
    }

  private:
    static void
    reportCountDiff(const std::map<std::string, double> &a,
                    const std::map<std::string, double> &b)
    {
        for (const auto &[k, v] : b) {
            const auto it = a.find(k);
            const double was = it == a.end() ? 0.0 : it->second;
            if (was != v)
                std::fprintf(stderr,
                             "perfbench: exact counter %s changed between "
                             "traced rounds: %.17g -> %.17g\n",
                             k.c_str(), was, v);
        }
    }

    std::string name_;
    Workload &wl_;
    const Reference &ref_;
};

/** The reported run-time percentile: p90 when at least ten samples lie
 *  beyond it, else the highest percentile that has ten beyond it. */
double
tailQuantile(std::size_t n)
{
    if (n == 0)
        return 0.9;
    return std::clamp(1.0 - 10.0 / static_cast<double>(n), 0.5, 0.9);
}

/** Set-up: median over every round. Run time and rates: over the timed
 *  rounds (see Workload::timedShare()). @p adjusted scales each round
 *  by its contention factor. */
std::vector<Metric>
endToEndMetrics(const Pass &p, double share, bool adjusted)
{
    std::vector<double> setup, sims, events, simSec;
    for (const Round &r : p.rounds)
        setup.push_back(r.setupSec * r.scale(adjusted));
    const std::vector<const Round *> timed = p.timed(share);
    for (const Round *r : timed) {
        const double wall = r->wallSec * r->scale(adjusted);
        sims.push_back(r->sims / wall);
        events.push_back(r->events / wall);
        simSec.push_back(r->simSec / wall);
    }
    const std::vector<double> runMs = p.runMs(share, adjusted);
    const double q = tailQuantile(runMs.size());
    if (adjusted)
        std::fprintf(stderr,
                     "perfbench: %zu rounds, timings from %zu; %zu run-time "
                     "samples, run_ms_p90 is the p%.1f; calibration median "
                     "%.3f ms against %.3f\n",
                     p.rounds.size(), timed.size(), runMs.size(), q * 100,
                     1e3 * median(p.calibrationSec),
                     1e3 * kCalibrationRefSec);
    return {
        {"setup_s", median(setup), "s"},
        {"run_ms_p50", median(runMs), "ms"},
        {"run_ms_p90", percentile(runMs, q), "ms"},
        {"sims_per_s", median(sims), "1/s"},
        {"events_per_s", median(events), "1/s"},
        {"simsec_per_s", median(simSec), "s/s"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
}

std::vector<Metric>
perLayerMetrics(const Pass &traced, const Pass &untraced, double share)
{
    const auto count = [&traced](const char *k) {
        const auto it = traced.counts.find(k);
        return it == traced.counts.end() ? 0.0 : it->second;
    };
    const auto host = [&traced](const char *k) {
        const auto it = traced.hostTimes.find(k);
        return it == traced.hostTimes.end() ? 0.0 : median(it->second);
    };
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

    const double hits = count("os.cache_hits");
    const double misses = count("os.cache_misses");
    const double untracedP50 = median(untraced.runMs(share, true));
    const double tracedP50 = median(traced.runMs(share, true));
    const std::vector<double> untrimmed = untraced.runMs(1.0, true);

    return {
        {"simulation.construct_us", host("simulation.construct_us"), "us"},
        {"simulation.populate_us", host("simulation.populate_us"), "us"},
        {"config.parse_us", host("config.parse_us"), "us"},
        {"sim.events", count("sim.events"), "count"},
        {"checkpoint.save_ms", host("checkpoint.save_ms"), "ms"},
        {"checkpoint.restore_ms", host("checkpoint.restore_ms"), "ms"},
        {"checkpoint.image_kb", count("checkpoint.image_bytes") / 1024.0,
         "KiB"},
        {"core.policy_iters_cpu", count("core.policy_iters_cpu"), "count"},
        {"core.policy_iters_mem", count("core.policy_iters_mem"), "count"},
        {"core.policy_iters_disk", count("core.policy_iters_disk"), "count"},
        {"core.policy_iters_net", count("core.policy_iters_net"), "count"},
        {"os.zero_fills", count("os.zero_fills"), "count"},
        {"os.refaults", count("os.refaults"), "count"},
        {"os.pageout_writes", count("os.pageout_writes"), "count"},
        {"os.cache_hits", hits, "count"},
        {"os.cache_misses", misses, "count"},
        {"os.cache_hit_ratio", ratio(hits, hits + misses), "ratio"},
        {"os.readahead_requests", count("os.readahead_requests"), "count"},
        {"os.bdflush_requests", count("os.bdflush_requests"), "count"},
        {"os.sync_writes", count("os.sync_writes"), "count"},
        {"os.throttle_stalls", count("os.throttle_stalls"), "count"},
        {"os.lock_acquisitions", count("os.lock_acquisitions"), "count"},
        {"os.lock_contended", count("os.lock_contended"), "count"},
        {"os.io_retries", count("os.io_retries"), "count"},
        {"os.io_timeouts", count("os.io_timeouts"), "count"},
        {"machine.disk_requests", count("machine.disk_requests"), "count"},
        {"machine.disk_sectors", count("machine.disk_sectors"), "count"},
        {"machine.disk_busy_frac",
         ratio(count("machine.disk_busy_ppb") * 1e-9,
               count("machine.disk_count")),
         "ratio"},
        {"machine.disk_wait_ms",
         ratio(count("machine.disk_wait_us") * 1e-3,
               count("machine.disk_requests")),
         "ms"},
        {"workload.next_calls", count("workload.next_calls"), "count"},
        {"workload.next_ns", host("workload.next_ns"), "ns"},
        {"workload.actions.compute", count("workload.actions.compute"),
         "count"},
        {"workload.actions.read", count("workload.actions.read"), "count"},
        {"workload.actions.write", count("workload.actions.write"), "count"},
        {"workload.actions.lock", count("workload.actions.lock"), "count"},
        {"workload.actions.other", count("workload.actions.other"), "count"},
        {"metrics.format_us", host("metrics.format_us"), "us"},
        {"exp.run_plan_ms", host("exp.run_plan_ms"), "ms"},
        {"exp.tasks", count("exp.tasks"), "count"},
        {"exp.worker_idle_share", host("exp.worker_idle_share"), "ratio"},
        {"exp.run_ms_p50_untrimmed", median(untrimmed), "ms"},
        {"exp.run_ms_p90_untrimmed",
         percentile(untrimmed, tailQuantile(untrimmed.size())), "ms"},
        {"host.allocs", count("host.allocs"), "count"},
        {"host.allocs_per_event",
         ratio(count("host.allocs"), count("sim.events")), "count/event"},
        {"trace.overhead_ratio", ratio(tracedP50, untracedP50), "ratio"},
        {"trace.run_ms_p50_traced", tracedP50, "ms"},
        {"trace.run_ms_p50_untraced", untracedP50, "ms"},
        {"trace.run_ms_p50_unadjusted", median(untraced.runMs(share, false)),
         "ms"},
        {"host.calibration_ms", 1e3 * median(traced.calibrationSec), "ms"},
    };
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics, const Pass *traced,
          const Profile *profile)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}");
    if (traced && profile) {
        // Raw material for run.py's module split: the gated host time
        // and events of the traced pass, and the PC histogram.
        std::printf(", \"profile\": {\"gated_sec\": %.17g, \"events\": %" PRIu64
                    ", \"rounds\": %zu, \"alloc_samples\": %" PRIu64
                    ", \"dropped\": %" PRIu64 ", \"stacks\": [",
                    traced->runSec, traced->events, traced->rounds.size(),
                    profile->allocSamples, profile->dropped);
        bool first = true;
        for (const auto &[stack, n] : profile->stacks) {
            std::printf("%s[%" PRIu64, first ? "" : ", ", n);
            for (const std::uintptr_t pc : stack)
                std::printf(", %" PRIuPTR, pc);
            std::printf("]");
            first = false;
        }
        std::printf("]}");
    }
    std::printf("}\n");
}

int
record(const Options &opt)
{
    Reference ref;
    std::ostringstream file;
    file << "# perfbench reference digests: workload point seed "
            "fnv1a64(output)\n"
            "# Regenerate with: python3 perfbench/run.py --record\n";
    bool ok = true;
    for (const std::string &name : workloadNames()) {
        std::unique_ptr<Workload> wl = makeWorkload(name);
        for (const std::string &p : wl->points()) {
            for (std::uint64_t s = 1; s <= wl->poolSize(); ++s) {
                const Unit u{p, s};
                const std::string d = digest(wl->referenceOutput(u));
                // The run's own path must agree with the reference
                // path (warm vs cold for fault_sweep).
                const UnitResult r = wl->run(u, false);
                if (!r.completed || digest(r.output) != d) {
                    std::fprintf(stderr,
                                 "perfbench: %s %s seed %" PRIu64
                                 ": run output differs from the "
                                 "reference path\n",
                                 name.c_str(), p.c_str(), s);
                    ok = false;
                }
                ref[refKey(name, u)] = d;
                file << name << ' ' << p << ' ' << s << ' ' << d << '\n';
            }
            std::fprintf(stderr, "perfbench: recorded %s %s\n", name.c_str(),
                         p.c_str());
        }
    }
    ok = goldensMatch(opt.goldenDir, "", ref) && ok;
    std::ofstream out(opt.record, std::ios::trunc);
    out << file.str();
    if (!out.good()) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.record.c_str());
        return 1;
    }
    return ok ? 0 : 1;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --reference FILE [--golden-dir DIR]\n"
                 "       perfbench --record FILE [--golden-dir DIR]\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return false;
        const char *v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v, &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v, &end);
            if (!(opt.seconds > 0.0))
                return false;
        } else if (a == "--trace") {
            opt.trace = std::strcmp(v, "1") == 0;
            if (!opt.trace && std::strcmp(v, "0") != 0)
                return false;
        } else if (a == "--reference") {
            opt.reference = v;
        } else if (a == "--golden-dir") {
            opt.goldenDir = v;
        } else if (a == "--record") {
            opt.record = v;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return true;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return usage();
    if (!opt.record.empty())
        return record(opt);

    std::unique_ptr<Workload> wl = makeWorkload(opt.workload);
    if (!wl) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return usage();
    }
    Reference ref;
    if (!loadReference(opt.reference, ref)) {
        std::fprintf(stderr, "perfbench: cannot read reference digests "
                             "from '%s'\n",
                     opt.reference.c_str());
        return 2;
    }
    const bool goldensOk = goldensMatch(opt.goldenDir, opt.workload, ref);

    SeedRng rng(opt.seed);
    const std::vector<Unit> units = chooseUnits(*wl, rng);
    Runner runner(opt.workload, *wl, ref);
    calibrate();  // first touch of the kernel's storage

    if (!opt.trace) {
        const Pass pass = runner.runPass(units, rng, opt.seconds, false, 1);
        for (const Metric &m : endToEndMetrics(pass, wl->timedShare(), false))
            std::fprintf(stderr, "perfbench: unadjusted %s %.6g %s\n",
                         m.name.c_str(), m.value, m.unit.c_str());
        if (wl->timedShare() < 1.0) {
            for (const Metric &m : endToEndMetrics(pass, 1.0, true))
                std::fprintf(stderr, "perfbench: untrimmed %s %.6g %s\n",
                             m.name.c_str(), m.value, m.unit.c_str());
        }
        printJson(goldensOk && pass.failed == 0, pass.attempted, pass.failed,
                  endToEndMetrics(pass, wl->timedShare(), true), nullptr,
                  nullptr);
        return 0;
    }

    // Traced run: an untraced pass for the overhead ratio's base, then
    // traced rounds (at least two, so every exact counter is seen to
    // repeat) for the rest of the time.
    const Pass plain = runner.runPass(units, rng, opt.seconds / 3, false, 1);
    setDecorateJobs(true);
    startSampler(kSampleIntervalUs);
    const Pass traced =
        runner.runPass(units, rng, opt.seconds * 2 / 3, true, 2);
    stopSampler();
    setDecorateJobs(false);
    const Profile profile = takeProfile();

    // Every workload runs jobs, so a traced pass whose decorator saw no
    // next() call has lost its workload-layer metrics.
    const auto next = traced.counts.find("workload.next_calls");
    const bool decorated = next != traced.counts.end() && next->second > 0;
    if (!decorated)
        std::fprintf(stderr, "perfbench: the Behavior decorator saw no "
                             "next() call\n");

    const std::uint64_t attempted = plain.attempted + traced.attempted;
    const std::uint64_t failed = plain.failed + traced.failed;
    printJson(goldensOk && failed == 0 && traced.countsRepeat && decorated,
              attempted, failed,
              perLayerMetrics(traced, plain, wl->timedShare()), &traced,
              &profile);
    return 0;
}
