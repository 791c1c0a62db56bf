#include "src/config/workload_spec.hh"

#include <algorithm>
#include <charconv>
#include <limits>
#include <optional>
#include <sstream>
#include <type_traits>

#include "src/sim/checkpoint.hh"
#include "src/util/log.hh"
#include "src/workload/filecopy.hh"
#include "src/workload/oltp.hh"
#include "src/workload/pmake.hh"
#include "src/workload/scientific.hh"
#include "src/workload/synthetic.hh"
#include "src/workload/webserver.hh"

namespace piso {

namespace {

/** Split a line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok)
        out.push_back(tok);
    return out;
}

/** The `key=value` tokens from @p first on, as views into @p tokens. */
std::vector<SpecOption>
splitOptions(const std::vector<std::string> &tokens, std::size_t first,
             const Where &where)
{
    std::vector<SpecOption> opts;
    for (std::size_t i = first; i < tokens.size(); ++i) {
        const std::string_view tok = tokens[i];
        const auto eq = tok.find('=');
        if (eq == std::string_view::npos || eq == 0 ||
            eq == tok.size() - 1)
            PISO_FATAL(where, "expected key=value, got '", tok, "'");
        const std::string_view key = tok.substr(0, eq);
        for (const SpecOption &o : opts) {
            if (o.first == key)
                PISO_FATAL(where, "duplicate option '", key, "'");
        }
        opts.emplace_back(key, tok.substr(eq + 1));
    }
    return opts;
}

/** Typed accessors that consume keys (leftovers are typos). */
class OptionReader
{
  public:
    OptionReader(std::vector<SpecOption> opts, const Where &where)
        : opts_(std::move(opts)), where_(where)
    {
    }

    template <typename T>
    T
    read(std::string_view key, T def)
    {
        const auto v = take(key);
        return v ? v->template read<T>() : def;
    }

    std::uint64_t
    bytes(std::string_view key, std::uint64_t def, std::uint64_t unit)
    {
        const auto v = take(key);
        return v ? v->bytes(unit) : def * unit;
    }

    /** All options must have been consumed. */
    void
    finish() const
    {
        if (!opts_.empty())
            PISO_FATAL(where_, "unknown option '", opts_.front().first,
                       "'");
    }

  private:
    std::optional<OptionValue>
    take(std::string_view key)
    {
        const auto it = std::find_if(
            opts_.begin(), opts_.end(),
            [key](const SpecOption &o) { return o.first == key; });
        if (it == opts_.end())
            return std::nullopt;
        const OptionValue v{key, it->second, where_};
        opts_.erase(it);
        return v;
    }

    std::vector<SpecOption> opts_;
    Where where_;
};

// The SystemConfig field behind each machine key, in documentation
// order; a spec that omits a key and a grid that never sets it run
// with the same default. A row is a key and the statement that sets
// its field of `c`, the SystemConfig, from `v`, its OptionValue.
#define PISO_MACHINE_KEY(name, ...)                                        \
    MachineKey{name,                                                       \
               [](SystemConfig &c, const OptionValue &v) { __VA_ARGS__; }}
const MachineKey kMachineKeys[] = {
    PISO_MACHINE_KEY("cpus", c.cpus = v.read<int>()),
    PISO_MACHINE_KEY("memory_mb", c.memoryBytes = v.bytes(kMiB)),
    PISO_MACHINE_KEY("disks", c.diskCount = v.read<int>()),
    PISO_MACHINE_KEY("scheme", c.scheme = parseScheme(v.text, v.where)),
    // Per-resource overrides on top of the uniform scheme.
    PISO_MACHINE_KEY("cpu", c.cpuPolicy = parseCpuPolicy(v.text, v.where)),
    PISO_MACHINE_KEY("memory",
                     c.memoryPolicy = parseMemoryPolicy(v.text, v.where)),
    PISO_MACHINE_KEY("disk_policy",
                     c.diskPolicy = parseDiskOverride(v.text, v.where)),
    PISO_MACHINE_KEY("network",
                     c.netPolicy = parseNetPolicy(v.text, v.where)),
    PISO_MACHINE_KEY("seed", c.seed = v.read<std::uint64_t>()),
    PISO_MACHINE_KEY("max_time_s",
                     c.maxTime = fromSeconds(v.read<double>())),
    PISO_MACHINE_KEY("network_mbps",
                     c.networkBitsPerSec = v.read<double>() * 1e6),
    PISO_MACHINE_KEY("bw_threshold",
                     c.bwThresholdSectors = v.read<double>()),
    PISO_MACHINE_KEY("bw_halflife_ms",
                     c.bwHalfLife = fromMillis(v.read<double>())),
    PISO_MACHINE_KEY("seek_scale",
                     c.diskParams.seekScale = v.read<double>()),
    PISO_MACHINE_KEY("ipi_revocation",
                     c.ipiRevocation = v.read<std::int64_t>() != 0),
    PISO_MACHINE_KEY("loan_holdoff_ms",
                     c.loanHoldoff = fromMillis(v.read<double>())),
    PISO_MACHINE_KEY("tick_ms",
                     c.tickPeriod = fromMillis(v.read<double>())),
    PISO_MACHINE_KEY("slice_ms",
                     c.timeSlice = fromMillis(v.read<double>())),
    PISO_MACHINE_KEY("reserve_frac",
                     c.memPolicy.reserveFraction = v.read<double>()),
    // NUMA/bus machine model (src/machine/numa.hh). The defaults
    // describe a uniform-memory machine and add zero cost.
    PISO_MACHINE_KEY("numa_domains", c.numa.domains = v.read<int>()),
    PISO_MACHINE_KEY("numa_local_us",
                     c.numa.localLatency =
                         static_cast<Time>(v.read<double>() * kUs)),
    PISO_MACHINE_KEY("numa_remote_us",
                     c.numa.remoteLatency =
                         static_cast<Time>(v.read<double>() * kUs)),
    PISO_MACHINE_KEY("bus_mbps",
                     c.numa.busBytesPerSec = v.read<double>() * 1e6 / 8.0),
    PISO_MACHINE_KEY("bus_saturation",
                     c.numa.busSaturation = v.read<double>()),
    PISO_MACHINE_KEY("bus_halflife_ms",
                     c.numa.busHalfLife = fromMillis(v.read<double>())),
};

#undef PISO_MACHINE_KEY

/** A job kind: its name and how its options build the job. */
struct JobKind
{
    std::string_view name;
    JobSpec (*build)(const std::string &name, OptionReader &r);
};

const JobKind kJobKinds[] = {
    {"pmake", [](const std::string &name, OptionReader &r) {
        PmakeConfig c;
        c.parallelism = r.read<int>("workers", 2);
        c.filesPerWorker = r.read<int>("files", 12);
        c.compileCpu = fromMillis(r.read("compile_ms", 120.0));
        c.workerWsPages = r.read<std::uint64_t>("ws_pages", 600);
        return makePmake(name, c);
    }},
    {"copy", [](const std::string &name, OptionReader &r) {
        FileCopyConfig c;
        c.bytes = r.bytes("bytes_kb", 20 * 1024, 1024);
        return makeFileCopy(name, c);
    }},
    {"compute", [](const std::string &name, OptionReader &r) {
        ComputeSpec c;
        c.totalCpu = fromMillis(r.read("cpu_ms", 1000.0));
        c.wsPages = r.read<std::uint64_t>("ws_pages", 256);
        return makeComputeJob(name, c);
    }},
    {"ocean", [](const std::string &name, OptionReader &r) {
        OceanConfig c;
        c.processes = r.read<int>("procs", 4);
        c.iterations = r.read<int>("iters", 400);
        c.grain = fromMillis(r.read("grain_ms", 20.0));
        c.wsPagesPerProc = r.read<std::uint64_t>("ws_pages", 512);
        return makeOcean(name, c);
    }},
    {"oltp", [](const std::string &name, OptionReader &r) {
        OltpConfig c;
        c.servers = r.read<int>("servers", 4);
        c.transactionsPerServer = r.read<int>("txns", 100);
        c.txnCpu = fromMillis(r.read("txn_ms", 2.0));
        c.updateFraction = r.read("update_frac", 0.3);
        c.tableBytes = r.bytes("table_mb", 64, kMiB);
        return makeOltp(name, c);
    }},
    {"web", [](const std::string &name, OptionReader &r) {
        WebServerConfig c;
        c.workers = r.read<int>("workers", 4);
        c.requestsPerWorker = r.read<int>("requests", 200);
        c.requestCpu = fromMillis(r.read("request_ms", 0.5));
        c.responseBytes = r.bytes("response_kb", 16, 1024);
        c.documents = r.read<int>("documents", 200);
        return makeWebServer(name, c);
    }},
};

/** The job kind called @p kind; an unknown kind is an error. */
const JobKind &
jobKind(std::string_view kind, const Where &where)
{
    for (const JobKind &k : kJobKinds) {
        if (k.name == kind)
            return k;
    }
    PISO_FATAL(where, "unknown job kind '", kind, "'");
}

/** The job option naming its submission time, in seconds. */
constexpr std::string_view kStartKey = "start_s";

/** When the job declared by @p decl is submitted. */
Time
jobStartAt(const JobDecl &decl)
{
    const auto it = decl.options.find(std::string(kStartKey));
    return it == decl.options.end()
               ? 0
               : fromSeconds(OptionValue{kStartKey, it->second,
                                         {.line = decl.line}}
                                 .read<double>());
}

/** FNV-1a of the declaration's kind and options as "kind key=value
 *  ...", in option-key order: what the config digest holds of how the
 *  job is built. */
std::uint64_t
jobRecipe(const JobDecl &decl)
{
    std::uint64_t h = ckptFnv1a(decl.kind);
    for (const auto &[key, value] : decl.options) {
        h = ckptFnv1a(" ", h);
        h = ckptFnv1a(key, h);
        h = ckptFnv1a("=", h);
        h = ckptFnv1a(value, h);
    }
    return h;
}

/** Declare @p s with the options in @p tokens from @p first on. */
void
declareSpu(WorkloadSpec &spec, SpuDecl s,
           const std::vector<std::string> &tokens, std::size_t first,
           const Where &where)
{
    OptionReader r(splitOptions(tokens, first, where), where);
    s.share = r.read("share", 1.0);
    s.disk = r.read<DiskId>("disk", 0);
    r.finish();
    for (const SpuDecl &other : spec.spus) {
        if (other.name == s.name)
            PISO_FATAL(where, "duplicate spu '", s.name, "'");
    }
    spec.spus.push_back(std::move(s));
}

/**
 * One node line inside a `[spus]` section: a dotted path plus options.
 * Parents must be declared before their children so the tree is
 * well-formed by construction.
 */
void
parseSpuTreeLine(const std::vector<std::string> &tokens,
                 const Where &where, WorkloadSpec &spec)
{
    SpuDecl s;
    s.name = tokens[0];
    if (s.name == "machine" || s.name == "spu" || s.name == "job")
        PISO_FATAL(where, "'", s.name, "' is a directive ",
                   "and cannot name an SPU");
    if (s.name.front() == '.' || s.name.back() == '.' ||
        s.name.find("..") != std::string::npos)
        PISO_FATAL(where, "bad SPU name '", s.name,
                   "' (empty path segment)");
    const auto dot = s.name.rfind('.');
    if (dot != std::string::npos) {
        s.parent = s.name.substr(0, dot);
        bool parentKnown = false;
        for (const SpuDecl &other : spec.spus)
            parentKnown |= other.name == s.parent;
        if (!parentKnown)
            PISO_FATAL(where, "SPU '", s.name,
                       "' declared before its group '", s.parent, "'");
    }
    declareSpu(spec, std::move(s), tokens, 1, where);
}

} // namespace

template <typename T>
T
OptionValue::read() const
{
    T v{};
    const char *end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, v);
    constexpr bool integral = std::is_integral_v<T>;
    if (integral && ec == std::errc::result_out_of_range) {
        PISO_FATAL(where, "option '", key, "' wants an integer in [",
                   std::numeric_limits<T>::min(), ", ",
                   std::numeric_limits<T>::max(), "], got '", text, "'");
    }
    if (ec != std::errc() || stop != end) {
        PISO_FATAL(where, "option '", key, "' wants ",
                   integral ? "an integer" : "a number", ", got '", text,
                   "'");
    }
    return v;
}

template int OptionValue::read<int>() const;
template std::int64_t OptionValue::read<std::int64_t>() const;
template std::uint64_t OptionValue::read<std::uint64_t>() const;
template double OptionValue::read<double>() const;

std::uint64_t
OptionValue::bytes(std::uint64_t unit) const
{
    const std::uint64_t v = read<std::uint64_t>();
    if (v > std::numeric_limits<std::uint64_t>::max() / unit) {
        PISO_FATAL(where, "option '", key, "' of ", v,
                   " overflows a 64-bit byte count");
    }
    return v * unit;
}

std::span<const MachineKey>
machineKeys()
{
    return kMachineKeys;
}

const MachineKey *
findMachineKey(std::string_view name)
{
    for (const MachineKey &k : kMachineKeys) {
        if (k.name == name)
            return &k;
    }
    return nullptr;
}

/**
 * Times are seconds (`at_s`, and `for_s` for windowed faults); memory
 * sizes are MiB.
 */
void
parseFaultLine(std::string_view kind, std::vector<SpecOption> options,
               const Where &where, FaultPlan &plan)
{
    OptionReader r(std::move(options), where);
    const double atSec = r.read("at_s", -1.0);
    if (atSec < 0.0)
        PISO_FATAL(where, "fault '", kind, "' needs at_s=<seconds>");
    const Time at = fromSeconds(atSec);

    if (kind == "disk_slow") {
        const int disk = r.read<int>("disk", 0);
        const Time dur = fromSeconds(r.read("for_s", 0.0));
        const double factor = r.read("factor", 4.0);
        if (factor < 1.0)
            PISO_FATAL(where, "disk_slow factor must be >= 1, got ",
                       factor);
        plan.diskSlow(at, disk, dur, factor);
    } else if (kind == "disk_error") {
        const int disk = r.read<int>("disk", 0);
        const Time dur = fromSeconds(r.read("for_s", 0.0));
        const double rate = r.read("rate", 0.5);
        if (rate < 0.0 || rate > 1.0)
            PISO_FATAL(where, "disk_error rate must be in [0,1], got ",
                       rate);
        plan.diskError(at, disk, dur, rate);
    } else if (kind == "disk_dead") {
        plan.diskDead(at, r.read<int>("disk", 0));
    } else if (kind == "cpu_offline") {
        const int count = r.read<int>("count", 1);
        if (count < 1)
            PISO_FATAL(where, "cpu_offline count must be >= 1");
        plan.cpuOffline(at, count);
    } else if (kind == "cpu_online") {
        const int count = r.read<int>("count", 1);
        if (count < 1)
            PISO_FATAL(where, "cpu_online count must be >= 1");
        plan.cpuOnline(at, count);
    } else if (kind == "mem_shrink" || kind == "mem_grow") {
        const std::uint64_t pages = r.bytes("mb", 0, kMiB) / 4096;
        if (pages == 0)
            PISO_FATAL(where, kind, " needs mb=<MiB> > 0");
        if (kind == "mem_shrink")
            plan.memShrink(at, pages);
        else
            plan.memGrow(at, pages);
    } else {
        PISO_FATAL(where, "unknown fault '", kind,
                   "' (disk_slow|disk_error|disk_dead|cpu_offline|"
                   "cpu_online|mem_shrink|mem_grow)");
    }
    r.finish();
}

WorkloadSpec
parseWorkloadSpec(const std::string &text)
{
    WorkloadSpec spec;
    bool sawMachine = false;
    bool inFaults = false;
    bool inSpus = false;
    std::istringstream is(text);
    std::string line;
    int lineNo = 0;
    int autoJob = 0;

    while (std::getline(is, line)) {
        ++lineNo;
        const Where where{.line = lineNo};
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        const auto tokens = tokenize(line);
        if (tokens.empty())
            continue;

        const std::string &kind = tokens[0];
        if (kind == "[faults]") {
            inFaults = true;
            inSpus = false;
            if (tokens.size() > 1)
                PISO_FATAL(where, "[faults] takes no options");
            continue;
        }
        if (inFaults) {
            parseFaultLine(kind, splitOptions(tokens, 1, where), where,
                           spec.config.faults);
            continue;
        }
        if (kind == "[spus]") {
            inSpus = true;
            if (tokens.size() > 1)
                PISO_FATAL(where, "[spus] takes no options");
            continue;
        }
        // A directive ends a [spus] section; anything else inside one
        // is a tree-node declaration.
        if (inSpus &&
            kind != "machine" && kind != "spu" && kind != "job") {
            parseSpuTreeLine(tokens, where, spec);
            continue;
        }
        inSpus = false;
        if (kind == "machine") {
            if (sawMachine)
                PISO_FATAL(where, "duplicate machine line");
            sawMachine = true;
            for (const auto &[key, value] : splitOptions(tokens, 1, where)) {
                const MachineKey *k = findMachineKey(key);
                if (!k)
                    PISO_FATAL(where, "unknown option '", key, "'");
                k->set(spec.config, {key, value, where});
            }
        } else if (kind == "spu") {
            if (tokens.size() < 2)
                PISO_FATAL(where, "spu needs a name");
            SpuDecl s;
            s.name = tokens[1];
            if (s.name.find('.') != std::string::npos)
                PISO_FATAL(where, "dotted SPU names ",
                           "declare a hierarchy and belong in a ",
                           "[spus] section");
            declareSpu(spec, std::move(s), tokens, 2, where);
        } else if (kind == "job") {
            if (tokens.size() < 3)
                PISO_FATAL(where, "job needs <spu> <kind> [options]");
            JobDecl j;
            j.spu = tokens[1];
            j.kind = tokens[2];
            j.line = lineNo;
            for (const auto &[key, value] : splitOptions(tokens, 3, where)) {
                if (key == "name")
                    j.name = value;
                else
                    j.options.emplace(key, value);
            }
            if (j.name.empty())
                j.name = j.kind + std::to_string(autoJob++);
            (void)jobKind(j.kind, where);
            bool spuKnown = false;
            for (const SpuDecl &s : spec.spus)
                spuKnown |= s.name == j.spu;
            if (!spuKnown)
                PISO_FATAL(where, "job references unknown spu '", j.spu,
                           "'");
            spec.jobs.push_back(std::move(j));
        } else {
            PISO_FATAL(where, "unknown directive '", kind,
                       "' (machine|spu|job|[faults])");
        }
    }

    if (spec.spus.empty())
        PISO_FATAL("workload spec declares no SPUs");
    if (spec.jobs.empty())
        PISO_FATAL("workload spec declares no jobs");
    // Jobs run on leaves only; a group's share is divided among its
    // children, so a process directly on a group has no level to be
    // accounted at.
    for (const JobDecl &j : spec.jobs) {
        for (const SpuDecl &s : spec.spus) {
            if (s.parent == j.spu)
                PISO_FATAL("line ", j.line, ": job '", j.name,
                           "' runs on '", j.spu,
                           "', which is a group, not a leaf SPU");
        }
    }
    return spec;
}

JobSpec
buildJob(const JobDecl &decl)
{
    const Where where{.line = decl.line};
    const JobKind &kind = jobKind(decl.kind, where);
    OptionReader r({decl.options.begin(), decl.options.end()}, where);
    const Time startAt = fromSeconds(r.read(kStartKey, 0.0));
    JobSpec job = kind.build(decl.name, r);
    job.startAt = startAt;
    job.recipe = jobRecipe(decl);
    r.finish();
    return job;
}

void
populateWorkloadSpec(Simulation &sim, const WorkloadSpec &spec)
{
    std::map<std::string, SpuId> ids;
    for (const SpuDecl &s : spec.spus) {
        SpuSpec ss{.name = s.name, .share = s.share, .homeDisk = s.disk,
                   .parent = kNoSpu};
        if (!s.parent.empty())
            ss.parent = ids.at(s.parent);
        ids[s.name] = sim.addSpu(ss);
    }
    for (const JobDecl &j : spec.jobs)
        sim.addJob(ids.at(j.spu), buildJob(j));
}

std::uint64_t
specConfigDigest(const WorkloadSpec &spec)
{
    // populateWorkloadSpec() gives the i-th declared SPU the id
    // kFirstUserSpu + i and resolves a name to the latest SPU declared
    // under it so far; walk the same mapping without building anything.
    const std::size_t n = spec.spus.size();
    auto idOf = [&](const std::string &name, std::size_t before) {
        for (std::size_t i = before; i-- > 0;) {
            if (spec.spus[i].name == name)
                return kFirstUserSpu + static_cast<SpuId>(i);
        }
        PISO_FATAL("unknown SPU '", name, "'");
    };
    std::vector<SpuId> parents(n, kNoSpu);
    std::vector<bool> group(n, false);
    for (std::size_t i = 0; i < n; ++i) {
        if (spec.spus[i].parent.empty())
            continue;
        parents[i] = idOf(spec.spus[i].parent, i);
        group[static_cast<std::size_t>(parents[i] - kFirstUserSpu)] = true;
    }

    ConfigDigest d(spec.config);
    d.spus(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SpuDecl &s = spec.spus[i];
        const SpuId id = kFirstUserSpu + static_cast<SpuId>(i);
        // SpuManager names an unnamed SPU after its id.
        d.spu(id, s.name.empty() ? "spu" + std::to_string(id) : s.name,
              s.share, s.disk, parents[i], group[i]);
    }
    d.jobs(spec.jobs.size());
    for (const JobDecl &j : spec.jobs)
        d.job(idOf(j.spu, n), j.name, jobStartAt(j), jobRecipe(j));
    return d.value();
}

SimResults
runWorkloadSpec(const WorkloadSpec &spec)
{
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    return sim.run();
}

SimResults
runWorkloadSpecFrom(const WorkloadSpec &spec, const std::string &image)
{
    Simulation sim(spec.config);
    populateWorkloadSpec(sim, spec);
    sim.restore(image);
    return sim.run();
}

} // namespace piso
