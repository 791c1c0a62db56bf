#include "src/config/workload_spec.hh"

#include <algorithm>
#include <charconv>
#include <limits>
#include <sstream>

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

using Options = std::map<std::string, std::string>;

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

/** Parse trailing `key=value` tokens into a map. */
Options
parseOptions(const std::vector<std::string> &tokens, std::size_t first,
             int line)
{
    Options opts;
    for (std::size_t i = first; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        const auto eq = tok.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq == tok.size() - 1) {
            PISO_FATAL("line ", line, ": expected key=value, got '",
                       tok, "'");
        }
        const std::string key = tok.substr(0, eq);
        if (opts.count(key))
            PISO_FATAL("line ", line, ": duplicate option '", key, "'");
        opts[key] = tok.substr(eq + 1);
    }
    return opts;
}

/** The number under @p key, or @p def when the key is absent. */
double
optionNumber(const Options &opts, const std::string &key, double def,
             int line)
{
    const auto it = opts.find(key);
    if (it == opts.end())
        return def;
    try {
        std::size_t pos = 0;
        const double v = std::stod(it->second, &pos);
        if (pos != it->second.size())
            throw std::invalid_argument("trailing");
        return v;
    } catch (const std::exception &) {
        PISO_FATAL("line ", line, ": option '", key,
                   "' wants a number, got '", it->second, "'");
    }
}

/** The job option naming its submission time, in seconds. */
constexpr const char *kStartKey = "start_s";

/** When the job declared by @p decl is submitted. */
Time
jobStartAt(const JobDecl &decl)
{
    return fromSeconds(optionNumber(decl.options, kStartKey, 0.0, decl.line));
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

/** Typed accessors that consume keys (leftovers are typos). */
class OptionReader
{
  public:
    OptionReader(Options opts, int line)
        : opts_(std::move(opts)), line_(line)
    {
    }

    std::string
    str(const std::string &key, const std::string &def)
    {
        auto it = opts_.find(key);
        if (it == opts_.end())
            return def;
        std::string v = it->second;
        opts_.erase(it);
        return v;
    }

    double
    num(const std::string &key, double def)
    {
        const double v = optionNumber(opts_, key, def, line_);
        opts_.erase(key);
        return v;
    }

    /** The integer under @p key, or @p def when the key is absent. The
     *  whole value must be a decimal integer that T holds: a fraction,
     *  an exponent or an out-of-range value is an error, not rounded
     *  or wrapped. */
    template <typename T>
    T
    integer(const std::string &key, T def)
    {
        const auto it = opts_.find(key);
        if (it == opts_.end())
            return def;
        const std::string text = it->second;
        opts_.erase(it);
        T v{};
        const char *end = text.data() + text.size();
        const auto [stop, ec] = std::from_chars(text.data(), end, v);
        if (ec == std::errc::result_out_of_range) {
            PISO_FATAL("line ", line_, ": option '", key,
                       "' wants an integer in [",
                       std::numeric_limits<T>::min(), ", ",
                       std::numeric_limits<T>::max(), "], got '", text,
                       "'");
        }
        if (ec != std::errc() || stop != end) {
            PISO_FATAL("line ", line_, ": option '", key,
                       "' wants an integer, got '", text, "'");
        }
        return v;
    }

    /** integer<std::uint64_t>(@p key, @p def) units of @p unit bytes,
     *  as a byte count; the count must fit in 64 bits too. */
    std::uint64_t
    bytes(const std::string &key, std::uint64_t def, std::uint64_t unit)
    {
        const std::uint64_t v = integer<std::uint64_t>(key, def);
        if (v > std::numeric_limits<std::uint64_t>::max() / unit) {
            PISO_FATAL("line ", line_, ": option '", key, "' of ", v,
                       " overflows a 64-bit byte count");
        }
        return v * unit;
    }

    /** All options must have been consumed. */
    void
    finish() const
    {
        if (!opts_.empty()) {
            PISO_FATAL("line ", line_, ": unknown option '",
                       opts_.begin()->first, "'");
        }
    }

  private:
    Options opts_;
    int line_;
};

/**
 * One directive inside a `[faults]` section. Times are seconds
 * (`at_s`, and `for_s` for windowed faults); memory sizes are MiB.
 */
void
parseFaultLine(const std::vector<std::string> &tokens, int lineNo,
               FaultPlan &plan)
{
    const std::string &kind = tokens[0];
    OptionReader r(parseOptions(tokens, 1, lineNo), lineNo);
    const double atSec = r.num("at_s", -1.0);
    if (atSec < 0.0)
        PISO_FATAL("line ", lineNo, ": fault '", kind,
                   "' needs at_s=<seconds>");
    const Time at = fromSeconds(atSec);

    if (kind == "disk_slow") {
        const int disk = r.integer<int>("disk", 0);
        const Time dur = fromSeconds(r.num("for_s", 0.0));
        const double factor = r.num("factor", 4.0);
        if (factor < 1.0)
            PISO_FATAL("line ", lineNo, ": disk_slow factor must be "
                       ">= 1, got ", factor);
        plan.diskSlow(at, disk, dur, factor);
    } else if (kind == "disk_error") {
        const int disk = r.integer<int>("disk", 0);
        const Time dur = fromSeconds(r.num("for_s", 0.0));
        const double rate = r.num("rate", 0.5);
        if (rate < 0.0 || rate > 1.0)
            PISO_FATAL("line ", lineNo, ": disk_error rate must be in "
                       "[0,1], got ", rate);
        plan.diskError(at, disk, dur, rate);
    } else if (kind == "disk_dead") {
        plan.diskDead(at, r.integer<int>("disk", 0));
    } else if (kind == "cpu_offline") {
        const int count = r.integer<int>("count", 1);
        if (count < 1)
            PISO_FATAL("line ", lineNo,
                       ": cpu_offline count must be >= 1");
        plan.cpuOffline(at, count);
    } else if (kind == "cpu_online") {
        const int count = r.integer<int>("count", 1);
        if (count < 1)
            PISO_FATAL("line ", lineNo,
                       ": cpu_online count must be >= 1");
        plan.cpuOnline(at, count);
    } else if (kind == "mem_shrink" || kind == "mem_grow") {
        const std::uint64_t pages = r.bytes("mb", 0, kMiB) / 4096;
        if (pages == 0)
            PISO_FATAL("line ", lineNo, ": ", kind,
                       " needs mb=<MiB> > 0");
        if (kind == "mem_shrink")
            plan.memShrink(at, pages);
        else
            plan.memGrow(at, pages);
    } else {
        PISO_FATAL("line ", lineNo, ": unknown fault '", kind,
                   "' (disk_slow|disk_error|disk_dead|cpu_offline|"
                   "cpu_online|mem_shrink|mem_grow)");
    }
    r.finish();
}

/**
 * One node line inside a `[spus]` section: a dotted path plus options.
 * Parents must be declared before their children so the tree is
 * well-formed by construction.
 */
void
parseSpuTreeLine(const std::vector<std::string> &tokens, int lineNo,
                 WorkloadSpec &spec)
{
    SpuDecl s;
    s.name = tokens[0];
    if (s.name == "machine" || s.name == "spu" || s.name == "job")
        PISO_FATAL("line ", lineNo, ": '", s.name, "' is a directive ",
                   "and cannot name an SPU");
    // Every dot-separated segment must be non-empty.
    for (std::size_t pos = 0;;) {
        const auto dot = s.name.find('.', pos);
        if ((dot == std::string::npos ? s.name.size() : dot) == pos)
            PISO_FATAL("line ", lineNo, ": bad SPU name '", s.name,
                       "' (empty path segment)");
        if (dot == std::string::npos)
            break;
        pos = dot + 1;
    }
    OptionReader r(parseOptions(tokens, 1, lineNo), lineNo);
    s.share = r.num("share", 1.0);
    s.disk = r.integer<DiskId>("disk", 0);
    r.finish();

    const auto dot = s.name.rfind('.');
    if (dot != std::string::npos) {
        s.parent = s.name.substr(0, dot);
        bool parentKnown = false;
        for (const SpuDecl &other : spec.spus)
            parentKnown |= other.name == s.parent;
        if (!parentKnown)
            PISO_FATAL("line ", lineNo, ": SPU '", s.name,
                       "' declared before its group '", s.parent, "'");
    }
    for (const SpuDecl &other : spec.spus) {
        if (other.name == s.name)
            PISO_FATAL("line ", lineNo, ": duplicate spu '", s.name,
                       "'");
    }
    spec.spus.push_back(std::move(s));
}

} // namespace

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
                PISO_FATAL("line ", lineNo,
                           ": [faults] takes no options");
            continue;
        }
        if (inFaults) {
            parseFaultLine(tokens, lineNo, spec.config.faults);
            continue;
        }
        if (kind == "[spus]") {
            inSpus = true;
            if (tokens.size() > 1)
                PISO_FATAL("line ", lineNo, ": [spus] takes no options");
            continue;
        }
        // A directive ends a [spus] section; anything else inside one
        // is a tree-node declaration.
        if (inSpus &&
            kind != "machine" && kind != "spu" && kind != "job") {
            parseSpuTreeLine(tokens, lineNo, spec);
            continue;
        }
        inSpus = false;
        if (kind == "machine") {
            if (sawMachine)
                PISO_FATAL("line ", lineNo, ": duplicate machine line");
            sawMachine = true;
            OptionReader r(parseOptions(tokens, 1, lineNo), lineNo);
            spec.config.cpus = r.integer<int>("cpus", 8);
            spec.config.memoryBytes = r.bytes("memory_mb", 64, kMiB);
            spec.config.diskCount = r.integer<int>("disks", 1);
            const std::string where =
                "line " + std::to_string(lineNo) + ": ";
            spec.config.scheme =
                parseScheme(r.str("scheme", "piso"), where);
            // Per-resource overrides on top of the uniform scheme.
            spec.config.diskPolicy = parseDiskOverride(
                r.str("disk_policy", kSchemeDiskPolicy), where);
            if (const std::string v = r.str("cpu", ""); !v.empty())
                spec.config.cpuPolicy = parseCpuPolicy(v, where);
            if (const std::string v = r.str("memory", ""); !v.empty())
                spec.config.memoryPolicy = parseMemoryPolicy(v, where);
            if (const std::string v = r.str("network", ""); !v.empty())
                spec.config.netPolicy = parseNetPolicy(v, where);
            spec.config.seed = r.integer<std::uint64_t>("seed", 1);
            spec.config.maxTime = fromSeconds(
                r.num("max_time_s", toSeconds(spec.config.maxTime)));
            spec.config.networkBitsPerSec =
                r.num("network_mbps", 0.0) * 1e6;
            spec.config.bwThresholdSectors =
                r.num("bw_threshold", spec.config.bwThresholdSectors);
            spec.config.diskParams.seekScale =
                r.num("seek_scale", 1.0);
            spec.config.ipiRevocation =
                r.integer<std::int64_t>("ipi_revocation", 0) != 0;
            // NUMA/bus machine model (src/machine/numa.hh). The
            // defaults describe a uniform-memory machine and add zero
            // cost, so omitting every key keeps runs byte-identical.
            spec.config.numa.domains = r.integer<int>("numa_domains", 1);
            spec.config.numa.localLatency =
                static_cast<Time>(r.num("numa_local_us", 0.0) * kUs);
            spec.config.numa.remoteLatency =
                static_cast<Time>(r.num("numa_remote_us", 0.0) * kUs);
            spec.config.numa.busBytesPerSec =
                r.num("bus_mbps", 0.0) * 1e6 / 8.0;
            spec.config.numa.busSaturation =
                r.num("bus_saturation", 0.0);
            spec.config.numa.busHalfLife = fromMillis(r.num(
                "bus_halflife_ms",
                toSeconds(spec.config.numa.busHalfLife) * 1e3));
            r.finish();
        } else if (kind == "spu") {
            if (tokens.size() < 2)
                PISO_FATAL("line ", lineNo, ": spu needs a name");
            SpuDecl s;
            s.name = tokens[1];
            if (s.name.find('.') != std::string::npos)
                PISO_FATAL("line ", lineNo, ": dotted SPU names ",
                           "declare a hierarchy and belong in a ",
                           "[spus] section");
            OptionReader r(parseOptions(tokens, 2, lineNo), lineNo);
            s.share = r.num("share", 1.0);
            s.disk = r.integer<DiskId>("disk", 0);
            r.finish();
            for (const SpuDecl &other : spec.spus) {
                if (other.name == s.name)
                    PISO_FATAL("line ", lineNo, ": duplicate spu '",
                               s.name, "'");
            }
            spec.spus.push_back(std::move(s));
        } else if (kind == "job") {
            if (tokens.size() < 3)
                PISO_FATAL("line ", lineNo,
                           ": job needs <spu> <kind> [options]");
            JobDecl j;
            j.spu = tokens[1];
            j.kind = tokens[2];
            j.options = parseOptions(tokens, 3, lineNo);
            j.line = lineNo;
            auto it = j.options.find("name");
            if (it != j.options.end()) {
                j.name = it->second;
                j.options.erase(it);
            } else {
                j.name = j.kind + std::to_string(autoJob++);
            }
            const bool known =
                j.kind == "pmake" || j.kind == "copy" ||
                j.kind == "compute" || j.kind == "ocean" ||
                j.kind == "oltp" || j.kind == "web";
            if (!known)
                PISO_FATAL("line ", lineNo, ": unknown job kind '",
                           j.kind, "'");
            bool spuKnown = false;
            for (const SpuDecl &s : spec.spus)
                spuKnown |= s.name == j.spu;
            if (!spuKnown)
                PISO_FATAL("line ", lineNo, ": job references unknown "
                           "spu '", j.spu, "'");
            spec.jobs.push_back(std::move(j));
        } else {
            PISO_FATAL("line ", lineNo, ": unknown directive '", kind,
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
    OptionReader r(decl.options, decl.line);
    const Time startAt = fromSeconds(r.num(kStartKey, 0.0));
    JobSpec job;

    if (decl.kind == "pmake") {
        PmakeConfig c;
        c.parallelism = r.integer<int>("workers", 2);
        c.filesPerWorker = r.integer<int>("files", 12);
        c.compileCpu = fromMillis(r.num("compile_ms", 120.0));
        c.workerWsPages = r.integer<std::uint64_t>("ws_pages", 600);
        job = makePmake(decl.name, c);
    } else if (decl.kind == "copy") {
        FileCopyConfig c;
        c.bytes = r.bytes("bytes_kb", 20 * 1024, 1024);
        job = makeFileCopy(decl.name, c);
    } else if (decl.kind == "compute") {
        ComputeSpec c;
        c.totalCpu = fromMillis(r.num("cpu_ms", 1000.0));
        c.wsPages = r.integer<std::uint64_t>("ws_pages", 256);
        job = makeComputeJob(decl.name, c);
    } else if (decl.kind == "ocean") {
        OceanConfig c;
        c.processes = r.integer<int>("procs", 4);
        c.iterations = r.integer<int>("iters", 400);
        c.grain = fromMillis(r.num("grain_ms", 20.0));
        c.wsPagesPerProc = r.integer<std::uint64_t>("ws_pages", 512);
        job = makeOcean(decl.name, c);
    } else if (decl.kind == "oltp") {
        OltpConfig c;
        c.servers = r.integer<int>("servers", 4);
        c.transactionsPerServer = r.integer<int>("txns", 100);
        c.txnCpu = fromMillis(r.num("txn_ms", 2.0));
        c.updateFraction = r.num("update_frac", 0.3);
        c.tableBytes = r.bytes("table_mb", 64, kMiB);
        job = makeOltp(decl.name, c);
    } else if (decl.kind == "web") {
        WebServerConfig c;
        c.workers = r.integer<int>("workers", 4);
        c.requestsPerWorker = r.integer<int>("requests", 200);
        c.requestCpu = fromMillis(r.num("request_ms", 0.5));
        c.responseBytes = r.bytes("response_kb", 16, 1024);
        c.documents = r.integer<int>("documents", 200);
        job = makeWebServer(decl.name, c);
    } else {
        PISO_FATAL("line ", decl.line, ": unknown job kind '",
                   decl.kind, "'");
    }

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
