#include "src/exp/experiment.hh"

#include <sstream>

#include "src/core/scheme_profile.hh"
#include "src/util/log.hh"

namespace piso::exp {

namespace {

const char *const kGridKeys =
    "scheme|cpu|memory|network|disk_policy|cpus|disks|memory_mb|seed|"
    "max_time_s|network_mbps|bw_threshold|bw_halflife_ms|seek_scale|"
    "ipi_revocation|loan_holdoff_ms|tick_ms|slice_ms|reserve_frac|"
    "numa_domains|numa_local_us|numa_remote_us|bus_mbps|"
    "bus_saturation|bus_halflife_ms|"
    "fault_disk_slow|fault_disk_error|fault_disk_dead";

double
toNumber(const std::string &key, const std::string &value)
{
    try {
        std::size_t pos = 0;
        const double v = std::stod(value, &pos);
        if (pos != value.size())
            throw std::invalid_argument("trailing");
        return v;
    } catch (const std::exception &) {
        PISO_FATAL("grid key '", key, "' wants a number, got '", value,
                   "'");
    }
}

std::int64_t
toInteger(const std::string &key, const std::string &value)
{
    return static_cast<std::int64_t>(toNumber(key, value));
}

/**
 * Split a colon-separated fault value ("AT:FOR:DISK:FACTOR") into
 * exactly @p want numeric fields.
 */
std::vector<double>
toFaultFields(const std::string &key, const std::string &value,
              std::size_t want, const char *shape)
{
    std::vector<double> fields;
    std::istringstream is(value);
    std::string item;
    while (std::getline(is, item, ':'))
        fields.push_back(toNumber(key, item));
    if (fields.size() != want)
        PISO_FATAL("grid key '", key, "' wants ", shape, ", got '",
                   value, "'");
    return fields;
}

} // namespace

std::string
ExperimentTask::label() const
{
    std::string out;
    for (const auto &[key, value] : params) {
        if (!out.empty())
            out += ' ';
        out += key + '=' + value;
    }
    return out;
}

void
applyGridKey(SystemConfig &cfg, const std::string &key,
             const std::string &value)
{
    const auto where = [&key] { return "grid key '" + key + "': "; };
    if (key == "scheme") {
        cfg.scheme = parseScheme(value, where());
    } else if (key == "cpu") {
        cfg.cpuPolicy = parseCpuPolicy(value, where());
    } else if (key == "memory") {
        cfg.memoryPolicy = parseMemoryPolicy(value, where());
    } else if (key == "network") {
        cfg.netPolicy = parseNetPolicy(value, where());
    } else if (key == "disk_policy") {
        cfg.diskPolicy = parseDiskOverride(value, where());
    } else if (key == "cpus") {
        cfg.cpus = static_cast<int>(toInteger(key, value));
    } else if (key == "disks") {
        cfg.diskCount = static_cast<int>(toInteger(key, value));
    } else if (key == "memory_mb") {
        cfg.memoryBytes =
            static_cast<std::uint64_t>(toInteger(key, value)) * kMiB;
    } else if (key == "seed") {
        cfg.seed = static_cast<std::uint64_t>(toInteger(key, value));
    } else if (key == "max_time_s") {
        cfg.maxTime = fromSeconds(toNumber(key, value));
    } else if (key == "network_mbps") {
        cfg.networkBitsPerSec = toNumber(key, value) * 1e6;
    } else if (key == "bw_threshold") {
        cfg.bwThresholdSectors = toNumber(key, value);
    } else if (key == "bw_halflife_ms") {
        cfg.bwHalfLife = fromMillis(toNumber(key, value));
    } else if (key == "seek_scale") {
        cfg.diskParams.seekScale = toNumber(key, value);
    } else if (key == "ipi_revocation") {
        cfg.ipiRevocation = toInteger(key, value) != 0;
    } else if (key == "loan_holdoff_ms") {
        cfg.loanHoldoff = fromMillis(toNumber(key, value));
    } else if (key == "tick_ms") {
        cfg.tickPeriod = fromMillis(toNumber(key, value));
    } else if (key == "slice_ms") {
        cfg.timeSlice = fromMillis(toNumber(key, value));
    } else if (key == "reserve_frac") {
        cfg.memPolicy.reserveFraction = toNumber(key, value);
    } else if (key == "numa_domains") {
        cfg.numa.domains = static_cast<int>(toInteger(key, value));
    } else if (key == "numa_local_us") {
        cfg.numa.localLatency =
            static_cast<Time>(toNumber(key, value) * kUs);
    } else if (key == "numa_remote_us") {
        cfg.numa.remoteLatency =
            static_cast<Time>(toNumber(key, value) * kUs);
    } else if (key == "bus_mbps") {
        cfg.numa.busBytesPerSec = toNumber(key, value) * 1e6 / 8.0;
    } else if (key == "bus_saturation") {
        cfg.numa.busSaturation = toNumber(key, value);
    } else if (key == "bus_halflife_ms") {
        cfg.numa.busHalfLife = fromMillis(toNumber(key, value));
    } else if (key == "fault_disk_slow") {
        // Fault axes append to the plan's fault schedule, so a grid
        // can sweep what-if failure scenarios over one base workload.
        // Grid points differing only in their late faults share the
        // pre-fault prefix, which is exactly what the warm-start
        // engine checkpoints once per group. "none" = no fault, so an
        // axis can include the undisturbed baseline.
        if (value != "none") {
            const auto f = toFaultFields(key, value, 4,
                                         "AT_S:FOR_S:DISK:FACTOR");
            cfg.faults.diskSlow(fromSeconds(f[0]),
                                static_cast<int>(f[2]),
                                fromSeconds(f[1]), f[3]);
        }
    } else if (key == "fault_disk_error") {
        if (value != "none") {
            const auto f = toFaultFields(key, value, 4,
                                         "AT_S:FOR_S:DISK:RATE");
            cfg.faults.diskError(fromSeconds(f[0]),
                                 static_cast<int>(f[2]),
                                 fromSeconds(f[1]), f[3]);
        }
    } else if (key == "fault_disk_dead") {
        if (value != "none") {
            const auto f = toFaultFields(key, value, 2, "AT_S:DISK");
            cfg.faults.diskDead(fromSeconds(f[0]),
                                static_cast<int>(f[1]));
        }
    } else {
        PISO_FATAL("unknown grid key '", key, "' (", kGridKeys, ")");
    }
}

GridAxis
parseGridAxis(const std::string &text)
{
    const auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0 || eq == text.size() - 1)
        PISO_FATAL("grid axis '", text, "' is not key=v1,v2,...");

    GridAxis axis;
    axis.key = text.substr(0, eq);
    std::istringstream is(text.substr(eq + 1));
    std::string value;
    while (std::getline(is, value, ',')) {
        if (value.empty())
            PISO_FATAL("grid axis '", text, "' has an empty value");
        axis.values.push_back(value);
    }
    if (axis.values.empty())
        PISO_FATAL("grid axis '", text, "' has no values");
    return axis;
}

std::vector<ExperimentTask>
expandPlan(const ExperimentPlan &plan)
{
    for (const GridAxis &axis : plan.axes) {
        if (axis.values.empty())
            PISO_FATAL("grid axis '", axis.key, "' has no values");
    }

    const std::vector<std::uint64_t> seeds =
        plan.seeds.empty() ? std::vector<std::uint64_t>{
                                 plan.base.config.seed}
                           : plan.seeds;

    std::vector<ExperimentTask> tasks;
    // Odometer over the axes (first axis outermost), seeds innermost.
    std::vector<std::size_t> at(plan.axes.size(), 0);
    for (;;) {
        for (std::uint64_t seed : seeds) {
            ExperimentTask task;
            task.index = tasks.size();
            task.seed = seed;
            task.spec = plan.base;
            for (std::size_t a = 0; a < plan.axes.size(); ++a) {
                const GridAxis &axis = plan.axes[a];
                const std::string &value = axis.values[at[a]];
                applyGridKey(task.spec.config, axis.key, value);
                task.params.emplace_back(axis.key, value);
            }
            task.spec.config.seed = seed;
            task.params.emplace_back("seed", std::to_string(seed));
            tasks.push_back(std::move(task));
        }

        // Advance the odometer; rightmost axis spins fastest.
        std::size_t a = plan.axes.size();
        while (a > 0) {
            --a;
            if (++at[a] < plan.axes[a].values.size())
                break;
            at[a] = 0;
            if (a == 0)
                return tasks;
        }
        if (plan.axes.empty())
            return tasks;
    }
}

} // namespace piso::exp
