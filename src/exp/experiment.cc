#include "src/exp/experiment.hh"

#include "src/util/log.hh"

namespace piso::exp {

namespace {

/** A fault axis: each value is `none` (the undisturbed baseline) or the
 *  values of the `[faults]` directive's options @p fields, `:`-joined. */
struct FaultAxis
{
    std::string_view key;
    std::string_view kind;
    std::string_view fields;
};

constexpr FaultAxis kFaultAxes[] = {
    {"fault_disk_slow", "disk_slow", "at_s:for_s:disk:factor"},
    {"fault_disk_error", "disk_error", "at_s:for_s:disk:rate"},
    {"fault_disk_dead", "disk_dead", "at_s:disk"},
};

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
    const Where where{.gridKey = key};
    if (const MachineKey *k = findMachineKey(key)) {
        k->set(cfg, {key, value, where});
        return;
    }
    for (const FaultAxis &axis : kFaultAxes) {
        if (axis.key != key)
            continue;
        // Fault axes append to the plan's fault schedule, so a grid
        // can sweep what-if failure scenarios over one base workload.
        // Grid points differing only in their late faults share the
        // pre-fault prefix, which is exactly what the warm-start
        // engine checkpoints once per group.
        if (value == "none")
            return;
        std::vector<SpecOption> options;
        std::string_view names = axis.fields;
        for (std::string_view rest = value;;) {
            const auto name = names.find(':');
            const auto field = rest.find(':');
            if ((name == names.npos) != (field == rest.npos))
                PISO_FATAL(where, "wants ", axis.fields, ", got '", value,
                           "'");
            options.emplace_back(names.substr(0, name),
                                 rest.substr(0, field));
            if (name == names.npos)
                break;
            names.remove_prefix(name + 1);
            rest.remove_prefix(field + 1);
        }
        parseFaultLine(axis.kind, std::move(options), where, cfg.faults);
        return;
    }
    std::string names;
    for (const MachineKey &k : machineKeys())
        (names += k.name) += '|';
    for (const FaultAxis &axis : kFaultAxes)
        (names += axis.key) += '|';
    names.pop_back();
    PISO_FATAL("unknown grid key '", key, "' (", names, ")");
}

GridAxis
parseGridAxis(const std::string &text)
{
    const auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0 || eq == text.size() - 1)
        PISO_FATAL("grid axis '", text, "' is not key=v1,v2,...");

    GridAxis axis;
    axis.key = text.substr(0, eq);
    for (std::size_t at = eq + 1;;) {
        const auto comma = text.find(',', at);
        axis.values.push_back(text.substr(at, comma - at));
        if (axis.values.back().empty())
            PISO_FATAL("grid axis '", text, "' has an empty value");
        if (comma == std::string::npos)
            return axis;
        at = comma + 1;
    }
}

std::vector<ExperimentTask>
expandPlan(const ExperimentPlan &plan)
{
    bool seedAxis = false;
    for (const GridAxis &axis : plan.axes) {
        if (axis.values.empty())
            PISO_FATAL("grid axis '", axis.key, "' has no values");
        seedAxis |= axis.key == "seed";
    }
    if (seedAxis && !plan.seeds.empty())
        PISO_FATAL("a 'seed' grid axis and a seed list (--seeds) both "
                   "set the task seeds; use one");

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
            task.spec = plan.base;
            for (std::size_t a = 0; a < plan.axes.size(); ++a) {
                const GridAxis &axis = plan.axes[a];
                const std::string &value = axis.values[at[a]];
                applyGridKey(task.spec.config, axis.key, value);
                task.params.emplace_back(axis.key, value);
            }
            // A seed axis has set the seed already.
            if (!seedAxis) {
                task.spec.config.seed = seed;
                task.params.emplace_back("seed", std::to_string(seed));
            }
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
