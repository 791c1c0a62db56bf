#ifndef PISO_EXP_EXPERIMENT_HH
#define PISO_EXP_EXPERIMENT_HH

/**
 * @file
 * Batch experiment plans: a base workload spec plus a grid of
 * configuration knobs and seeds, expanded into a flat, deterministic
 * task list (the unit of work of the parallel sweep engine).
 *
 * A grid axis is `key=v1,v2,...` over a machine key of the `.piso`
 * format (machineKeys()) or a fault axis (fault_disk_*). Expansion is
 * the cross product in declaration order with seeds varying fastest,
 * so task indices — and therefore JSONL output order — are a pure
 * function of the plan, never of scheduling.
 *
 * See docs/sweeps.md for the fault axes, seed rules and JSONL schema.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/config/workload_spec.hh"

namespace piso::exp {

/** One sweep dimension: a config key and the values to try. */
struct GridAxis
{
    std::string key;
    std::vector<std::string> values;
};

/** A full batch experiment: base spec x grid axes x seeds. */
struct ExperimentPlan
{
    WorkloadSpec base;
    std::vector<GridAxis> axes;

    /** Seeds to replicate every grid point with; empty = just the
     *  base spec's seed (a plan with a `seed` axis must leave it so). */
    std::vector<std::uint64_t> seeds;
};

/** One fully-resolved unit of work. */
struct ExperimentTask
{
    std::size_t index = 0;   //!< position in the expanded plan
    /** Grid (key, value) pairs in axis order, then ("seed", n) when
     *  no axis sets the seed. */
    std::vector<std::pair<std::string, std::string>> params;
    WorkloadSpec spec;

    /** Human label, e.g. "scheme=piso seed=2". */
    std::string label() const;
};

/**
 * Apply one grid assignment to a system config.
 * @throws ConfigError (via PISO_FATAL) naming the valid keys on an
 *         unknown key, or the key and value on a bad value.
 */
void applyGridKey(SystemConfig &cfg, const std::string &key,
                  const std::string &value);

/**
 * Parse a `--grid` argument of the form `key=v1,v2,...`.
 * @throws ConfigError (via PISO_FATAL) on a malformed axis or an empty
 *         value.
 */
GridAxis parseGridAxis(const std::string &text);

/**
 * Expand the plan into its task list: the cross product of the axes
 * (declaration order, first axis outermost) and the seeds (innermost,
 * varying fastest). Every task's spec has all assignments applied.
 * @throws ConfigError when a `seed` axis meets a seed list.
 */
std::vector<ExperimentTask> expandPlan(const ExperimentPlan &plan);

} // namespace piso::exp

#endif // PISO_EXP_EXPERIMENT_HH
