#ifndef PISO_CONFIG_WORKLOAD_SPEC_HH
#define PISO_CONFIG_WORKLOAD_SPEC_HH

/**
 * @file
 * A small text format describing a machine, its SPUs, and their jobs,
 * so experiments can be run from a file (tools/piso_run) without
 * writing C++. Line-based, `#` comments, `key=value` options:
 *
 * @code
 *   machine cpus=8 memory_mb=44 disks=8 scheme=piso seed=1
 *   # or mixed, overriding the scheme per resource (all optional):
 *   #   machine cpus=8 memory_mb=44 cpu=piso memory=quota network=smp
 *   spu alice share=1 disk=0
 *   spu bob share=2 disk=1
 *   job alice pmake   name=build workers=2 files=8
 *   job bob   copy    name=cp bytes_kb=20480
 *   job bob   compute name=hog cpu_ms=5000 ws_pages=400
 *   job alice ocean   name=sim procs=4 iters=100 grain_ms=20
 *   job bob   oltp    name=db servers=4 txns=100
 *   job bob   web     name=www workers=4 requests=200
 *
 *   [spus]                      # hierarchical alternative to `spu`
 *   eng            share=2      # a group: normalised against `ops`
 *   eng.build      share=3 disk=0
 *   eng.test       share=1 disk=1
 *   ops            share=1
 *   ops.web        share=1
 *
 * Inside a `[spus]` section each line declares one tree node by its
 * dotted path; a parent must be declared before its children, shares
 * are normalised among siblings only, and jobs may only name *leaf*
 * SPUs (here `job eng.build pmake ...`). The section ends at the next
 * directive or section header. Flat `spu` lines remain the depth-1
 * degenerate tree and may not contain dots.
 *
 *   [faults]                    # optional, last section of the file
 *   disk_slow  at_s=2 for_s=4 disk=0 factor=4
 *   disk_error at_s=1 for_s=1 disk=0 rate=0.5
 *   disk_dead  at_s=8 disk=1
 *   cpu_offline at_s=3 count=2
 *   cpu_online  at_s=6 count=2
 *   mem_shrink at_s=2 mb=8
 *   mem_grow   at_s=5 mb=8
 * @endcode
 *
 * Unknown keys are errors (typos must not silently change an
 * experiment); all values have the library's defaults. Fault
 * semantics are described in docs/faults.md.
 */

#include <map>
#include <string>
#include <vector>

#include "src/metrics/results.hh"
#include "src/simulation.hh"

namespace piso {

/** One `spu` line or `[spus]` node. */
struct SpuDecl
{
    /** Full dotted path for `[spus]` nodes ("eng.build"). */
    std::string name;

    /** Dotted path of the enclosing group; empty when top-level. */
    std::string parent;

    double share = 1.0;
    DiskId disk = 0;
};

/** One `job` line. */
struct JobDecl
{
    std::string spu;
    std::string kind;   //!< pmake | copy | compute | ocean | oltp | web
    std::string name;
    std::map<std::string, std::string> options;
    int line = 0;       //!< source line (for error messages)
};

/** A parsed workload file. */
struct WorkloadSpec
{
    SystemConfig config;
    std::vector<SpuDecl> spus;
    std::vector<JobDecl> jobs;
};

/**
 * Parse the text format.
 * @throws std::runtime_error (via PISO_FATAL) with the offending line
 *         number on any syntax or semantic error.
 */
WorkloadSpec parseWorkloadSpec(const std::string &text);

/** Construct the described Simulation's jobs and run it. */
SimResults runWorkloadSpec(const WorkloadSpec &spec);

/**
 * Declare the spec's SPUs and jobs on @p sim. Exposed so callers that
 * need the same Simulation more than once (the warm-start sweep
 * engine, the checkpoint tests) can replay an identical setup; @p sim
 * must have been constructed from spec.config.
 */
void populateWorkloadSpec(Simulation &sim, const WorkloadSpec &spec);

/**
 * The config digest (Simulation::configDigest()) of the Simulation
 * that populateWorkloadSpec() would build from @p spec, computed from
 * the spec alone: no Simulation is constructed. The warm-start sweep
 * engine groups tasks by it.
 * @throws ConfigError (via PISO_FATAL) when a parent or job names an
 *         SPU that the spec does not declare before it, or a job's
 *         `start_s` is not a number.
 */
std::uint64_t specConfigDigest(const WorkloadSpec &spec);

/**
 * Like runWorkloadSpec, but resume from a checkpoint @p image (as
 * produced by SystemConfig::checkpointSink or Simulation::checkpoint)
 * instead of starting at time zero. The image must come from an
 * equivalently-configured run; see docs/checkpoint.md.
 */
SimResults runWorkloadSpecFrom(const WorkloadSpec &spec,
                               const std::string &image);

/** Build the JobSpec described by @p decl (exposed for testing). */
JobSpec buildJob(const JobDecl &decl);

} // namespace piso

#endif // PISO_CONFIG_WORKLOAD_SPEC_HH
