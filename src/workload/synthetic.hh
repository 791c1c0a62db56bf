#ifndef PISO_WORKLOAD_SYNTHETIC_HH
#define PISO_WORKLOAD_SYNTHETIC_HH

/**
 * @file
 * Generic behaviours: scripted action sequences and simple synthetic
 * compute/memory patterns. Used by tests and as building blocks for
 * the paper workloads.
 */

#include <vector>

#include "src/os/behavior.hh"
#include "src/util/error.hh"
#include "src/workload/job.hh"

namespace piso {

/**
 * Plays back a fixed list of actions, then exits. The workhorse for
 * unit tests and for fully-unrolled workload scripts.
 */
class ScriptBehavior : public Behavior
{
  public:
    explicit ScriptBehavior(std::vector<Action> script)
        : script_(std::move(script))
    {
    }

    Action next(Process &, const BehaviorContext &) override
    {
        if (index_ >= script_.size())
            return ExitAction{};
        return script_[index_++];
    }

    std::size_t remaining() const { return script_.size() - index_; }

    void save(CkptWriter &w) const override { w.u64(index_); }

    void
    load(CkptReader &r) override
    {
        index_ = r.u64();
        if (index_ > script_.size())
            throw ConfigError("checkpoint image rejected: script "
                              "cursor beyond script end");
    }

  private:
    // Replayed by setup; only the cursor is imaged.
    std::vector<Action> script_;
    std::size_t index_ = 0;
};

/** Parameters of a plain compute-bound process. */
struct ComputeSpec
{
    Time totalCpu = kSec;          //!< total CPU work
    Time chunk = 100 * kMs;        //!< compute emitted per action
    std::uint64_t wsPages = 256;   //!< working-set size
    double jitter = 0.05;          //!< +- fraction applied per chunk
};

/**
 * A single compute-bound process (models VCS / Flashlite style
 * engineering jobs: CPU-only after start-up).
 */
class ComputeBehavior : public Behavior
{
  public:
    explicit ComputeBehavior(const ComputeSpec &spec) : spec_(spec) {}

    Action next(Process &self, const BehaviorContext &ctx) override;

    void
    save(CkptWriter &w) const override
    {
        w.time(done_);
        w.boolean(grown_);
    }

    void
    load(CkptReader &r) override
    {
        done_ = r.time();
        grown_ = r.boolean();
    }

  private:
    ComputeSpec spec_;
    Time done_ = 0;
    bool grown_ = false;
};

/** Single-process compute job (e.g. one VCS or Flashlite run). */
JobSpec makeComputeJob(std::string name, const ComputeSpec &spec);

/** Job playing one scripted process. */
JobSpec makeScriptJob(std::string name, std::vector<Action> script,
                      Time startAt = 0);

} // namespace piso

#endif // PISO_WORKLOAD_SYNTHETIC_HH
