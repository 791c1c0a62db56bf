#include "src/workload/pmake.hh"

#include <iterator>
#include <memory>
#include <vector>

#include "src/util/error.hh"
#include "src/util/log.hh"

namespace piso {

namespace {

/** One source file of a compile worker. */
struct CompileStep
{
    FileId src;
    FileId obj;
    Time compile;  //!< jittered compile CPU for this file
};

/**
 * A compile worker. Its program is the unrolled script
 *
 *   grow(workerWsPages), then per file:
 *   [lock shared] read src, compute, write obj, [lock exclusive],
 *   write meta
 *
 * (the bracketed lock actions only with an inode lock), but it keeps
 * one CompileStep per file and generates action i when the kernel
 * asks for it instead of storing 4-6 Actions per file up front.
 */
class CompileWorker : public Behavior
{
  public:
    CompileWorker(const PmakeConfig &cfg, FileId meta,
                  std::vector<CompileStep> steps)
        : cfg_(cfg), meta_(meta), steps_(std::move(steps))
    {
    }

    Action
    next(Process &, const BehaviorContext &) override
    {
        if (index_ >= length())
            return ExitAction{};
        return actionAt(index_++);
    }

    void
    ckpt(CkptIo &io) override
    {
        io.u64(index_);
        if (io.loading() && index_ > length())
            throw ConfigError("checkpoint image rejected: pmake "
                              "cursor beyond script end");
    }

  private:
    /** The actions of one file, in script order. */
    enum class Slot
    {
        LockShared,
        Read,
        Compute,
        WriteObj,
        LockExclusive,
        WriteMeta,
    };
    static constexpr Slot kLocked[] = {
        Slot::LockShared, Slot::Read,          Slot::Compute,
        Slot::WriteObj,   Slot::LockExclusive, Slot::WriteMeta};
    static constexpr Slot kUnlocked[] = {Slot::Read, Slot::Compute,
                                         Slot::WriteObj, Slot::WriteMeta};

    bool locked() const { return cfg_.inodeLock >= 0; }
    std::size_t perFile() const
    {
        return locked() ? std::size(kLocked) : std::size(kUnlocked);
    }
    std::size_t length() const { return 1 + steps_.size() * perFile(); }

    Action
    actionAt(std::size_t i) const
    {
        if (i == 0)
            return GrowMemAction{cfg_.workerWsPages};
        const CompileStep &step = steps_[(i - 1) / perFile()];
        const std::size_t k = (i - 1) % perFile();
        switch (locked() ? kLocked[k] : kUnlocked[k]) {
          case Slot::LockShared:
            return LockAction{cfg_.inodeLock, false, cfg_.lockHold};
          case Slot::Read:
            return ReadAction{step.src, 0, cfg_.srcBytes};
          case Slot::Compute:
            return ComputeAction{step.compile};
          case Slot::WriteObj:
            return WriteAction{step.obj, 0, cfg_.objBytes, false};
          case Slot::LockExclusive:
            return LockAction{cfg_.inodeLock, true, cfg_.lockHold};
          case Slot::WriteMeta:
            break;
        }
        return WriteAction{meta_, 0, 512, cfg_.metadataSync};
    }

    PmakeConfig cfg_;
    FileId meta_;
    // Replayed by setup; only the cursor is imaged.
    std::vector<CompileStep> steps_;
    std::size_t index_ = 0;
};

} // namespace

JobSpec
makePmake(std::string name, const PmakeConfig &cfg)
{
    if (cfg.parallelism < 1 || cfg.filesPerWorker < 1)
        PISO_FATAL("pmake '", name, "' needs >=1 worker and >=1 file");

    JobSpec job;
    job.name = std::move(name);
    job.build = [cfg, jobName = job.name](Kernel &,
                                          WorkloadEnv &env) {
        // One shared metadata block per job: every worker rewrites it,
        // so the disk sees repeated writes to a single sector.
        const FileId meta = env.fs.createFile(env.disk, 512);

        std::vector<ProcessSpec> procs;
        for (int w = 0; w < cfg.parallelism; ++w) {
            std::vector<CompileStep> steps;
            steps.reserve(static_cast<std::size_t>(cfg.filesPerWorker));
            for (int i = 0; i < cfg.filesPerWorker; ++i) {
                const FileId src = env.fs.createFile(
                    env.disk, cfg.srcBytes, FilePlacement::Scattered);
                const FileId obj = env.fs.createFile(
                    env.disk, cfg.objBytes, FilePlacement::Scattered);

                const double f = env.rng.uniformRange(0.8, 1.2);
                const Time compile = static_cast<Time>(
                    static_cast<double>(cfg.compileCpu) * f);
                steps.push_back({src, obj, compile});
            }

            ProcessSpec spec;
            spec.name = jobName + ".cc" + std::to_string(w);
            spec.behavior = std::make_unique<CompileWorker>(
                cfg, meta, std::move(steps));
            spec.touchInterval = cfg.touchInterval;
            procs.push_back(std::move(spec));
        }
        return procs;
    };
    return job;
}

} // namespace piso
