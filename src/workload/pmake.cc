#include "src/workload/pmake.hh"

#include <iterator>
#include <memory>
#include <vector>

#include "src/util/error.hh"
#include "src/util/log.hh"

namespace piso {

namespace {

/**
 * A compile worker. Its program is the unrolled script
 *
 *   grow(workerWsPages), then per file:
 *   [lock shared] read src, compute, write obj, [lock exclusive],
 *   write meta
 *
 * (the bracketed lock actions only with an inode lock), but it
 * generates action i when the kernel asks for it instead of storing
 * 4-6 Actions per file up front. Its files are one run of sources and
 * objects, alternating, so file k's source is first + 2k and its
 * object the id after. Its compile times come from a copy of the job's
 * stream taken when the worker was built, read forward one draw per
 * file.
 */
class CompileWorker : public Behavior
{
  public:
    CompileWorker(const PmakeConfig &cfg, FileId meta, FileId files,
                  Rng jitter)
        : cfg_(cfg), meta_(meta), files_(files), jitter_(jitter)
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
    std::size_t
    length() const
    {
        return 1 + static_cast<std::size_t>(cfg_.filesPerWorker) * perFile();
    }

    /** Compile time of file @p step: the draw after step - 1's. Steps
     *  are asked for in order; after a restore the cursor starts over
     *  and skips the draws of the steps already run. */
    Time
    compileTime(std::size_t step)
    {
        PISO_CHECK(step >= drawn_, "pmake compile time of file ", step,
                   " asked for after file ", drawn_ - 1, "'s");
        for (; drawn_ < step; ++drawn_)
            jitter_.next();
        ++drawn_;
        const double f = jitter_.uniformRange(0.8, 1.2);
        return static_cast<Time>(static_cast<double>(cfg_.compileCpu) * f);
    }

    Action
    actionAt(std::size_t i)
    {
        if (i == 0)
            return GrowMemAction{cfg_.workerWsPages};
        const std::size_t step = (i - 1) / perFile();
        const FileId src = files_ + static_cast<FileId>(2 * step);
        const std::size_t k = (i - 1) % perFile();
        switch (locked() ? kLocked[k] : kUnlocked[k]) {
          case Slot::LockShared:
            return LockAction{cfg_.inodeLock, false, cfg_.lockHold};
          case Slot::Read:
            return ReadAction{src, 0, cfg_.srcBytes};
          case Slot::Compute:
            return ComputeAction{compileTime(step)};
          case Slot::WriteObj:
            return WriteAction{src + 1, 0, cfg_.objBytes, false};
          case Slot::LockExclusive:
            return LockAction{cfg_.inodeLock, true, cfg_.lockHold};
          case Slot::WriteMeta:
            break;
        }
        return WriteAction{meta_, 0, 512, cfg_.metadataSync};
    }

    PmakeConfig cfg_;
    FileId meta_;
    FileId files_;  //!< the first source
    // Replayed by setup; only the action cursor is imaged.
    Rng jitter_;
    std::size_t drawn_ = 0;  //!< compile times drawn from jitter_
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

        const std::uint64_t sizes[] = {cfg.srcBytes, cfg.objBytes};
        const std::size_t files =
            static_cast<std::size_t>(cfg.filesPerWorker);
        std::vector<ProcessSpec> procs;
        for (int w = 0; w < cfg.parallelism; ++w) {
            const FileId first = env.fs.createFiles(
                env.disk, sizes, 2 * files, FilePlacement::Scattered);
            // The worker draws its compile times from this copy; the
            // job's stream moves past them (uniformRange is one next()).
            const Rng jitter = env.rng;
            for (std::size_t i = 0; i < files; ++i)
                env.rng.next();

            ProcessSpec spec;
            spec.name = jobName + ".cc" + std::to_string(w);
            spec.behavior =
                std::make_unique<CompileWorker>(cfg, meta, first, jitter);
            spec.touchInterval = cfg.touchInterval;
            procs.push_back(std::move(spec));
        }
        return procs;
    };
    return job;
}

} // namespace piso
