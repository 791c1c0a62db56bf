#ifndef PISO_TESTS_PMAKE_REF_UTIL_HH
#define PISO_TESTS_PMAKE_REF_UTIL_HH

/**
 * @file
 * Reference unroller for the pmake workload, and an Action printer.
 *
 * makePmake's compile workers keep one record per source file and
 * generate their actions on demand. The reference here is the
 * implementation they replace: it lays out the same files and draws
 * the same compile jitter, but spells every worker's whole program
 * out as a std::vector<Action> up front. test_workloads.cc asserts
 * the two agree action for action, file for file and draw for draw.
 */

#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "src/workload/job.hh"
#include "src/workload/pmake.hh"

namespace piso::testutil {

/** Every worker's unrolled script, in worker order; files are created
 *  in @p env.fs and jitter is drawn from @p env.rng as makePmake's
 *  build does. */
inline std::vector<std::vector<Action>>
unrollPmake(const std::string &jobName, const PmakeConfig &cfg,
            WorkloadEnv &env)
{
    const FileId meta =
        env.fs.createFile(jobName + ".meta", env.disk, 512);

    std::vector<std::vector<Action>> scripts;
    for (int w = 0; w < cfg.parallelism; ++w) {
        std::vector<Action> script;
        script.push_back(GrowMemAction{cfg.workerWsPages});

        for (int i = 0; i < cfg.filesPerWorker; ++i) {
            const std::string stem = jobName + ".w" + std::to_string(w) +
                                     ".f" + std::to_string(i);
            const FileId src =
                env.fs.createFile(stem + ".c", env.disk, cfg.srcBytes,
                                  FilePlacement::Scattered);
            const FileId obj =
                env.fs.createFile(stem + ".o", env.disk, cfg.objBytes,
                                  FilePlacement::Scattered);

            if (cfg.inodeLock >= 0) {
                script.push_back(
                    LockAction{cfg.inodeLock, false, cfg.lockHold});
            }
            script.push_back(ReadAction{src, 0, cfg.srcBytes});

            const double f = env.rng.uniformRange(0.8, 1.2);
            script.push_back(ComputeAction{static_cast<Time>(
                static_cast<double>(cfg.compileCpu) * f)});

            script.push_back(WriteAction{obj, 0, cfg.objBytes, false});
            if (cfg.inodeLock >= 0) {
                script.push_back(
                    LockAction{cfg.inodeLock, true, cfg.lockHold});
            }
            script.push_back(WriteAction{meta, 0, 512, cfg.metadataSync});
        }
        scripts.push_back(std::move(script));
    }
    return scripts;
}

/** One line naming @p a's kind and every field, for comparisons with
 *  readable failure messages. */
inline std::string
describeAction(const Action &a)
{
    std::ostringstream os;
    std::visit(
        [&os](const auto &v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, ComputeAction>)
                os << "compute " << v.duration;
            else if constexpr (std::is_same_v<T, ReadAction>)
                os << "read " << v.file << " " << v.offset << " "
                   << v.bytes;
            else if constexpr (std::is_same_v<T, WriteAction>)
                os << "write " << v.file << " " << v.offset << " "
                   << v.bytes << " " << v.sync;
            else if constexpr (std::is_same_v<T, GrowMemAction>)
                os << "grow " << v.pages;
            else if constexpr (std::is_same_v<T, ShrinkMemAction>)
                os << "shrink " << v.pages;
            else if constexpr (std::is_same_v<T, SleepAction>)
                os << "sleep " << v.duration;
            else if constexpr (std::is_same_v<T, BarrierAction>)
                os << "barrier " << v.barrier << " " << v.spin;
            else if constexpr (std::is_same_v<T, LockAction>)
                os << "lock " << v.lock << " " << v.exclusive << " "
                   << v.hold;
            else if constexpr (std::is_same_v<T, SendAction>)
                os << "send " << v.bytes;
            else {
                static_assert(std::is_same_v<T, ExitAction>,
                              "describeAction misses an Action kind");
                os << "exit";
            }
        },
        a);
    return os.str();
}

} // namespace piso::testutil

#endif // PISO_TESTS_PMAKE_REF_UTIL_HH
