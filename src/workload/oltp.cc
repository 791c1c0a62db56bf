#include "src/workload/oltp.hh"

#include "src/util/log.hh"
#include "src/workload/synthetic.hh"

namespace piso {

JobSpec
makeOltp(std::string name, const OltpConfig &cfg)
{
    if (cfg.servers < 1 || cfg.transactionsPerServer < 1)
        PISO_FATAL("oltp '", name, "' needs >=1 server and transaction");
    if (cfg.updateFraction < 0.0 || cfg.updateFraction > 1.0)
        PISO_FATAL("oltp '", name, "' update fraction out of [0,1]");

    JobSpec job;
    job.name = std::move(name);
    job.build = [cfg, jobName = job.name](Kernel &, WorkloadEnv &env) {
        const FileId table = env.fs.createFile(env.disk, cfg.tableBytes);
        // The write-ahead log: appends walk it sequentially.
        const std::uint64_t logBytes =
            static_cast<std::uint64_t>(cfg.servers) *
            cfg.transactionsPerServer * cfg.logAppendBytes + 4096;
        const FileId log = env.fs.createFile(env.disk, logBytes);

        const std::uint64_t pageBytes = 4096;
        const std::uint64_t tablePages = cfg.tableBytes / pageBytes;
        std::uint64_t logOffset = 0;

        std::vector<ProcessSpec> procs;
        for (int s = 0; s < cfg.servers; ++s) {
            std::vector<Action> script;
            script.push_back(GrowMemAction{cfg.wsPages});
            for (int t = 0; t < cfg.transactionsPerServer; ++t) {
                const bool update =
                    env.rng.chance(cfg.updateFraction);
                if (cfg.indexLock >= 0) {
                    script.push_back(LockAction{cfg.indexLock, update,
                                                cfg.lockHold});
                }
                // Random table page read.
                const std::uint64_t page =
                    env.rng.uniformInt(tablePages);
                script.push_back(
                    ReadAction{table, page * pageBytes, pageBytes});
                // Transaction logic.
                const double f = env.rng.uniformRange(0.7, 1.3);
                script.push_back(ComputeAction{static_cast<Time>(
                    static_cast<double>(cfg.txnCpu) * f)});
                // Synchronous log append for updates.
                if (update) {
                    script.push_back(WriteAction{log, logOffset,
                                                 cfg.logAppendBytes,
                                                 true});
                    logOffset += cfg.logAppendBytes;
                }
            }
            ProcessSpec spec;
            spec.name = jobName + ".srv" + std::to_string(s);
            spec.behavior =
                std::make_unique<ScriptBehavior>(std::move(script));
            spec.touchInterval = 15 * kMs; // buffer pools have locality
            procs.push_back(std::move(spec));
        }
        return procs;
    };
    return job;
}

} // namespace piso
