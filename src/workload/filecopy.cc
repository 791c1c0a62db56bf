#include "src/workload/filecopy.hh"

#include "src/util/log.hh"
#include "src/workload/synthetic.hh"

namespace piso {

JobSpec
makeFileCopy(std::string name, const FileCopyConfig &cfg)
{
    if (cfg.bytes == 0 || cfg.chunkBytes == 0)
        PISO_FATAL("copy '", name, "' needs non-zero sizes");

    JobSpec job;
    job.name = std::move(name);
    job.build = [cfg, jobName = job.name](Kernel &, WorkloadEnv &env) {
        const FileId src = env.fs.createFile(env.disk, cfg.bytes);
        const FileId dst = env.fs.createFile(env.disk, cfg.bytes);

        std::vector<Action> script;
        script.push_back(GrowMemAction{cfg.wsPages});
        for (std::uint64_t off = 0; off < cfg.bytes;
             off += cfg.chunkBytes) {
            const std::uint64_t n =
                std::min<std::uint64_t>(cfg.chunkBytes, cfg.bytes - off);
            script.push_back(ReadAction{src, off, n});
            if (cfg.cpuPerChunk > 0)
                script.push_back(ComputeAction{cfg.cpuPerChunk});
            script.push_back(WriteAction{dst, off, n, false});
        }

        std::vector<ProcessSpec> procs;
        procs.push_back(ProcessSpec{
            jobName,
            std::make_unique<ScriptBehavior>(std::move(script))});
        return procs;
    };
    return job;
}

} // namespace piso
