#include "src/workload/webserver.hh"

#include "src/util/log.hh"
#include "src/workload/synthetic.hh"

namespace piso {

JobSpec
makeWebServer(std::string name, const WebServerConfig &cfg)
{
    if (cfg.workers < 1 || cfg.requestsPerWorker < 1)
        PISO_FATAL("webserver '", name, "' needs >=1 worker/request");
    if (cfg.documents < 1)
        PISO_FATAL("webserver '", name, "' needs documents");

    JobSpec job;
    job.name = std::move(name);
    job.build = [cfg, jobName = job.name](Kernel &, WorkloadEnv &env) {
        std::vector<FileId> docs;
        docs.reserve(static_cast<std::size_t>(cfg.documents));
        for (int d = 0; d < cfg.documents; ++d) {
            docs.push_back(env.fs.createFile(env.disk, cfg.docBytes,
                                             FilePlacement::Scattered));
        }
        const int hotCount = std::max(1, cfg.documents / 10);

        std::vector<ProcessSpec> procs;
        for (int w = 0; w < cfg.workers; ++w) {
            std::vector<Action> script;
            script.push_back(GrowMemAction{cfg.wsPages});
            for (int r = 0; r < cfg.requestsPerWorker; ++r) {
                // Pick a document: hot set with probability
                // hotFraction, anywhere otherwise.
                const bool hot = env.rng.chance(cfg.hotFraction);
                const std::uint64_t idx =
                    hot ? env.rng.uniformInt(
                              static_cast<std::uint64_t>(hotCount))
                        : env.rng.uniformInt(static_cast<std::uint64_t>(
                              cfg.documents));
                script.push_back(ReadAction{
                    docs[static_cast<std::size_t>(idx)], 0,
                    cfg.docBytes});
                const double f = env.rng.uniformRange(0.7, 1.3);
                script.push_back(ComputeAction{static_cast<Time>(
                    static_cast<double>(cfg.requestCpu) * f)});
                if (cfg.responseBytes > 0)
                    script.push_back(SendAction{cfg.responseBytes});
            }
            ProcessSpec spec;
            spec.name = jobName + ".w" + std::to_string(w);
            spec.behavior =
                std::make_unique<ScriptBehavior>(std::move(script));
            procs.push_back(std::move(spec));
        }
        return procs;
    };
    return job;
}

} // namespace piso
