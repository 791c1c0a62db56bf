/**
 * @file
 * piso_lint: the project-invariant static checker.
 *
 *   piso_lint src tools bench examples   # lint the whole tree
 *   piso_lint --list-rules               # what is enforced
 *   piso_lint --list-allows src          # every suppression, audited
 *   piso_lint --time src                 # plus files and ms to stderr
 *
 * Every run is one cold pass over the given trees: each file is lexed
 * and checked, then the layering rule walks the whole include graph.
 *
 * Exit codes: 0 clean, 1 findings, 2 usage/I-O error. Rules and the
 * suppression syntax are documented in docs/static-analysis.md.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/lint/engine.hh"

namespace {

void
printUsage(std::FILE *to)
{
    std::fprintf(to,
                 "usage: piso_lint [options] <file-or-dir>...\n"
                 "  --list-rules       print the rule registry and "
                 "exit\n"
                 "  --list-allows      print every suppression "
                 "directive (with its\n"
                 "                     file, line and justification) "
                 "instead of findings\n"
                 "  --time             print scan/analysis timing to "
                 "stderr\n"
                 "  -h, --help         show this help and exit\n"
                 "\n"
                 "Directories are searched recursively for .cc/.hh "
                 "files. Suppress a\n"
                 "finding with  // piso-lint: allow(<rule>) -- "
                 "<justification>  on (or\n"
                 "immediately above) the offending line — or "
                 "allow-file(<rule>) for a\n"
                 "whole file; the justification is mandatory either "
                 "way.\n"
                 "See docs/static-analysis.md.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool listAllows = false;
    bool timing = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list-rules") == 0) {
            for (const piso::lint::Rule &r : piso::lint::ruleRegistry())
                std::printf("%-26s %s\n", r.name, r.summary);
            std::printf("%-26s %s (cross-file)\n",
                        piso::lint::kRuleLayering,
                        piso::lint::kLayeringSummary);
            return 0;
        } else if (std::strcmp(argv[i], "--list-allows") == 0) {
            listAllows = true;
        } else if (std::strcmp(argv[i], "--time") == 0) {
            timing = true;
        } else if (std::strcmp(argv[i], "-h") == 0 ||
                   std::strcmp(argv[i], "--help") == 0) {
            printUsage(stdout);
            return 0;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "piso_lint: unknown option '%s'\n",
                         argv[i]);
            printUsage(stderr);
            return 2;
        } else {
            paths.emplace_back(argv[i]);
        }
    }
    if (paths.empty()) {
        printUsage(stderr);
        return 2;
    }

    // Wall clock here is operator-facing tooling telemetry, not
    // simulated time; the simulator's determinism rules don't apply to
    // the lint driver itself.
    const auto t0 = std::chrono::steady_clock::now();

    piso::lint::LintResult result;
    std::string error;
    if (!piso::lint::lintFiles(paths, result, error)) {
        std::fprintf(stderr, "piso_lint: %s\n", error.c_str());
        return 2;
    }

    if (timing) {
        const auto dt = std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        std::fprintf(stderr,
                     "piso_lint: %d files scanned, %lld ms\n",
                     result.filesScanned, static_cast<long long>(dt));
    }

    if (listAllows) {
        std::fputs(piso::lint::formatAllows(result).c_str(), stdout);
        // Suppression-audit findings (unknown rule, missing
        // justification, stale allow) still gate the exit code so the
        // audit is actionable in CI.
        return result.exitCode();
    }
    std::fputs(piso::lint::formatText(result).c_str(), stdout);
    return result.exitCode();
}
