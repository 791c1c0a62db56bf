/**
 * @file
 * piso_lint: the project-invariant static checker.
 *
 *   piso_lint src tools                    # lint the library + CLIs
 *   piso_lint --json src                   # SARIF-lite output
 *   piso_lint --list-rules                 # what is enforced
 *   piso_lint --list-allows src            # every suppression, audited
 *   piso_lint --cache .lint-cache src      # incremental re-analysis
 *   piso_lint --diff-base origin/main src  # PR mode: changed lines
 *                                          # only (layering still
 *                                          # gates tree-wide)
 *
 * Exit codes: 0 clean, 1 findings, 2 usage/I-O error. Rules and the
 * suppression syntax are documented in docs/static-analysis.md.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/lint/engine.hh"
#include "src/lint/lexer.hh"

namespace {

void
printUsage(std::FILE *to)
{
    std::fprintf(to,
                 "usage: piso_lint [options] <file-or-dir>...\n"
                 "  --json             SARIF-lite JSON output instead "
                 "of text\n"
                 "  --list-rules       print the rule registry and "
                 "exit\n"
                 "  --list-allows      print every suppression "
                 "directive (with its\n"
                 "                     file, line and justification) "
                 "instead of findings\n"
                 "  --cache <file>     incremental mode: re-analyze "
                 "only files whose\n"
                 "                     content hash changed, plus "
                 "their reverse\n"
                 "                     include-graph closure\n"
                 "  --diff-base <ref>  report only findings on lines "
                 "changed since\n"
                 "                     <ref> (git diff); layering "
                 "still gates tree-wide\n"
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

/**
 * Parse `git diff -U0 <ref> -- .` output into changed-line ranges per
 * project-relative path. Reads hunk headers only:
 *   +++ b/src/core/spu.cc
 *   @@ -10,2 +12,3 @@
 * Returns false when git cannot produce the diff (not a repo, unknown
 * ref) — the caller degrades to a full report with a warning.
 */
bool
gitDiffLines(const std::string &ref, piso::lint::DiffLines &out)
{
    const std::string cmd =
        "git diff -U0 --no-color " + ref + " -- . 2>/dev/null";
    std::FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return false;
    char buf[4096];
    std::string current;
    while (std::fgets(buf, sizeof(buf), pipe) != nullptr) {
        std::string line(buf);
        if (!line.empty() && line.back() == '\n')
            line.pop_back();
        if (line.rfind("+++ b/", 0) == 0) {
            current = piso::lint::projectRelative(line.substr(6));
            continue;
        }
        if (line.rfind("@@", 0) != 0 || current.empty())
            continue;
        // "@@ -a,b +start,count @@" (",count" omitted when 1).
        const std::size_t plus = line.find('+');
        if (plus == std::string::npos)
            continue;
        int start = 0;
        int count = 1;
        if (std::sscanf(line.c_str() + plus + 1, "%d,%d", &start,
                        &count) < 1)
            continue;
        if (count > 0)
            out.byPath[current].push_back(
                {start, start + count - 1});
    }
    return pclose(pipe) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool listAllows = false;
    bool timing = false;
    std::string cachePath;
    std::string diffBase;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            json = true;
        } else if (std::strcmp(argv[i], "--list-rules") == 0) {
            for (const piso::lint::Rule &r : piso::lint::ruleRegistry())
                std::printf("%-26s %s\n", r.name, r.summary);
            for (const piso::lint::ProjectRule &r :
                 piso::lint::projectRuleRegistry())
                std::printf("%-26s %s (cross-file)\n", r.name,
                            r.summary);
            return 0;
        } else if (std::strcmp(argv[i], "--list-allows") == 0) {
            listAllows = true;
        } else if (std::strcmp(argv[i], "--cache") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "piso_lint: --cache needs a file\n");
                return 2;
            }
            cachePath = argv[i];
        } else if (std::strcmp(argv[i], "--diff-base") == 0) {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "piso_lint: --diff-base needs a ref\n");
                return 2;
            }
            diffBase = argv[i];
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
    if (!piso::lint::lintFilesCached(paths, cachePath, result, error)) {
        std::fprintf(stderr, "piso_lint: %s\n", error.c_str());
        return 2;
    }

    if (!diffBase.empty()) {
        piso::lint::DiffLines diff;
        if (!gitDiffLines(diffBase, diff)) {
            std::fprintf(stderr,
                         "piso_lint: warning: cannot diff against "
                         "'%s'; reporting all findings\n",
                         diffBase.c_str());
        } else {
            piso::lint::filterToDiff(result, diff);
        }
    }

    if (timing) {
        const auto dt = std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        std::fprintf(stderr,
                     "piso_lint: %d files scanned, %d re-analyzed, "
                     "%lld ms\n",
                     result.filesScanned, result.filesReanalyzed,
                     static_cast<long long>(dt));
    }

    if (listAllows) {
        std::fputs(piso::lint::formatAllows(result).c_str(), stdout);
        // Suppression-audit findings (unknown rule, missing
        // justification, stale allow) still gate the exit code so the
        // audit is actionable in CI.
        return result.exitCode();
    }
    const std::string out = json ? piso::lint::formatSarif(result)
                                 : piso::lint::formatText(result);
    std::fputs(out.c_str(), stdout);
    return result.exitCode();
}
