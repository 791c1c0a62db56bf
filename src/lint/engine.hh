#ifndef PISO_LINT_ENGINE_HH
#define PISO_LINT_ENGINE_HH

/**
 * @file
 * The piso-lint driver: one cold pass over a set of sources. It runs
 * every applicable per-file rule, builds the semantic index
 * (src/lint/index.hh) and runs the cross-file layering rule over it,
 * applies `// piso-lint: allow(<rule>) -- <why>` suppressions (a
 * justification is mandatory), and renders text output.
 *
 * Exit-code contract (stable; CI keys off it):
 *   0  clean
 *   1  findings (including suppression problems)
 *   2  usage or I/O error
 */

#include <string>
#include <utility>
#include <vector>

#include "src/lint/rules.hh"

namespace piso::lint {

/** One suppression directive, for `--list-allows`. */
struct AllowEntry
{
    std::string path;
    int line = 0;
    std::vector<std::string> rules;
    std::string justification;
    bool wholeFile = false;
};

/** Outcome of one lint run. */
struct LintResult
{
    std::vector<Finding> findings;  //!< sorted by (path, line, rule)
    std::vector<AllowEntry> allows;  //!< every directive seen, sorted
    int filesScanned = 0;

    /** 0 when clean, 1 when any finding survived. */
    int exitCode() const { return findings.empty() ? 0 : 1; }
};

/**
 * Lint in-memory sources (the test entry point). Each pair is
 * (path, contents); paths are mapped through projectRelative() for
 * rule scoping.
 */
LintResult lintSources(
    const std::vector<std::pair<std::string, std::string>> &sources);

/**
 * Expand @p paths (files, or directories searched recursively for
 * .cc/.hh) into a sorted file list. Returns false and sets @p error on
 * a nonexistent path.
 */
bool collectFiles(const std::vector<std::string> &paths,
                  std::vector<std::string> &files, std::string &error);

/**
 * Lint files on disk (the CLI entry point). Returns false and sets
 * @p error when a path does not exist or cannot be read.
 */
bool lintFiles(const std::vector<std::string> &paths, LintResult &result,
               std::string &error);

/** Render findings as `path:line: [rule] message` lines + summary. */
std::string formatText(const LintResult &result);

/** Render every suppression directive for `--list-allows`. */
std::string formatAllows(const LintResult &result);

} // namespace piso::lint

#endif // PISO_LINT_ENGINE_HH
