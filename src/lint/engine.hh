#ifndef PISO_LINT_ENGINE_HH
#define PISO_LINT_ENGINE_HH

/**
 * @file
 * The piso-lint driver: runs every applicable per-file rule over a set
 * of sources, builds the semantic index (src/lint/index.hh) and runs
 * the cross-file project rules over it, applies
 * `// piso-lint: allow(<rule>) -- <why>` suppressions (a justification
 * is mandatory), and renders text or SARIF-lite output.
 *
 * Two incremental features sit on top:
 *
 *  - A content-hash cache (`--cache <file>`): per-file summaries and
 *    raw per-file findings are persisted keyed by FNV-1a of the file
 *    contents. On a warm run only changed files — plus their reverse
 *    include-graph closure — are re-lexed and re-analyzed; project
 *    rules and suppression auditing always rerun from the summaries,
 *    so cached and cold runs report identical findings by
 *    construction.
 *
 *  - A diff filter (`--diff-base <ref>`): findings are restricted to
 *    changed lines, except the layering family, which gates tree-wide
 *    (a diff touching no include line can still break a whole-tree
 *    property).
 *
 * Exit-code contract (stable; CI keys off it):
 *   0  clean
 *   1  findings (including suppression problems)
 *   2  usage or I/O error
 */

#include <map>
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
    int filesReanalyzed = 0;  //!< files actually re-lexed (== scanned
                              //!< when no cache was used)

    /** 0 when clean, 1 when any finding survived. */
    int exitCode() const { return findings.empty() ? 0 : 1; }
};

/** Changed lines per project-relative path (from `git diff -U0`). */
struct DiffLines
{
    /** Half-open is overkill at this size: inclusive [first, last]. */
    std::map<std::string, std::vector<std::pair<int, int>>> byPath;
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

/**
 * Like lintFiles, but incremental: summaries and per-file findings are
 * read from / written back to @p cachePath (created on first run; a
 * stale or corrupt cache is silently ignored and rebuilt). An empty
 * @p cachePath degrades to lintFiles.
 */
bool lintFilesCached(const std::vector<std::string> &paths,
                     const std::string &cachePath, LintResult &result,
                     std::string &error);

/**
 * Drop findings outside @p diff's changed lines — except the
 * tree-wide-gating layering family (kRuleLayering), which is always
 * kept.
 */
void filterToDiff(LintResult &result, const DiffLines &diff);

/** Render findings as `path:line: [rule] message` lines + summary. */
std::string formatText(const LintResult &result);

/** Render findings as a SARIF-lite 2.1.0 JSON document. */
std::string formatSarif(const LintResult &result);

/** Render every suppression directive for `--list-allows`. */
std::string formatAllows(const LintResult &result);

} // namespace piso::lint

#endif // PISO_LINT_ENGINE_HH
