#ifndef PISO_LINT_INDEX_HH
#define PISO_LINT_INDEX_HH

/**
 * @file
 * The cross-file index behind piso-lint's project rules.
 *
 * The per-file token rules see one translation unit at a time; the
 * index is what lets a rule reason *across* files. It holds two things
 * per file: the project includes (the edges the layering rule walks)
 * and each suppression directive with the line it covers, resolved
 * while the token stream is at hand so cached files need no re-lex.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "src/lint/lexer.hh"

namespace piso::lint {

/** One `#include "src/..."`-style project-relative include. */
struct IncludeEdge
{
    int line = 0;
    std::string target;  //!< as written, e.g. "src/os/vm.hh"
};

/** Everything the project rules need to know about one file. */
struct FileSummary
{
    std::string path;          //!< project-relative
    std::uint64_t hash = 0;    //!< FNV-1a of the file contents
    std::vector<IncludeEdge> includes;
    std::vector<Suppression> suppressions;
    /** Per-suppression resolved target line: the line the directive
     *  covers (own-line comments cover the next code line). Resolved at
     *  summary time so the engine can apply suppressions to cached
     *  files without re-lexing them. Empty-by-construction only for
     *  whole-file directives' entries (target 0 = any line). */
    std::vector<int> suppressionTargets;
};

/** The whole-project index: one summary per linted file, sorted by
 *  path. Non-owning views into the engine's storage. */
struct ProjectIndex
{
    std::vector<const FileSummary *> files;
};

/** FNV-1a over @p data — the content hash the incremental cache keys
 *  on (kept separate from the simulator's ckptFnv1a: the lint library
 *  must stay independent of libpiso). */
std::uint64_t lintFnv1a(const std::string &data);

/** Build a file's summary from its token stream (everything except
 *  `hash`, which only the engine knows). */
FileSummary summarizeFile(const SourceFile &file);

/**
 * The layer rank of a project-relative path, for the layering rule:
 * util/lint 0, sim 1, core 2, machine 3, os 4, workload 5, metrics 6,
 * src root (simulation/piso) 7, exp/config 8, tools/bench/examples 9.
 * Returns -1 for paths outside the ranked tree (tests, fixtures).
 */
int layerRank(const std::string &path);

/** Human name of a layer rank ("core", "os", ...). */
const char *layerName(int rank);

} // namespace piso::lint

#endif // PISO_LINT_INDEX_HH
