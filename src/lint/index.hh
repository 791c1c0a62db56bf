#ifndef PISO_LINT_INDEX_HH
#define PISO_LINT_INDEX_HH

/**
 * @file
 * The cross-file index behind piso-lint's layering rule.
 *
 * The per-file token rules see one translation unit at a time; the
 * index is what lets the layering rule reason *across* files. It holds
 * two things per file: the project includes (the edges the layering
 * rule walks) and each suppression directive with the line it covers.
 */

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

/** Everything the engine needs to know about one file after its
 *  token stream is gone. */
struct FileSummary
{
    std::string path;  //!< project-relative
    std::vector<IncludeEdge> includes;
    std::vector<Suppression> suppressions;
    /** Per-suppression resolved target line: the line the directive
     *  covers (own-line comments cover the next code line; 0 = any
     *  line, for whole-file directives). */
    std::vector<int> suppressionTargets;
};

/** The whole-project index: one summary per linted file, sorted by
 *  path. Non-owning views into the engine's storage. */
struct ProjectIndex
{
    std::vector<const FileSummary *> files;
};

/** Build a file's summary from its token stream. */
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
