#ifndef PISO_LINT_RULES_HH
#define PISO_LINT_RULES_HH

/**
 * @file
 * The piso-lint rule registry: every project invariant the checker
 * enforces, with its path scope and token-level matcher.
 *
 * Adding a rule is three steps (see docs/static-analysis.md):
 *   1. write a `check` function over the token stream,
 *   2. append a Rule entry to the registry in rules.cc,
 *   3. add violation + suppression fixtures under tests/lint_fixtures/.
 */

#include <string>
#include <vector>

#include "src/lint/index.hh"
#include "src/lint/lexer.hh"

namespace piso::lint {

/** One rule violation (or suppression problem) at a source line. */
struct Finding
{
    std::string rule;
    std::string path;
    int line = 0;
    std::string message;
};

/** One registered rule. */
struct Rule
{
    const char *name;     //!< stable id used by allow(...) directives
    const char *summary;  //!< one-line description for --list-rules
    /** Does the rule apply to this project-relative path? */
    bool (*applies)(const std::string &path);
    /** Scan @p file and append raw findings (suppressions are applied
     *  by the engine afterwards). */
    void (*check)(const SourceFile &file, std::vector<Finding> &out);
};

/**
 * A cross-file rule: runs once per lint run over the semantic index
 * (src/lint/index.hh) instead of once per file, so it can walk the
 * whole include graph. Findings carry the file/line of the offending
 * include, and the normal per-line `piso-lint: allow` escape applies
 * there.
 */
struct ProjectRule
{
    const char *name;     //!< stable id used by allow(...) directives
    const char *summary;  //!< one-line description for --list-rules
    /** Scan the whole-project index and append raw findings. */
    void (*check)(const ProjectIndex &index, std::vector<Finding> &out);
};

/** All registered per-file rules, in reporting order. */
const std::vector<Rule> &ruleRegistry();

/** All registered cross-file rules, in reporting order. */
const std::vector<ProjectRule> &projectRuleRegistry();

/** True when @p name names a registered rule (either registry). */
bool knownRule(const std::string &name);

/** The rule family that gates tree-wide even under --diff-base. An
 *  upward include or a cycle is a whole-tree property: a diff touching
 *  no include line can still introduce one. */
inline constexpr const char *kRuleLayering = "layering";

/** @name Rule names used by the engine's own suppression findings.
 *  These are not in the registry (they cannot be suppressed). */
/// @{
inline constexpr const char *kSuppressionJustification =
    "suppression-justification";
inline constexpr const char *kSuppressionUnknownRule =
    "suppression-unknown-rule";
inline constexpr const char *kSuppressionUnused = "suppression-unused";
/// @}

} // namespace piso::lint

#endif // PISO_LINT_RULES_HH
