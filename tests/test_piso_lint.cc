/**
 * @file
 * The lint engine linted: every rule run against known-bad fixtures
 * under tests/lint_fixtures/ (which mirror project paths so the rule
 * scoping applies), plus the suppression machinery and the exit-code
 * contract. Each expected violation must be reported exactly once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/lint/engine.hh"
#include "src/lint/lexer.hh"
#include "src/lint/rules.hh"

using namespace piso::lint;

namespace {

std::string
fixture(const std::string &rel)
{
    return std::string(PISO_LINT_FIXTURE_DIR) + "/" + rel;
}

/** Lint one or more fixture files; hard-fails the test on I/O
 *  errors. */
LintResult
lintFixtures(const std::vector<std::string> &rels)
{
    std::vector<std::string> paths;
    for (const std::string &rel : rels)
        paths.push_back(fixture(rel));
    LintResult result;
    std::string error;
    if (!lintFiles(paths, result, error))
        ADD_FAILURE() << "cannot lint fixtures: " << error;
    return result;
}

LintResult
lintFixture(const std::string &rel)
{
    return lintFixtures({rel});
}

/** (rule, line) pairs, sorted — the shape the expectations use. */
std::vector<std::pair<std::string, int>>
hits(const LintResult &result)
{
    std::vector<std::pair<std::string, int>> out;
    for (const Finding &f : result.findings)
        out.emplace_back(f.rule, f.line);
    std::sort(out.begin(), out.end());
    return out;
}

using Hits = std::vector<std::pair<std::string, int>>;

} // namespace

// ---------------------------------------------------------------------
// One fixture per rule: exact findings, each reported exactly once.
// ---------------------------------------------------------------------

TEST(LintRules, WallclockFlagsEveryHostTimeSource)
{
    const LintResult r = lintFixture("src/sim/wallclock.cc");
    EXPECT_EQ(hits(r), (Hits{{"determinism-wallclock", 11},
                             {"determinism-wallclock", 13},
                             {"determinism-wallclock", 20},
                             {"determinism-wallclock", 20}}));
    EXPECT_EQ(r.exitCode(), 1);
}

TEST(LintRules, UnorderedContainerInEmissionPath)
{
    const LintResult r = lintFixture("src/metrics/unordered.cc");
    EXPECT_EQ(hits(r), (Hits{{"determinism-unordered", 7}}));
}

TEST(LintRules, MutableGlobalsAndStaticLocals)
{
    // const / constexpr / thread_local / plain locals stay clean; the
    // bare namespace-scope int and the static local are flagged.
    const LintResult r = lintFixture("src/core/global_state.cc");
    EXPECT_EQ(hits(r), (Hits{{"thread-global-state", 5},
                             {"thread-global-state", 13}}));
}

TEST(LintRules, MapKeyedByDenseIdAndRawNewDelete)
{
    const LintResult r = lintFixture("src/os/tables.cc");
    EXPECT_EQ(hits(r), (Hits{{"memory-raw-new", 18},
                             {"memory-raw-new", 24},
                             {"table-map-key", 11}}));
}

TEST(LintRules, NonCanonicalIncludeGuard)
{
    const LintResult r = lintFixture("src/sim/bad_guard.hh");
    EXPECT_EQ(hits(r), (Hits{{"hygiene-include-guard", 1}}));
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_NE(r.findings[0].message.find("PISO_SIM_BAD_GUARD_HH"),
              std::string::npos);
}

TEST(LintRules, DirectIoInTheLibrary)
{
    const LintResult r = lintFixture("src/os/io.cc");
    EXPECT_EQ(hits(r), (Hits{{"hygiene-io", 10}, {"hygiene-io", 11}}));
}

TEST(LintRules, BareRuntimeErrorThrowsInQuarantinedLayers)
{
    // Qualified and unqualified spellings are both flagged; throwing a
    // SimError subclass and merely naming the type are not.
    const LintResult r = lintFixture("src/exp/bare_throw.cc");
    EXPECT_EQ(hits(r), (Hits{{"error-taxonomy", 15},
                             {"error-taxonomy", 21}}));
}

TEST(LintRules, FullTableScansOnPolicyHotPaths)
{
    // The named-table range-for and the structured-binding pair sweep
    // are flagged; the justified allow, the classic indexed loop, and
    // the initializer-list loop stay clean.
    const LintResult r = lintFixture("src/core/full_scan.cc");
    EXPECT_EQ(hits(r), (Hits{{"hot-path-full-scan", 18},
                             {"hot-path-full-scan", 27}}));
}

TEST(LintRules, BareIntegerLiteralsInTimeArithmetic)
{
    // 500 + Time, Time > 250, Time += 2 are flagged; '500 * kMs'
    // scalar products, 0/1 offsets, and floating literals stay clean.
    const LintResult r = lintFixture("src/sim/time_literal.cc");
    EXPECT_EQ(hits(r), (Hits{{"time-unit-literal", 11},
                             {"time-unit-literal", 12},
                             {"time-unit-literal", 13}}));
}

// ---------------------------------------------------------------------
// Project (cross-file) rules over the include index.
// ---------------------------------------------------------------------

TEST(LintProject, UpwardIncludeIsReportedWithTheEdgeNamed)
{
    const LintResult r = lintFixture("src/sim/upward.cc");
    EXPECT_EQ(hits(r), (Hits{{kRuleLayering, 3}}));
    ASSERT_EQ(r.findings.size(), 1u);
    const std::string &msg = r.findings[0].message;
    EXPECT_NE(msg.find("src/sim/upward.cc (layer sim)"),
              std::string::npos);
    EXPECT_NE(msg.find("src/os/tables.hh (layer os)"),
              std::string::npos);
}

TEST(LintProject, IncludeCycleReportedOnceAtTheBackEdge)
{
    const LintResult r =
        lintFixtures({"src/sim/cycle_a.hh", "src/sim/cycle_b.hh"});
    EXPECT_EQ(hits(r), (Hits{{kRuleLayering, 5}}));
    ASSERT_EQ(r.findings.size(), 1u);
    EXPECT_EQ(r.findings[0].path, "src/sim/cycle_b.hh");
    EXPECT_NE(r.findings[0].message.find(
                  "include cycle: src/sim/cycle_a.hh -> "
                  "src/sim/cycle_b.hh -> src/sim/cycle_a.hh"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Scoping: the same constructs are legal where the rules don't apply.
// ---------------------------------------------------------------------

TEST(LintScoping, HostTimingAndStdioAreFineInTools)
{
    const LintResult r = lintFixture("tools/scoped_ok.cc");
    EXPECT_EQ(r.findings.size(), 0u);
    EXPECT_EQ(r.exitCode(), 0);
}

TEST(LintScoping, CleanSimFileStaysClean)
{
    // Banned names inside comments and string literals must not trip.
    const LintResult r = lintFixture("src/sim/clean.cc");
    EXPECT_EQ(r.findings.size(), 0u);
    EXPECT_EQ(r.exitCode(), 0);
}

TEST(LintScoping, FixturePathsMapOntoProjectPaths)
{
    EXPECT_EQ(projectRelative(fixture("src/sim/clean.cc")),
              "src/sim/clean.cc");
    EXPECT_EQ(projectRelative(fixture("tools/scoped_ok.cc")),
              "tools/scoped_ok.cc");
    EXPECT_EQ(projectRelative("no/known/root.cc"), "no/known/root.cc");
}

// ---------------------------------------------------------------------
// Suppressions: justified allow() silences; the directive is linted too.
// ---------------------------------------------------------------------

TEST(LintSuppression, JustifiedAllowSilencesOwnLineAndTrailing)
{
    const LintResult r = lintFixture("src/sim/suppressed_ok.cc");
    EXPECT_EQ(r.findings.size(), 0u) << formatText(r);
    EXPECT_EQ(r.exitCode(), 0);
}

TEST(LintSuppression, MissingJustificationIsItselfAFinding)
{
    const LintResult r = lintFixture("src/sim/suppressed_nojust.cc");
    EXPECT_EQ(hits(r), (Hits{{kSuppressionJustification, 9}}));
}

TEST(LintSuppression, UnknownRuleNameSuppressesNothing)
{
    const LintResult r = lintFixture("src/sim/suppressed_unknown.cc");
    EXPECT_EQ(hits(r), (Hits{{"memory-raw-new", 9},
                             {kSuppressionUnknownRule, 5}}));
}

TEST(LintSuppression, StaleAllowIsReported)
{
    const LintResult r = lintFixture("src/sim/suppressed_stale.cc");
    EXPECT_EQ(hits(r), (Hits{{kSuppressionUnused, 4}}));
}

TEST(LintSuppression, AllowFileCoversEveryLine)
{
    // One whole-file grant, two printf call sites: both suppressed,
    // the directive is not stale.
    const LintResult r = lintFixture("src/sim/allow_file_ok.cc");
    EXPECT_EQ(r.findings.size(), 0u) << formatText(r);
    ASSERT_EQ(r.allows.size(), 1u);
    EXPECT_TRUE(r.allows[0].wholeFile);
    EXPECT_EQ(r.allows[0].rules,
              std::vector<std::string>{"hygiene-io"});
}

TEST(LintSuppression, StaleAllowFileIsReported)
{
    // The whole-file escape is still audited: a grant that suppresses
    // nothing anywhere in the file is a finding.
    const LintResult r = lintFixture("src/sim/allow_file_stale.cc");
    EXPECT_EQ(hits(r), (Hits{{kSuppressionUnused, 1}}));
}

TEST(LintSuppression, DocumentationMentioningTheSyntaxIsNotADirective)
{
    const SourceFile f = lexSource(
        "src/sim/x.cc",
        "// Suppress with `piso-lint: allow(rule)` on the line.\n"
        "int a;\n"
        "// piso-lint: allow(hygiene-io) -- leading marker parses\n");
    ASSERT_EQ(f.suppressions.size(), 1u);
    EXPECT_EQ(f.suppressions[0].line, 3);
    EXPECT_EQ(f.suppressions[0].rules,
              std::vector<std::string>{"hygiene-io"});
    EXPECT_EQ(f.suppressions[0].justification, "leading marker parses");
}

TEST(LintSuppression, WrappedJustificationContinuesAcrossCommentLines)
{
    const SourceFile f = lexSource(
        "src/sim/x.cc",
        "// piso-lint: allow(hygiene-io) -- the reason starts here\n"
        "// and wraps onto a second line.\n"
        "int a;\n"
        "// a later unrelated comment does not attach\n");
    ASSERT_EQ(f.suppressions.size(), 1u);
    EXPECT_EQ(f.suppressions[0].justification,
              "the reason starts here and wraps onto a second line.");
}

// ---------------------------------------------------------------------
// Lexer corners the rules depend on.
// ---------------------------------------------------------------------

TEST(LintLexer, MultiLineMacroBodiesStayPreproc)
{
    // Backslash continuations keep every token of a #define flagged as
    // preprocessor, so macro bodies can't confuse the scope tracker.
    const SourceFile f = lexSource("src/sim/x.hh",
                                   "#define LOOP(x)   \\\n"
                                   "    do {          \\\n"
                                   "    } while (0)\n"
                                   "int y;\n");
    for (const Token &t : f.tokens) {
        if (t.line < 4) {
            EXPECT_TRUE(t.preproc) << t.text << " line " << t.line;
        }
    }
    ASSERT_GE(f.tokens.size(), 3u);
    EXPECT_FALSE(f.tokens[f.tokens.size() - 3].preproc);  // 'int'
}

TEST(LintLexer, CommentsAndStringsLeaveNoTokens)
{
    const SourceFile f =
        lexSource("src/sim/x.cc",
                  "int a; // rand() here\n"
                  "/* new delete */ const char *s = \"printf(\";\n"
                  "const char *r = R\"(std::cout << rand())\";\n");
    for (const Token &t : f.tokens) {
        if (t.kind == TokKind::Ident) {
            EXPECT_NE(t.text, "rand");
            EXPECT_NE(t.text, "printf");
            EXPECT_NE(t.text, "cout");
        }
    }
}

// ---------------------------------------------------------------------
// Whole-tree run, output formats, and the exit-code contract.
// ---------------------------------------------------------------------

TEST(LintEngine, FixtureTreeTotals)
{
    LintResult r;
    std::string error;
    ASSERT_TRUE(lintFiles({std::string(PISO_LINT_FIXTURE_DIR)}, r, error))
        << error;
    EXPECT_EQ(r.filesScanned, 20);
    // 4 wallclock + 1 unordered + 2 globals + 3 tables + 1 guard +
    // 2 io + 2 taxonomy + 2 full-scan + 1 nojust + 2 unknown +
    // 2 stale + 3 time-unit + 2 layering = 27, each exactly once.
    EXPECT_EQ(r.findings.size(), 27u);
    EXPECT_EQ(r.exitCode(), 1);
    // With no cache every file is re-analyzed.
    EXPECT_EQ(r.filesReanalyzed, r.filesScanned);
}

TEST(LintEngine, MissingPathIsAUsageError)
{
    LintResult r;
    std::string error;
    EXPECT_FALSE(lintFiles({"does/not/exist"}, r, error));
    EXPECT_NE(error.find("does/not/exist"), std::string::npos);
}

TEST(LintEngine, TextAndSarifNameEveryFinding)
{
    const LintResult r = lintFixture("src/os/io.cc");
    const std::string text = formatText(r);
    EXPECT_NE(text.find("src/os/io.cc:10: [hygiene-io]"),
              std::string::npos);
    EXPECT_NE(text.find("2 finding(s)"), std::string::npos);

    const std::string sarif = formatSarif(r);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"hygiene-io\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 10"), std::string::npos);

    const LintResult clean = lintFixture("src/sim/clean.cc");
    EXPECT_NE(formatText(clean).find("piso-lint: clean"),
              std::string::npos);
}

TEST(LintEngine, SarifMatchesTheCheckedInShape)
{
    // The SARIF-lite document is pinned byte-for-byte against
    // tests/lint_fixtures/expected/io_sarif.json. Regenerate with
    //   build/piso_lint --json tests/lint_fixtures/src/os/io.cc
    // whenever the rule registry or the format changes — the diff is
    // the review artifact.
    const LintResult r = lintFixture("src/os/io.cc");
    std::ifstream in(fixture("expected/io_sarif.json"),
                     std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing expected/io_sarif.json";
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_EQ(formatSarif(r), os.str());
}

TEST(LintEngine, ListAllowsNamesEveryDirective)
{
    LintResult r;
    std::string error;
    ASSERT_TRUE(lintFiles({fixture("src/sim/allow_file_ok.cc"),
                           fixture("src/sim/suppressed_ok.cc")},
                          r, error))
        << error;
    const std::string text = formatAllows(r);
    EXPECT_NE(text.find("src/sim/suppressed_ok.cc:7: "
                        "allow(memory-raw-new) -- fixture: exercising a "
                        "justified own-line suppression"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("src/sim/allow_file_ok.cc:1: "
                        "allow-file(hygiene-io) -- fixture: a demo "
                        "reporter that"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("3 suppression(s) in 2 files"),
              std::string::npos)
        << text;
}

TEST(LintEngine, DiffFilterKeepsTreeWideFamilies)
{
    LintResult r = lintFixtures({"src/sim/upward.cc", "src/os/io.cc"});
    ASSERT_EQ(r.findings.size(), 3u) << formatText(r);

    // The diff touches only io.cc line 10: the second hygiene-io
    // finding is dropped, but the layering finding gates tree-wide and
    // survives a diff that never touched its line.
    DiffLines diff;
    diff.byPath["src/os/io.cc"].push_back({10, 10});
    filterToDiff(r, diff);
    EXPECT_EQ(hits(r), (Hits{{"hygiene-io", 10}, {kRuleLayering, 3}}));
}

// ---------------------------------------------------------------------
// Incremental cache: warm runs skip per-file work, report identically.
// ---------------------------------------------------------------------

TEST(LintCache, WarmRunReanalyzesNothingAndReportsIdentically)
{
    const std::string cachePath =
        testing::TempDir() + "/piso_lint_warm.cache";
    std::filesystem::remove(cachePath);

    LintResult cold;
    LintResult warm;
    std::string error;
    ASSERT_TRUE(lintFilesCached({std::string(PISO_LINT_FIXTURE_DIR)},
                                cachePath, cold, error))
        << error;
    EXPECT_EQ(cold.filesReanalyzed, cold.filesScanned);
    ASSERT_TRUE(lintFilesCached({std::string(PISO_LINT_FIXTURE_DIR)},
                                cachePath, warm, error))
        << error;
    EXPECT_EQ(warm.filesReanalyzed, 0);
    EXPECT_EQ(warm.filesScanned, cold.filesScanned);
    // Identical findings and suppression inventory, not just counts.
    EXPECT_EQ(formatText(warm), formatText(cold));
    EXPECT_EQ(formatAllows(warm), formatAllows(cold));
    std::filesystem::remove(cachePath);
}

TEST(LintCache, ChangedFileReanalyzesItsReverseIncludeClosure)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::path(testing::TempDir()) / "piso_lint_closure" / "src" /
        "sim";
    fs::create_directories(root);
    const auto write = [&](const char *name, const std::string &text) {
        std::ofstream out(root / name, std::ios::binary);
        out << text;
    };
    write("dep.hh", "#ifndef PISO_SIM_DEP_HH\n"
                    "#define PISO_SIM_DEP_HH\n"
                    "namespace piso {\n"
                    "inline int depVal() { return 4; }\n"
                    "} // namespace piso\n"
                    "#endif // PISO_SIM_DEP_HH\n");
    write("user.cc", "#include \"src/sim/dep.hh\"\n"
                     "namespace piso {\n"
                     "int useDep() { return depVal(); }\n"
                     "} // namespace piso\n");
    write("other.cc", "namespace piso {\n"
                      "int standalone() { return 5; }\n"
                      "} // namespace piso\n");

    const std::string cachePath =
        testing::TempDir() + "/piso_lint_closure.cache";
    fs::remove(cachePath);
    const std::string tree = (root.parent_path().parent_path()).string();

    LintResult cold;
    std::string error;
    ASSERT_TRUE(lintFilesCached({tree}, cachePath, cold, error))
        << error;
    EXPECT_EQ(cold.filesScanned, 3);
    EXPECT_EQ(cold.filesReanalyzed, 3);
    EXPECT_EQ(cold.findings.size(), 0u) << formatText(cold);

    // Touch the header: the warm run must re-analyze it AND user.cc
    // (its reverse include closure), but not other.cc.
    write("dep.hh", "#ifndef PISO_SIM_DEP_HH\n"
                    "#define PISO_SIM_DEP_HH\n"
                    "// edited\n"
                    "namespace piso {\n"
                    "inline int depVal() { return 4; }\n"
                    "} // namespace piso\n"
                    "#endif // PISO_SIM_DEP_HH\n");
    LintResult warm;
    ASSERT_TRUE(lintFilesCached({tree}, cachePath, warm, error))
        << error;
    EXPECT_EQ(warm.filesScanned, 3);
    EXPECT_EQ(warm.filesReanalyzed, 2);
    EXPECT_EQ(warm.findings.size(), 0u) << formatText(warm);

    fs::remove(cachePath);
    fs::remove_all(fs::path(testing::TempDir()) / "piso_lint_closure");
}

TEST(LintEngine, RegistryIsCompleteAndKnown)
{
    const std::vector<std::string> expected = {
        "determinism-wallclock", "determinism-unordered",
        "thread-global-state",   "table-map-key",
        "memory-raw-new",        "hygiene-include-guard",
        "hygiene-io",            "error-taxonomy",
        "hot-path-full-scan",    "time-unit-literal",
    };
    const auto &rules = ruleRegistry();
    ASSERT_EQ(rules.size(), expected.size());
    for (std::size_t i = 0; i < rules.size(); ++i)
        EXPECT_EQ(rules[i].name, expected[i]);
    for (const std::string &name : expected)
        EXPECT_TRUE(knownRule(name));

    const std::vector<std::string> project = {kRuleLayering};
    const auto &prules = projectRuleRegistry();
    ASSERT_EQ(prules.size(), project.size());
    for (std::size_t i = 0; i < prules.size(); ++i)
        EXPECT_EQ(prules[i].name, project[i]);
    for (const std::string &name : project)
        EXPECT_TRUE(knownRule(name));

    EXPECT_FALSE(knownRule("no-such-rule"));
}
