#include "src/lint/engine.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/lint/index.hh"

namespace piso::lint {

namespace {

/** Everything the engine knows about one analyzed file: its summary
 *  (for the layering rule and the suppressions) and the raw per-file
 *  rule findings, *before* suppressions. */
struct Analyzed
{
    FileSummary summary;
    std::vector<Finding> raw;
};

Analyzed
analyzeOne(const std::string &relPath, const std::string &text)
{
    const SourceFile file = lexSource(relPath, text);
    Analyzed a;
    a.summary = summarizeFile(file);
    for (const Rule &rule : ruleRegistry()) {
        if (rule.applies(file.path))
            rule.check(file, a.raw);
    }
    return a;
}

/**
 * Apply @p summary's suppressions to the merged (per-file + project)
 * findings for that file, then audit the suppressions themselves:
 * every directive must name known rules, carry a justification, and
 * actually suppress something. Surviving findings and the audit go to
 * @p result.
 */
void
applyAndAudit(const FileSummary &summary, std::vector<Finding> &merged,
              LintResult &result)
{
    const auto &sups = summary.suppressions;
    std::vector<bool> used(sups.size(), false);

    for (Finding &fnd : merged) {
        bool suppressed = false;
        for (std::size_t s = 0; s < sups.size(); ++s) {
            const int target = s < summary.suppressionTargets.size()
                                   ? summary.suppressionTargets[s]
                                   : sups[s].line;
            if (target != 0 && target != fnd.line)
                continue;
            if (std::find(sups[s].rules.begin(), sups[s].rules.end(),
                          fnd.rule) == sups[s].rules.end())
                continue;
            suppressed = true;
            used[s] = true;
        }
        if (!suppressed)
            result.findings.push_back(std::move(fnd));
    }

    for (std::size_t s = 0; s < sups.size(); ++s) {
        const Suppression &sup = sups[s];
        bool allKnown = true;
        for (const std::string &name : sup.rules) {
            if (!knownRule(name)) {
                allKnown = false;
                result.findings.push_back(
                    {kSuppressionUnknownRule, summary.path, sup.line,
                     "allow() names unknown rule '" + name +
                         "' (see piso_lint --list-rules)"});
            }
        }
        if (sup.justification.empty()) {
            result.findings.push_back(
                {kSuppressionJustification, summary.path, sup.line,
                 "suppression lacks a justification (write "
                 "// piso-lint: allow(<rule>) -- <why this is safe>)"});
        }
        if (!used[s] && allKnown) {
            result.findings.push_back(
                {kSuppressionUnused, summary.path, sup.line,
                 "suppression matched no finding (stale "
                 "allow(); delete it)"});
        }
        result.allows.push_back({summary.path, sup.line, sup.rules,
                                 sup.justification, sup.wholeFile});
    }
}

/**
 * The project pass: build the index over every summary, run the
 * layering rule, merge its findings with the per-file raw findings,
 * apply suppressions, sort.
 */
LintResult
finish(std::vector<Analyzed> &files)
{
    std::sort(files.begin(), files.end(),
              [](const Analyzed &a, const Analyzed &b) {
                  return a.summary.path < b.summary.path;
              });

    ProjectIndex index;
    index.files.reserve(files.size());
    for (const Analyzed &a : files)
        index.files.push_back(&a.summary);

    std::vector<Finding> layering;
    layeringCheck(index, layering);

    LintResult result;
    result.filesScanned = static_cast<int>(files.size());
    for (Analyzed &a : files) {
        std::vector<Finding> merged = std::move(a.raw);
        for (const Finding &l : layering) {
            if (l.path == a.summary.path)
                merged.push_back(l);
        }
        applyAndAudit(a.summary, merged, result);
    }

    const auto order = [](const Finding &a, const Finding &b) {
        if (a.path != b.path)
            return a.path < b.path;
        if (a.line != b.line)
            return a.line < b.line;
        return a.rule < b.rule;
    };
    std::sort(result.findings.begin(), result.findings.end(), order);
    std::sort(result.allows.begin(), result.allows.end(),
              [](const AllowEntry &a, const AllowEntry &b) {
                  return a.path != b.path ? a.path < b.path
                                          : a.line < b.line;
              });
    return result;
}

bool
readContents(const std::string &file, std::string &text,
             std::string &error)
{
    std::ifstream in(file, std::ios::binary);
    if (!in) {
        error = "cannot read: " + file;
        return false;
    }
    std::ostringstream os;
    os << in.rdbuf();
    text = os.str();
    return true;
}

} // namespace

LintResult
lintSources(
    const std::vector<std::pair<std::string, std::string>> &sources)
{
    std::vector<Analyzed> files;
    files.reserve(sources.size());
    for (const auto &[path, text] : sources)
        files.push_back(analyzeOne(projectRelative(path), text));
    return finish(files);
}

bool
collectFiles(const std::vector<std::string> &paths,
             std::vector<std::string> &files, std::string &error)
{
    namespace fs = std::filesystem;
    for (const std::string &p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (auto it = fs::recursive_directory_iterator(p, ec);
                 !ec && it != fs::recursive_directory_iterator(); ++it) {
                if (!it->is_regular_file())
                    continue;
                const std::string ext = it->path().extension().string();
                if (ext == ".cc" || ext == ".hh")
                    files.push_back(it->path().generic_string());
            }
        } else if (fs::is_regular_file(p, ec)) {
            files.push_back(p);
        } else {
            error = "no such file or directory: " + p;
            return false;
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return true;
}

bool
lintFiles(const std::vector<std::string> &paths, LintResult &result,
          std::string &error)
{
    std::vector<std::string> diskFiles;
    if (!collectFiles(paths, diskFiles, error))
        return false;
    std::vector<Analyzed> files;
    files.reserve(diskFiles.size());
    for (const std::string &f : diskFiles) {
        std::string text;
        if (!readContents(f, text, error))
            return false;
        files.push_back(analyzeOne(projectRelative(f), text));
    }
    result = finish(files);
    return true;
}

std::string
formatText(const LintResult &result)
{
    std::ostringstream os;
    for (const Finding &f : result.findings) {
        os << f.path << ":" << f.line << ": [" << f.rule << "] "
           << f.message << "\n";
    }
    if (result.findings.empty()) {
        os << "piso-lint: clean (" << result.filesScanned
           << " files scanned)\n";
    } else {
        os << "piso-lint: " << result.findings.size() << " finding(s) ("
           << result.filesScanned << " files scanned)\n";
    }
    return os.str();
}

std::string
formatAllows(const LintResult &result)
{
    std::ostringstream os;
    for (const AllowEntry &a : result.allows) {
        os << a.path << ":" << a.line << ": "
           << (a.wholeFile ? "allow-file(" : "allow(");
        for (std::size_t i = 0; i < a.rules.size(); ++i)
            os << (i ? ", " : "") << a.rules[i];
        os << ") -- "
           << (a.justification.empty() ? "(no justification)"
                                       : a.justification)
           << "\n";
    }
    os << "piso-lint: " << result.allows.size()
       << " suppression(s) in " << result.filesScanned << " files\n";
    return os.str();
}

} // namespace piso::lint
