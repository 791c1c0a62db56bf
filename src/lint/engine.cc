#include "src/lint/engine.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "src/lint/index.hh"

namespace piso::lint {

namespace {

/** Everything the engine knows about one analyzed file: its summary
 *  (for the project rules and the cache) and the raw per-file-rule
 *  findings, *before* suppressions. */
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
    a.summary.hash = lintFnv1a(text);
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
 * cross-file rules, merge their findings with the per-file raw
 * findings, apply suppressions, sort. Runs in full on every lint run —
 * cached or cold — which is what makes warm results identical to cold
 * ones: only the per-file lex+check work is ever skipped.
 */
LintResult
finish(std::vector<Analyzed> &files, int reanalyzed)
{
    std::sort(files.begin(), files.end(),
              [](const Analyzed &a, const Analyzed &b) {
                  return a.summary.path < b.summary.path;
              });

    ProjectIndex index;
    index.files.reserve(files.size());
    for (const Analyzed &a : files)
        index.files.push_back(&a.summary);

    std::vector<Finding> project;
    for (const ProjectRule &rule : projectRuleRegistry())
        rule.check(index, project);

    LintResult result;
    result.filesScanned = static_cast<int>(files.size());
    result.filesReanalyzed = reanalyzed;
    for (Analyzed &a : files) {
        std::vector<Finding> merged = std::move(a.raw);
        for (Finding &p : project) {
            if (p.path == a.summary.path)
                merged.push_back(p);
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

// ---------------------------------------------------------------------
// Incremental cache
//
// A line-oriented, tab-separated text file. The header carries a
// fingerprint over the rule registries and schema version, so a cache
// written by a different piso_lint is discarded wholesale; any parse
// mismatch likewise discards the cache (it is only ever an
// optimisation). Free-form trailing fields (messages, justifications)
// have tabs/newlines flattened to spaces on write.
// ---------------------------------------------------------------------

constexpr const char *kCacheMagic = "piso-lint-cache";
constexpr int kCacheSchema = 2;

std::uint64_t
registryFingerprint()
{
    std::string all = "schema" + std::to_string(kCacheSchema);
    for (const Rule &r : ruleRegistry()) {
        all += '|';
        all += r.name;
    }
    for (const ProjectRule &r : projectRuleRegistry()) {
        all += '|';
        all += r.name;
    }
    return lintFnv1a(all);
}

std::string
flatten(std::string s)
{
    for (char &c : s) {
        if (c == '\t' || c == '\n' || c == '\r')
            c = ' ';
    }
    return s;
}

void
splitTabs(const std::string &line, std::size_t maxFields,
          std::vector<std::string> &out)
{
    out.clear();
    std::size_t start = 0;
    while (out.size() + 1 < maxFields) {
        const std::size_t tab = line.find('\t', start);
        if (tab == std::string::npos)
            break;
        out.push_back(line.substr(start, tab - start));
        start = tab + 1;
    }
    out.push_back(line.substr(start));
}

void
writeCache(const std::string &path,
           const std::vector<Analyzed> &files)
{
    std::ostringstream os;
    os << kCacheMagic << '\t' << kCacheSchema << '\t' << std::hex
       << registryFingerprint() << std::dec << '\n';
    for (const Analyzed &a : files) {
        const FileSummary &s = a.summary;
        os << "F\t" << std::hex << s.hash << std::dec << '\t' << s.path
           << '\n';
        for (const IncludeEdge &e : s.includes)
            os << "i\t" << e.line << '\t' << e.target << '\n';
        for (std::size_t i = 0; i < s.suppressions.size(); ++i) {
            const Suppression &sup = s.suppressions[i];
            const int target = i < s.suppressionTargets.size()
                                   ? s.suppressionTargets[i]
                                   : sup.line;
            os << "s\t" << sup.line << '\t' << (sup.ownLine ? 1 : 0)
               << '\t' << (sup.wholeFile ? 1 : 0) << '\t' << target
               << '\t';
            for (std::size_t r = 0; r < sup.rules.size(); ++r)
                os << (r ? "," : "") << sup.rules[r];
            os << '\t' << flatten(sup.justification) << '\n';
        }
        for (const Finding &f : a.raw) {
            os << "r\t" << f.line << '\t' << f.rule << '\t'
               << flatten(f.message) << '\n';
        }
        os << ".\n";
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << os.str();
}

/** Parse @p path into per-file entries. Returns false (and an empty
 *  map) when the cache is missing, stale, or malformed. */
bool
readCache(const std::string &path, std::map<std::string, Analyzed> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::string line;
    std::vector<std::string> f;
    if (!std::getline(in, line))
        return false;
    splitTabs(line, 3, f);
    std::ostringstream want;
    want << std::hex << registryFingerprint();
    if (f.size() != 3 || f[0] != kCacheMagic ||
        f[1] != std::to_string(kCacheSchema) || f[2] != want.str())
        return false;

    Analyzed cur;
    bool open = false;
    const auto toInt = [](const std::string &s, int &v) {
        try {
            v = std::stoi(s);
        } catch (...) {
            return false;
        }
        return true;
    };
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const char kind = line[0];
        if (kind == 'F') {
            if (open)
                return false;  // previous record not closed
            splitTabs(line, 3, f);
            if (f.size() != 3)
                return false;
            cur = Analyzed{};
            cur.summary.path = f[2];
            try {
                cur.summary.hash = std::stoull(f[1], nullptr, 16);
            } catch (...) {
                return false;
            }
            open = true;
            continue;
        }
        if (kind == '.') {
            if (!open)
                return false;
            out[cur.summary.path] = std::move(cur);
            cur = Analyzed{};
            open = false;
            continue;
        }
        if (!open)
            return false;
        int n = 0;
        switch (kind) {
        case 'i':
            splitTabs(line, 3, f);
            if (f.size() != 3 || !toInt(f[1], n))
                return false;
            cur.summary.includes.push_back({n, f[2]});
            break;
        case 's': {
            splitTabs(line, 7, f);
            int target = 0;
            if (f.size() != 7 || !toInt(f[1], n) || !toInt(f[4], target))
                return false;
            Suppression sup;
            sup.line = n;
            sup.ownLine = f[2] == "1";
            sup.wholeFile = f[3] == "1";
            std::size_t pos = 0;
            while (pos <= f[5].size() && !f[5].empty()) {
                const std::size_t comma = f[5].find(',', pos);
                sup.rules.push_back(
                    comma == std::string::npos
                        ? f[5].substr(pos)
                        : f[5].substr(pos, comma - pos));
                if (comma == std::string::npos)
                    break;
                pos = comma + 1;
            }
            sup.justification = f[6];
            cur.summary.suppressions.push_back(std::move(sup));
            cur.summary.suppressionTargets.push_back(target);
            break;
        }
        case 'r':
            splitTabs(line, 4, f);
            if (f.size() != 4 || !toInt(f[1], n))
                return false;
            cur.raw.push_back({f[2], cur.summary.path, n, f[3]});
            break;
        default:
            return false;
        }
    }
    return !open;
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

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
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
    return finish(files, static_cast<int>(files.size()));
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
    return lintFilesCached(paths, std::string(), result, error);
}

bool
lintFilesCached(const std::vector<std::string> &paths,
                const std::string &cachePath, LintResult &result,
                std::string &error)
{
    std::vector<std::string> diskFiles;
    if (!collectFiles(paths, diskFiles, error))
        return false;

    std::map<std::string, Analyzed> cache;
    if (!cachePath.empty())
        readCache(cachePath, cache);

    std::vector<Analyzed> files;
    files.reserve(diskFiles.size());
    std::map<std::string, std::string> contentsByRel;
    std::set<std::string> changed;
    std::set<std::string> analyzed;
    for (const std::string &f : diskFiles) {
        std::string text;
        if (!readContents(f, text, error))
            return false;
        const std::string rel = projectRelative(f);
        const std::uint64_t hash = lintFnv1a(text);
        const auto it = cache.find(rel);
        if (it != cache.end() && it->second.summary.hash == hash) {
            files.push_back(std::move(it->second));
            contentsByRel[rel] = std::move(text);
        } else {
            files.push_back(analyzeOne(rel, text));
            changed.insert(rel);
            analyzed.insert(rel);
        }
    }

    // Reverse include-graph closure: a file whose (transitive) include
    // changed is re-analyzed too — its per-file findings cannot change
    // (its own bytes did not), but the conservative closure keeps the
    // incremental mode honest about what "re-analyzed" means and robust
    // against future rules that peek across the edge.
    if (!changed.empty() && changed.size() < files.size()) {
        std::map<std::string, std::vector<std::string>> includers;
        for (const Analyzed &a : files) {
            for (const IncludeEdge &e : a.summary.includes)
                includers[e.target].push_back(a.summary.path);
        }
        std::vector<std::string> queue(changed.begin(), changed.end());
        std::set<std::string> reached = changed;
        while (!queue.empty()) {
            const std::string cur = std::move(queue.back());
            queue.pop_back();
            const auto it = includers.find(cur);
            if (it == includers.end())
                continue;
            for (const std::string &up : it->second) {
                if (reached.insert(up).second)
                    queue.push_back(up);
            }
        }
        for (Analyzed &a : files) {
            const std::string &rel = a.summary.path;
            if (!reached.count(rel) || analyzed.count(rel))
                continue;
            a = analyzeOne(rel, contentsByRel[rel]);
            analyzed.insert(rel);
        }
    }

    // Persist before finish(): finish() consumes the raw per-file
    // findings (it moves them into the merged result), and the cache
    // must keep them for the next warm run.
    if (!cachePath.empty())
        writeCache(cachePath, files);
    result = finish(files, static_cast<int>(analyzed.size()));
    return true;
}

void
filterToDiff(LintResult &result, const DiffLines &diff)
{
    const auto keep = [&](const Finding &f) {
        if (f.rule == kRuleLayering)
            return true;  // whole-tree properties gate regardless
        const auto it = diff.byPath.find(f.path);
        if (it == diff.byPath.end())
            return false;
        for (const auto &[first, last] : it->second) {
            if (f.line >= first && f.line <= last)
                return true;
        }
        return false;
    };
    result.findings.erase(
        std::remove_if(result.findings.begin(), result.findings.end(),
                       [&](const Finding &f) { return !keep(f); }),
        result.findings.end());
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
formatSarif(const LintResult &result)
{
    std::ostringstream os;
    os << "{\n  \"version\": \"2.1.0\",\n  \"runs\": [{\n"
       << "    \"tool\": {\"driver\": {\"name\": \"piso-lint\",\n"
       << "      \"informationUri\": \"docs/static-analysis.md\",\n"
       << "      \"rules\": [\n";
    const auto &rules = ruleRegistry();
    const auto &project = projectRuleRegistry();
    const std::size_t total = rules.size() + project.size();
    for (std::size_t i = 0; i < total; ++i) {
        const char *name = i < rules.size()
                               ? rules[i].name
                               : project[i - rules.size()].name;
        const char *summary = i < rules.size()
                                  ? rules[i].summary
                                  : project[i - rules.size()].summary;
        os << "        {\"id\": \"" << name
           << "\", \"shortDescription\": {\"text\": \""
           << jsonEscape(summary) << "\"}}"
           << (i + 1 < total ? "," : "") << "\n";
    }
    os << "      ]}},\n    \"results\": [\n";
    for (std::size_t i = 0; i < result.findings.size(); ++i) {
        const Finding &f = result.findings[i];
        os << "      {\"ruleId\": \"" << f.rule
           << "\", \"level\": \"error\", \"message\": {\"text\": \""
           << jsonEscape(f.message)
           << "\"}, \"locations\": [{\"physicalLocation\": "
           << "{\"artifactLocation\": {\"uri\": \"" << jsonEscape(f.path)
           << "\"}, \"region\": {\"startLine\": " << f.line
           << "}}}]}" << (i + 1 < result.findings.size() ? "," : "")
           << "\n";
    }
    os << "    ]\n  }]\n}\n";
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
