#include "src/lint/index.hh"

namespace piso::lint {

namespace {

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

FileSummary
summarizeFile(const SourceFile &file)
{
    FileSummary out;
    out.path = file.path;
    out.suppressions = file.suppressions;

    // Resolve each directive's covered line now, while we still have
    // the token stream: a suppression on its own line covers the next
    // line that carries code; one trailing a code line covers that
    // line; allow-file covers the whole file (target 0).
    out.suppressionTargets.reserve(out.suppressions.size());
    for (const Suppression &sup : out.suppressions) {
        int target = sup.line;
        if (sup.wholeFile) {
            target = 0;
        } else if (sup.ownLine) {
            int next = 0;
            for (const Token &tok : file.tokens) {
                if (tok.line > sup.line && (next == 0 || tok.line < next))
                    next = tok.line;
            }
            target = next == 0 ? sup.line : next;
        }
        out.suppressionTargets.push_back(target);
    }

    // Project includes come from the raw (preprocessor) token stream.
    for (std::size_t i = 0; i + 2 < file.tokens.size(); ++i) {
        const Token &hash = file.tokens[i];
        if (hash.text != "#" || !hash.preproc)
            continue;
        if (file.tokens[i + 1].text != "include")
            continue;
        const Token &target = file.tokens[i + 2];
        if (target.kind != TokKind::String)
            continue;
        if (startsWith(target.text, "src/") ||
            startsWith(target.text, "tools/") ||
            startsWith(target.text, "bench/") ||
            startsWith(target.text, "examples/"))
            out.includes.push_back({hash.line, target.text});
    }

    return out;
}

int
layerRank(const std::string &path)
{
    static const struct
    {
        const char *prefix;
        int rank;
    } kLayers[] = {
        {"src/util/", 0},    {"src/lint/", 0},   {"src/sim/", 1},
        {"src/core/", 2},    {"src/machine/", 3}, {"src/os/", 4},
        {"src/workload/", 5}, {"src/metrics/", 6}, {"src/exp/", 8},
        {"src/config/", 8},  {"tools/", 9},      {"bench/", 9},
        {"examples/", 9},
    };
    for (const auto &l : kLayers) {
        if (startsWith(path, l.prefix))
            return l.rank;
    }
    // Files directly under src/ (simulation.hh/.cc, piso.hh) are the
    // facade layer between the library and the exp/config layer.
    if (startsWith(path, "src/") &&
        path.find('/', 4) == std::string::npos)
        return 7;
    return -1;
}

const char *
layerName(int rank)
{
    switch (rank) {
    case 0: return "util";
    case 1: return "sim";
    case 2: return "core";
    case 3: return "machine";
    case 4: return "os";
    case 5: return "workload";
    case 6: return "metrics";
    case 7: return "simulation";
    case 8: return "exp/config";
    case 9: return "tools";
    default: return "unranked";
    }
}

} // namespace piso::lint
