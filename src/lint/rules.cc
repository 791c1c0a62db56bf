#include "src/lint/rules.hh"

#include <algorithm>
#include <cctype>
#include <functional>
#include <map>

namespace piso::lint {

namespace {

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
endsWith(const std::string &s, const std::string &suffix)
{
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/** Token text at @p i, or "" when out of range. */
const std::string &
at(const SourceFile &f, std::size_t i)
{
    static const std::string kEmpty;
    return i < f.tokens.size() ? f.tokens[i].text : kEmpty;
}

void
report(const SourceFile &f, std::vector<Finding> &out, const char *rule,
       int line, std::string message)
{
    out.push_back({rule, f.path, line, std::move(message)});
}

// ---------------------------------------------------------------------
// determinism-wallclock
// ---------------------------------------------------------------------

bool
wallclockApplies(const std::string &p)
{
    // The whole library is deterministic except the experiment layer,
    // where host-side timing (thread pools, sweep wall-clock) lives.
    // Benchmarks and examples are covered too: measuring wall time
    // there is legitimate but must say so with an allow-file().
    return (startsWith(p, "src/") && !startsWith(p, "src/exp/")) ||
           startsWith(p, "bench/") || startsWith(p, "examples/");
}

void
wallclockCheck(const SourceFile &f, std::vector<Finding> &out)
{
    static const char *kBannedIdents[] = {
        "system_clock",   "steady_clock", "high_resolution_clock",
        "random_device",  "gettimeofday", "clock_gettime",
        "localtime",      "gmtime",       "mktime",
        "timespec_get",
    };
    static const char *kBannedCalls[] = {"time", "rand", "srand",
                                         "clock"};
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        const Token &t = f.tokens[i];
        if (t.kind != TokKind::Ident)
            continue;
        const bool banned =
            std::any_of(std::begin(kBannedIdents), std::end(kBannedIdents),
                        [&](const char *b) { return t.text == b; });
        if (banned) {
            report(f, out, "determinism-wallclock", t.line,
                   "wall-clock source '" + t.text +
                       "' in deterministic code (use the EventQueue "
                       "clock or piso::Rng; host timing belongs in "
                       "src/exp or tools/)");
            continue;
        }
        const bool call =
            std::any_of(std::begin(kBannedCalls), std::end(kBannedCalls),
                        [&](const char *b) { return t.text == b; });
        if (!call || at(f, i + 1) != "(")
            continue;
        const std::string &prev = at(f, i - 1);
        if (prev == "." || prev == "->")
            continue;  // member function of some simulator type
        if (prev == "::" && at(f, i - 2) != "std")
            continue;  // Foo::time(...) is not the libc call
        report(f, out, "determinism-wallclock", t.line,
               "call to '" + t.text +
                   "()' in deterministic code (use the EventQueue "
                   "clock or piso::Rng)");
    }
}

// ---------------------------------------------------------------------
// determinism-unordered
// ---------------------------------------------------------------------

bool
unorderedApplies(const std::string &p)
{
    // Everything that renders reports, JSON, or sweep output: iteration
    // order there is bytes on the wire. Benchmarks and examples print
    // results too, so they are held to the same bar.
    return startsWith(p, "src/metrics/") || startsWith(p, "src/exp/") ||
           p == "tools/piso_sweep.cc" || startsWith(p, "bench/") ||
           startsWith(p, "examples/");
}

void
unorderedCheck(const SourceFile &f, std::vector<Finding> &out)
{
    static const char *kBanned[] = {"unordered_map", "unordered_set",
                                    "unordered_multimap",
                                    "unordered_multiset"};
    for (const Token &t : f.tokens) {
        if (t.kind != TokKind::Ident)
            continue;
        if (std::any_of(std::begin(kBanned), std::end(kBanned),
                        [&](const char *b) { return t.text == b; })) {
            report(f, out, "determinism-unordered", t.line,
                   "'" + t.text +
                       "' in an output/emission path (iteration order "
                       "is unspecified; use std::map, a sorted vector, "
                       "or a DenseTable)");
        }
    }
}

// ---------------------------------------------------------------------
// thread-global-state
// ---------------------------------------------------------------------

bool
globalStateApplies(const std::string &p)
{
    return startsWith(p, "src/sim/") || startsWith(p, "src/os/") ||
           startsWith(p, "src/core/") || startsWith(p, "src/machine/") ||
           p == "src/simulation.cc" || p == "src/simulation.hh" ||
           p == "src/piso.hh";
}

bool
isConstQual(const std::string &t)
{
    return t == "const" || t == "constexpr" || t == "constinit" ||
           t == "thread_local";
}

void
globalStateCheck(const SourceFile &f, std::vector<Finding> &out)
{
    enum class Scope { Namespace, Class, Block };

    // Non-preprocessor tokens only: #include / #define lines would
    // otherwise confuse statement boundaries.
    std::vector<std::size_t> code;
    code.reserve(f.tokens.size());
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        if (!f.tokens[i].preproc)
            code.push_back(i);
    }

    // Classify the statement starting at code index k. Returns a
    // Finding when it declares a mutable variable.
    auto classify = [&](std::size_t k, bool staticLocal) {
        static const char *kSkip[] = {
            "using",  "typedef", "template", "friend", "static_assert",
            "namespace", "class", "struct",  "enum",   "union",
            "concept", "extern", "asm",      "public", "private",
            "protected"};
        const Token &t0 = f.tokens[code[k]];
        if (t0.kind != TokKind::Ident)
            return;
        if (std::any_of(std::begin(kSkip), std::end(kSkip),
                        [&](const char *s) { return t0.text == s; }))
            return;

        bool constish = false;
        int angle = 0;
        std::string name;
        int nameLine = t0.line;
        for (std::size_t j = k; j < code.size(); ++j) {
            const Token &t = f.tokens[code[j]];
            if (t.kind == TokKind::Ident) {
                if (isConstQual(t.text)) {
                    constish = true;
                } else if (t.text == "operator") {
                    return;  // operator overload: a function
                } else if (angle == 0) {
                    name = t.text;
                    nameLine = t.line;
                }
                continue;
            }
            if (t.text == "<") {
                ++angle;
                continue;
            }
            if (t.text == ">") {
                if (angle > 0)
                    --angle;
                continue;
            }
            if (angle > 0)
                continue;
            if (t.text == "(")
                return;  // function declaration or definition
            if (t.text == "=" || t.text == ";" || t.text == "{") {
                if (constish || name.empty())
                    return;
                report(f, out, "thread-global-state", nameLine,
                       staticLocal
                           ? "static local '" + name +
                                 "' holds mutable state (sweep workers "
                                 "share it; use a member or a "
                                 "per-thread context)"
                           : "mutable namespace-scope state '" + name +
                                 "' in the sim core (sweep workers "
                                 "share it; use Simulation members or "
                                 "a thread_local context)");
                return;
            }
            if (t.text == "}")
                return;  // lost track; bail out quietly
        }
    };

    std::vector<Scope> stack;
    int pending = 0;  // 0 none, 1 namespace, 2 class
    int paren = 0;
    bool stmtStart = true;
    for (std::size_t k = 0; k < code.size(); ++k) {
        const Token &t = f.tokens[code[k]];
        if (t.kind == TokKind::Punct) {
            if (t.text == "(") {
                ++paren;
            } else if (t.text == ")") {
                if (paren > 0)
                    --paren;
            } else if (t.text == "{") {
                stack.push_back(paren == 0 && pending == 1
                                    ? Scope::Namespace
                                    : (paren == 0 && pending == 2
                                           ? Scope::Class
                                           : Scope::Block));
                pending = 0;
                stmtStart = true;
                continue;
            } else if (t.text == "}") {
                if (!stack.empty())
                    stack.pop_back();
                stmtStart = true;
                continue;
            } else if (t.text == ";" && paren == 0) {
                pending = 0;
                stmtStart = true;
                continue;
            }
        } else if (t.kind == TokKind::Ident && paren == 0) {
            if (t.text == "namespace")
                pending = 1;
            else if (t.text == "class" || t.text == "struct" ||
                     t.text == "union" || t.text == "enum")
                pending = 2;
        }

        if (stmtStart && paren == 0) {
            stmtStart = false;
            const bool nsScope =
                std::all_of(stack.begin(), stack.end(), [](Scope s) {
                    return s == Scope::Namespace;
                });
            if (nsScope)
                classify(k, false);
            else if (stack.back() == Scope::Block &&
                     t.kind == TokKind::Ident && t.text == "static")
                classify(k, true);
        }
    }
}

// ---------------------------------------------------------------------
// table-map-key
// ---------------------------------------------------------------------

bool
tableApplies(const std::string &p)
{
    return startsWith(p, "src/") || startsWith(p, "tools/");
}

void
tableCheck(const SourceFile &f, std::vector<Finding> &out)
{
    for (std::size_t i = 0; i + 2 < f.tokens.size(); ++i) {
        const Token &t = f.tokens[i];
        if (t.kind != TokKind::Ident ||
            (t.text != "map" && t.text != "multimap"))
            continue;
        if (at(f, i + 1) != "<")
            continue;
        const std::string &key = at(f, i + 2);
        if (key != "SpuId" && key != "Pid")
            continue;
        report(f, out, "table-map-key", t.line,
               "std::" + t.text + "<" + key +
                   ", ...> declaration (ids are small and dense; use "
                   "SpuTable/DenseTable from src/core/spu_table.hh)");
    }
}

// ---------------------------------------------------------------------
// memory-raw-new
// ---------------------------------------------------------------------

bool
rawNewApplies(const std::string &p)
{
    return startsWith(p, "src/") || startsWith(p, "tools/");
}

void
rawNewCheck(const SourceFile &f, std::vector<Finding> &out)
{
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        const Token &t = f.tokens[i];
        if (t.kind != TokKind::Ident || t.preproc)
            continue;  // '#include <new>' is not an allocation
        const std::string &prev = at(f, i - 1);
        if (t.text == "new") {
            if (prev == "operator")
                continue;
            // Placement new ('new (buf) T') constructs into storage
            // someone else owns — the slab pattern itself — so only
            // allocating new is flagged.
            if (at(f, i + 1) == "(")
                continue;
            report(f, out, "memory-raw-new", t.line,
                   "raw 'new' outside the slab allocators (use "
                   "containers, std::unique_ptr, or the event/buffer "
                   "slabs)");
        } else if (t.text == "delete") {
            if (prev == "operator" || prev == "=")
                continue;  // operator delete / deleted function
            report(f, out, "memory-raw-new", t.line,
                   "raw 'delete' outside the slab allocators (owning "
                   "types should hold containers or std::unique_ptr)");
        }
    }
}

// ---------------------------------------------------------------------
// hygiene-include-guard
// ---------------------------------------------------------------------

bool
guardApplies(const std::string &p)
{
    return endsWith(p, ".hh") &&
           (startsWith(p, "src/") || startsWith(p, "tools/") ||
            startsWith(p, "bench/") || startsWith(p, "examples/"));
}

/** Canonical guard: src/sim/event_queue.hh -> PISO_SIM_EVENT_QUEUE_HH. */
std::string
expectedGuard(const std::string &path)
{
    std::string p = path;
    if (startsWith(p, "src/"))
        p = p.substr(4);
    std::string guard = "PISO_";
    for (char c : p) {
        if (c == '/' || c == '.')
            guard += '_';
        else
            guard += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
    }
    return guard;
}

void
guardCheck(const SourceFile &f, std::vector<Finding> &out)
{
    const std::string want = expectedGuard(f.path);
    const auto &ts = f.tokens;
    if (ts.size() >= 2 && ts[0].text == "#" && ts[1].text == "pragma") {
        report(f, out, "hygiene-include-guard", ts[0].line,
               "#pragma once (this tree uses #ifndef " + want +
                   " guards; keep the convention consistent)");
        return;
    }
    if (ts.size() < 6 || ts[0].text != "#" || ts[1].text != "ifndef" ||
        ts[3].text != "#" || ts[4].text != "define") {
        report(f, out, "hygiene-include-guard", 1,
               "missing include guard (expected #ifndef " + want +
                   " / #define " + want + " as the first directives)");
        return;
    }
    if (ts[2].text != want || ts[5].text != ts[2].text) {
        report(f, out, "hygiene-include-guard", ts[2].line,
               "include guard '" + ts[2].text + "' does not match the "
               "canonical name '" + want + "'");
    }
}

// ---------------------------------------------------------------------
// hygiene-io
// ---------------------------------------------------------------------

bool
ioApplies(const std::string &p)
{
    // src/metrics *is* the reporting layer; everything else in the
    // library must stay quiet.
    return startsWith(p, "src/") && !startsWith(p, "src/metrics/");
}

void
ioCheck(const SourceFile &f, std::vector<Finding> &out)
{
    static const char *kCalls[] = {"printf", "fprintf", "vprintf",
                                   "vfprintf", "puts", "fputs",
                                   "putchar", "fwrite"};
    static const char *kStreams[] = {"cout", "cerr", "clog"};
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        const Token &t = f.tokens[i];
        if (t.kind != TokKind::Ident)
            continue;
        const bool call =
            std::any_of(std::begin(kCalls), std::end(kCalls),
                        [&](const char *b) { return t.text == b; });
        if (call && at(f, i + 1) == "(") {
            report(f, out, "hygiene-io", t.line,
                   "direct stdio ('" + t.text +
                       "') in the library (reports go through "
                       "src/metrics; diagnostics through PISO_INFO/"
                       "PISO_TRACE)");
            continue;
        }
        const bool stream =
            std::any_of(std::begin(kStreams), std::end(kStreams),
                        [&](const char *b) { return t.text == b; });
        if (stream && (at(f, i + 1) == "<<" ||
                       (at(f, i - 1) == "::" && at(f, i - 2) == "std"))) {
            report(f, out, "hygiene-io", t.line,
                   "direct stream output ('std::" + t.text +
                       "') in the library (reports go through "
                       "src/metrics)");
        }
    }
}

// ---------------------------------------------------------------------
// error-taxonomy
// ---------------------------------------------------------------------

bool
errorTaxonomyApplies(const std::string &p)
{
    // The layers the sweep runner quarantines: every failure escaping
    // a task must carry a SimError category it can act on.
    return startsWith(p, "src/exp/") || startsWith(p, "src/sim/");
}

void
errorTaxonomyCheck(const SourceFile &f, std::vector<Finding> &out)
{
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        const Token &t = f.tokens[i];
        if (t.kind != TokKind::Ident || t.text != "throw")
            continue;
        std::size_t j = i + 1;
        if (at(f, j) == "std" && at(f, j + 1) == "::")
            j += 2;
        if (at(f, j) == "runtime_error" && at(f, j + 1) == "(") {
            report(f, out, "error-taxonomy", t.line,
                   "bare 'throw std::runtime_error' (throw a SimError "
                   "subclass from src/util/error.hh so the sweep "
                   "runner can classify and quarantine the failure)");
        }
    }
}

// ---------------------------------------------------------------------
// hot-path-full-scan
// ---------------------------------------------------------------------

bool
fullScanApplies(const std::string &p)
{
    // The policy layer: its periodic loops must stay O(active SPUs) on
    // big machines (bench/ext_scale asserts the scaling). The table
    // container itself is the one place allowed to sweep its storage.
    return startsWith(p, "src/core/") && p != "src/core/spu_table.hh";
}

void
fullScanCheck(const SourceFile &f, std::vector<Finding> &out)
{
    // Pass 1: names declared in this file with a SpuTable/DenseTable
    // type — members, locals, and by-reference parameters alike.
    std::vector<std::string> tables;
    for (std::size_t i = 0; i + 1 < f.tokens.size(); ++i) {
        const Token &t = f.tokens[i];
        if (t.kind != TokKind::Ident ||
            (t.text != "SpuTable" && t.text != "DenseTable"))
            continue;
        if (at(f, i + 1) != "<")
            continue;
        std::size_t j = i + 1;
        int angle = 0;
        for (; j < f.tokens.size(); ++j) {
            if (at(f, j) == "<") {
                ++angle;
            } else if (at(f, j) == ">") {
                if (--angle == 0) {
                    ++j;
                    break;
                }
            }
        }
        while (j < f.tokens.size() &&
               (at(f, j) == "&" || at(f, j) == "*" || at(f, j) == "const"))
            ++j;
        if (j >= f.tokens.size() || f.tokens[j].kind != TokKind::Ident)
            continue;
        // 'SpuTable<T> name(' is a function returning a table and
        // 'SpuTable<T> Class::member(' a qualified definition — only
        // variable declarations name something iterable.
        if (at(f, j + 1) == "(" || at(f, j + 1) == "::")
            continue;
        tables.push_back(f.tokens[j].text);
    }

    // Pass 2: range-for statements. Two signals mark a full table
    // scan: the sequence expression names a table declared above, or
    // the loop variable is a structured binding — the (id, value) pair
    // iteration only the dense tables yield in this layer (members are
    // often declared in the header, invisible to this file).
    for (std::size_t i = 0; i + 2 < f.tokens.size(); ++i) {
        const Token &t = f.tokens[i];
        if (t.kind != TokKind::Ident || t.text != "for" ||
            at(f, i + 1) != "(")
            continue;
        int depth = 1;
        bool binding = false;
        std::size_t colon = 0;
        for (std::size_t j = i + 2; j < f.tokens.size() && depth > 0;
             ++j) {
            const std::string &x = at(f, j);
            if (x == "(") {
                ++depth;
            } else if (x == ")") {
                --depth;
            } else if (depth == 1 && x == ";") {
                break;  // classic for (init; cond; step)
            } else if (depth == 1 && x == ":") {
                colon = j;
                break;
            } else if (x == "[") {
                binding = true;
            }
        }
        if (colon == 0)
            continue;
        std::string table;
        int depth2 = 1;
        for (std::size_t j = colon + 1; j < f.tokens.size() && depth2 > 0;
             ++j) {
            const std::string &x = at(f, j);
            if (x == "(") {
                ++depth2;
            } else if (x == ")") {
                --depth2;
            } else if (f.tokens[j].kind == TokKind::Ident &&
                       std::find(tables.begin(), tables.end(), x) !=
                           tables.end()) {
                table = x;
            }
        }
        if (!table.empty()) {
            report(f, out, "hot-path-full-scan", t.line,
                   "range-for over the whole table '" + table +
                       "' in src/core (policy loops must stay O(active "
                       "SPUs); iterate an active-set index, or justify "
                       "with piso-lint: allow)");
        } else if (binding) {
            report(f, out, "hot-path-full-scan", t.line,
                   "structured-binding sweep of a dense table in "
                   "src/core (policy loops must stay O(active SPUs); "
                   "iterate an active-set index, or justify with "
                   "piso-lint: allow)");
        }
    }
}

// ---------------------------------------------------------------------
// time-unit-literal
// ---------------------------------------------------------------------

bool
timeUnitApplies(const std::string &p)
{
    // The deterministic core, where Time arithmetic is simulated
    // semantics. src/exp is host-side; src/lint has no Time at all.
    return startsWith(p, "src/") && !startsWith(p, "src/exp/") &&
           !startsWith(p, "src/lint/");
}

void
timeUnitCheck(const SourceFile &f, std::vector<Finding> &out)
{
    // Pass 1: identifiers declared with type Time in this file —
    // locals, parameters and data members alike ('Time t', 'Time &t',
    // 'const Time t').
    std::vector<std::string> timeIdents;
    for (std::size_t i = 0; i + 1 < f.tokens.size(); ++i) {
        if (f.tokens[i].kind != TokKind::Ident ||
            f.tokens[i].text != "Time")
            continue;
        std::size_t j = i + 1;
        while (j < f.tokens.size() &&
               (at(f, j) == "&" || at(f, j) == "*" ||
                at(f, j) == "const"))
            ++j;
        if (j < f.tokens.size() && f.tokens[j].kind == TokKind::Ident)
            timeIdents.push_back(f.tokens[j].text);
    }
    std::sort(timeIdents.begin(), timeIdents.end());
    timeIdents.erase(
        std::unique(timeIdents.begin(), timeIdents.end()),
        timeIdents.end());

    const auto isTimeIdent = [&](std::size_t i, bool &unitConst) {
        if (i >= f.tokens.size() ||
            f.tokens[i].kind != TokKind::Ident)
            return false;
        const std::string &t = f.tokens[i].text;
        unitConst = t == "kNs" || t == "kUs" || t == "kMs" ||
                    t == "kSec" || t == "kTimeNever";
        return unitConst ||
               std::binary_search(timeIdents.begin(), timeIdents.end(),
                                  t);
    };

    // The operator cluster between a literal and its neighbour, read
    // outward from the literal; empty when the neighbour isn't reached
    // over plain operator punctuation.
    const auto clusterLeft = [&](std::size_t i, std::size_t &ident) {
        std::string op;
        std::size_t j = i;
        while (j > 0) {
            const Token &t = f.tokens[j - 1];
            if (t.kind != TokKind::Punct ||
                std::string("+-*/%<>=!").find(t.text[0]) ==
                    std::string::npos)
                break;
            op.insert(0, t.text);
            --j;
        }
        ident = j > 0 ? j - 1 : 0;
        return j == i ? std::string() : op;
    };
    const auto clusterRight = [&](std::size_t i, std::size_t &ident) {
        std::string op;
        std::size_t j = i + 1;
        while (j < f.tokens.size()) {
            const Token &t = f.tokens[j];
            if (t.kind != TokKind::Punct ||
                std::string("+-*/%<>=!").find(t.text[0]) ==
                    std::string::npos)
                break;
            op += t.text;
            ++j;
        }
        ident = j;
        return j == i + 1 ? std::string() : op;
    };

    static const char *kFlagged[] = {"+",  "-",  "<",  ">",  "<=",
                                     ">=", "==", "!=", "+=", "-="};
    static const char *kScaling[] = {"*", "/", "%", "*=", "/=", "%="};
    const auto in = [](const std::string &op, const char *const *set,
                       std::size_t n) {
        for (std::size_t k = 0; k < n; ++k) {
            if (op == set[k])
                return true;
        }
        return false;
    };

    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
        const Token &t = f.tokens[i];
        if (t.kind != TokKind::Number || t.preproc)
            continue;
        // Integer literals only; 0 and 1 are unit-free (comparisons
        // with zero, one-tick offsets).
        if (t.text.find('.') != std::string::npos || t.text == "0" ||
            t.text == "1")
            continue;
        std::size_t li = 0;
        std::size_t ri = 0;
        const std::string lop = clusterLeft(i, li);
        const std::string rop = clusterRight(i, ri);
        // A literal inside a product is a dimensionless scale factor
        // (the '500 * kUs' idiom and 'period / 2' both live here).
        if (in(lop, kScaling, std::size(kScaling)) ||
            in(rop, kScaling, std::size(kScaling)))
            continue;
        bool unitL = false;
        bool unitR = false;
        const bool timeL = in(lop, kFlagged, std::size(kFlagged)) &&
                           isTimeIdent(li, unitL);
        const bool timeR = in(rop, kFlagged, std::size(kFlagged)) &&
                           isTimeIdent(ri, unitR);
        if ((timeL && !unitL) || (timeR && !unitR)) {
            const std::string other =
                timeL && !unitL ? f.tokens[li].text : f.tokens[ri].text;
            report(f, out, "time-unit-literal", t.line,
                   "bare integer literal " + t.text +
                       " in arithmetic with Time-typed '" + other +
                       "' (write " + t.text +
                       " * kNs/kUs/kMs/kSec, or name the constant)");
        }
    }
}

// ---------------------------------------------------------------------
// layering (cross-file)
// ---------------------------------------------------------------------

void
layeringCheck(const ProjectIndex &index, std::vector<Finding> &out)
{
    // Upward includes: an edge may only point at the same or a lower
    // layer (util -> sim -> core -> machine -> os -> workload ->
    // metrics -> simulation -> exp/config -> tools).
    for (const FileSummary *file : index.files) {
        const int from = layerRank(file->path);
        if (from < 0)
            continue;
        for (const IncludeEdge &inc : file->includes) {
            const int to = layerRank(inc.target);
            if (to < 0 || to <= from)
                continue;
            out.push_back(
                {kRuleLayering, file->path, inc.line,
                 "upward include: " + file->path + " (layer " +
                     layerName(from) + ") includes " + inc.target +
                     " (layer " + layerName(to) +
                     "); edges must flow util <- sim <- core <- "
                     "machine <- os <- workload <- metrics <- "
                     "simulation <- exp/config <- tools"});
        }
    }

    // Cycles in the file-level include graph (same-layer cycles are
    // invisible to the rank check above). Reported once, at the back
    // edge that closes the cycle.
    std::map<std::string, const FileSummary *> byPath;
    for (const FileSummary *file : index.files)
        byPath[file->path] = file;
    std::map<std::string, int> color;  // 0 white, 1 grey, 2 black
    std::vector<std::string> stack;
    const std::function<void(const FileSummary *)> visit =
        [&](const FileSummary *file) {
            color[file->path] = 1;
            stack.push_back(file->path);
            for (const IncludeEdge &inc : file->includes) {
                const auto target = byPath.find(inc.target);
                if (target == byPath.end())
                    continue;
                const int c = color[inc.target];
                if (c == 1) {
                    std::string cycle = inc.target;
                    auto at = std::find(stack.begin(), stack.end(),
                                        inc.target);
                    for (auto it = at; it != stack.end(); ++it) {
                        if (*it != inc.target)
                            cycle += " -> " + *it;
                    }
                    cycle += " -> " + inc.target;
                    out.push_back({kRuleLayering, file->path, inc.line,
                                   "include cycle: " + cycle});
                } else if (c == 0) {
                    visit(target->second);
                }
            }
            stack.pop_back();
            color[file->path] = 2;
        };
    for (const FileSummary *file : index.files) {
        if (color[file->path] == 0)
            visit(file);
    }
}

} // namespace

const std::vector<Rule> &
ruleRegistry()
{
    static const std::vector<Rule> kRules = {
        {"determinism-wallclock",
         "wall-clock/time-of-day sources outside src/exp and tools/",
         wallclockApplies, wallclockCheck},
        {"determinism-unordered",
         "unordered containers in report/JSON/sweep emission paths",
         unorderedApplies, unorderedCheck},
        {"thread-global-state",
         "mutable namespace-scope or static-local state in the sim core",
         globalStateApplies, globalStateCheck},
        {"table-map-key",
         "std::map keyed by SpuId/Pid (use SpuTable/DenseTable)",
         tableApplies, tableCheck},
        {"memory-raw-new",
         "raw new/delete outside the slab allocators",
         rawNewApplies, rawNewCheck},
        {"hygiene-include-guard",
         "headers carry the canonical #ifndef PISO_..._HH guard",
         guardApplies, guardCheck},
        {"hygiene-io",
         "direct stdio/stream output outside src/metrics",
         ioApplies, ioCheck},
        {"error-taxonomy",
         "bare throw std::runtime_error in src/exp and src/sim "
         "(use SimError)",
         errorTaxonomyApplies, errorTaxonomyCheck},
        {"hot-path-full-scan",
         "full SpuTable/DenseTable iteration on src/core policy paths",
         fullScanApplies, fullScanCheck},
        {"time-unit-literal",
         "bare integer literals in arithmetic with Time-typed values",
         timeUnitApplies, timeUnitCheck},
    };
    return kRules;
}

const std::vector<ProjectRule> &
projectRuleRegistry()
{
    static const std::vector<ProjectRule> kRules = {
        {kRuleLayering,
         "include edges respect the layer order; no include cycles",
         layeringCheck},
    };
    return kRules;
}

bool
knownRule(const std::string &name)
{
    const auto &rules = ruleRegistry();
    if (std::any_of(rules.begin(), rules.end(),
                    [&](const Rule &r) { return name == r.name; }))
        return true;
    const auto &project = projectRuleRegistry();
    return std::any_of(project.begin(), project.end(),
                       [&](const ProjectRule &r) {
                           return name == r.name;
                       });
}

} // namespace piso::lint
