#ifndef PISO_UTIL_LOG_HH
#define PISO_UTIL_LOG_HH

/**
 * @file
 * Error-termination helpers.
 *
 * Follows the gem5 convention: fatal() is for user errors (bad
 * configuration, impossible workload parameters) and throws a
 * structured ConfigError (src/util/error.hh) the sweep runner can
 * quarantine; panic() is for internal invariant violations (simulator
 * bugs) and aborts so a core dump / debugger can capture the state.
 * For invariants that should be *catchable* in hardened builds, use
 * PISO_INVARIANT / PISO_CHECK from src/util/error.hh instead.
 */

#include <ostream>
#include <sstream>
#include <string>
#include <string_view>

namespace piso {

/**
 * Where a configuration value came from, printed ahead of a fatal
 * error about it: "line 3: " for a workload-spec line, "grid key
 * 'cpus': " for a sweep grid value, nothing when neither is set. It
 * holds no string of its own, so naming a value's origin costs nothing
 * until the value turns out to be bad.
 */
struct Where
{
    int line = 0;               //!< workload-spec line; 0 = none
    std::string_view gridKey{}; //!< sweep grid key; empty = none
};

inline std::ostream &
operator<<(std::ostream &os, const Where &where)
{
    if (where.line > 0)
        return os << "line " << where.line << ": ";
    if (!where.gridKey.empty())
        return os << "grid key '" << where.gridKey << "': ";
    return os;
}

namespace detail {
[[noreturn]] void fatalImpl(const std::string &msg);
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);

/** Fold a parameter pack into one string via operator<<. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}
} // namespace detail

} // namespace piso

/** Terminate: unrecoverable *user* error (bad config, bad arguments).
 *  Throws ConfigError("fatal: <message>") and prints nothing: the
 *  catcher (a tool's main, the sweep runner) reports it once. */
#define PISO_FATAL(...)                                                     \
    ::piso::detail::fatalImpl(::piso::detail::concat(__VA_ARGS__))

/** Terminate: internal invariant violation (a simulator bug). */
#define PISO_PANIC(...)                                                     \
    ::piso::detail::panicImpl(__FILE__, __LINE__,                           \
                              ::piso::detail::concat(__VA_ARGS__))

#endif // PISO_UTIL_LOG_HH
