#include "src/util/log.hh"

#include <cstdio>
#include <cstdlib>

#include "src/util/time.hh"
#include "src/util/error.hh"

namespace piso {

std::string
formatTime(Time t)
{
    char buf[64];
    if (t >= kSec) {
        std::snprintf(buf, sizeof(buf), "%.3fs", toSeconds(t));
    } else if (t >= kMs) {
        std::snprintf(buf, sizeof(buf), "%.3fms", toMillis(t));
    } else if (t >= kUs) {
        std::snprintf(buf, sizeof(buf), "%.3fus",
                      static_cast<double>(t) / static_cast<double>(kUs));
    } else {
        std::snprintf(buf, sizeof(buf), "%lluns",
                      static_cast<unsigned long long>(t));
    }
    return buf;
}

namespace detail {

void
fatalImpl(const std::string &msg)
{
    // Throwing (rather than exit()) keeps fatal conditions testable and
    // lets the sweep runner quarantine the task; ConfigError derives
    // from std::runtime_error so legacy catch sites keep working. The
    // catcher prints the message, so it is printed once and names no
    // source file.
    throw ConfigError("fatal: " + msg);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    // piso-lint: allow(hygiene-io) -- panic diagnostics go to stderr right before abort(); nothing else may run
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

} // namespace detail
} // namespace piso
