#include "logging.hh"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include <time.h>

#include "common/event_log.hh"

namespace manna
{

namespace
{
LogLevel globalLevel = LogLevel::Normal;
std::string globalRole;

/** "2026-08-08T12:34:56.789Z" — UTC, millisecond precision. */
std::string
isoTimestamp()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_REALTIME, &ts);
    struct tm tm;
    ::gmtime_r(&ts.tv_sec, &tm);
    char buf[40];
    const std::size_t n =
        ::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%S", &tm);
    std::snprintf(buf + n, sizeof(buf) - n, ".%03ldZ",
                  ts.tv_nsec / 1000000L);
    return buf;
}

void
vreport(const char *tag, const char *fmt, va_list args)
{
    // Format the message once: it goes to stderr and — for
    // warn/inform while a trace is armed — into the event log.
    va_list copy;
    va_copy(copy, args);
    const int need = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string msg;
    if (need > 0) {
        std::vector<char> buf(static_cast<std::size_t>(need) + 1);
        std::vsnprintf(buf.data(), buf.size(), fmt, args);
        msg.assign(buf.data(), static_cast<std::size_t>(need));
    }
    if (globalRole.empty()) {
        std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
    } else {
        // Long-running services: a timestamp + role prefix keeps the
        // daemon's stderr attributable.
        std::fprintf(stderr, "%s [%s] %s: %s\n",
                     isoTimestamp().c_str(), globalRole.c_str(), tag,
                     msg.c_str());
    }
    // Mirror warnings and infos into the harness trace so a merged
    // timeline is self-explaining. Guard against recursion: event-log
    // internals may warn, and that warning must not re-enter.
    if (events::enabled()) {
        static thread_local bool routing = false;
        if (!routing &&
            (tag[0] == 'w' || (tag[0] == 'i' && tag[1] == 'n'))) {
            routing = true;
            events::instant(tag[0] == 'w' ? "log.warn" : "log.info",
                            msg);
            routing = false;
        }
    }
}

/** One-line triage hint printed just before an abort/exit. */
void
reportSanitizeHint()
{
    std::fprintf(stderr,
                 "hint: rerun with a -DMANNA_SANITIZE=address (or "
                 "thread/undefined) build for an instrumented "
                 "report\n");
}
} // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

void
setLogRole(const std::string &role)
{
    globalRole = role;
}

void
panicAssertFail(const char *cond, const char *file, int line,
                const char *fmt, ...)
{
    std::fprintf(stderr, "panic: assertion '%s' failed at %s:%d: ", cond,
                 file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    reportSanitizeHint();
    std::abort();
}

void
panicAt(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "panic: at %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    reportSanitizeHint();
    std::abort();
}

void
fatalAt(const char *file, int line, const char *fmt, ...)
{
    std::fprintf(stderr, "fatal: at %s:%d: ", file, line);
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fprintf(stderr, "\n");
    reportSanitizeHint();
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    vreport("warn", fmt, args);
    va_end(args);
}

void
inform(const char *fmt, ...)
{
    if (globalLevel < LogLevel::Normal)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("info", fmt, args);
    va_end(args);
}

void
debugLog(const char *fmt, ...)
{
    if (globalLevel < LogLevel::Verbose)
        return;
    va_list args;
    va_start(args, fmt);
    vreport("debug", fmt, args);
    va_end(args);
}

} // namespace manna
