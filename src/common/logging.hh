/**
 * @file
 * Status-message and error-handling helpers in the spirit of gem5's
 * logging facilities.
 *
 * Two classes of error are distinguished:
 *  - panic(): an internal invariant was violated (a bug in this
 *    library). Aborts so a debugger/core dump can be attached.
 *  - fatal(): the *user's* input (configuration, benchmark selection,
 *    assembly text, ...) cannot be processed. Exits with an error code.
 *
 * warn()/inform() print advisory messages and continue.
 */

#ifndef MANNA_COMMON_LOGGING_HH
#define MANNA_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace manna
{

/** Verbosity levels for inform()-style messages. */
enum class LogLevel
{
    Quiet = 0,   ///< only warnings and errors
    Normal = 1,  ///< inform() messages shown
    Verbose = 2, ///< debug() messages shown
};

/** Set the global verbosity. Thread-unsafe; call once at startup. */
void setLogLevel(LogLevel level);

/** Current global verbosity. */
LogLevel logLevel();

/**
 * Tag this process's stderr diagnostics with a role ("daemon"). When
 * set, every warn()/inform()/debugLog() line is prefixed with an
 * ISO-8601 UTC timestamp and the role, so a long-running service's
 * log stays attributable:
 *
 *   2026-08-08T12:34:56.789Z [daemon] warn: ...
 *
 * Empty (the default, and for bench processes) keeps the classic
 * "warn: ..." format. Thread-unsafe; set once at startup (mannad
 * does, from serverOptionsFromConfig()).
 */
void setLogRole(const std::string &role);

/**
 * Report an internal invariant violation and abort.
 * Use only for conditions that indicate a bug in this library.
 * Implementation detail of the panic() macro, which supplies the
 * call site so the report carries file:line.
 */
[[noreturn]] void panicAt(const char *file, int line, const char *fmt,
                          ...) __attribute__((format(printf, 3, 4)));

/**
 * Report an unrecoverable user error (bad config, bad input) and
 * exit(1). Implementation detail of the fatal() macro.
 */
[[noreturn]] void fatalAt(const char *file, int line, const char *fmt,
                          ...) __attribute__((format(printf, 3, 4)));

/**
 * gem5-style reporting macros: capture the call site so every abort
 * names the file:line that raised it, and print a one-line hint to
 * rerun under an instrumented build. Recoverable error paths (config
 * validation, codegen structural checks) throw manna::Error
 * subclasses instead — see common/error.hh.
 */
#define panic(...) ::manna::panicAt(__FILE__, __LINE__, __VA_ARGS__)
#define fatal(...) ::manna::fatalAt(__FILE__, __LINE__, __VA_ARGS__)

/** Print a warning; the run continues. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message (LogLevel::Normal and up). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print a debug message (LogLevel::Verbose only). */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Implementation detail of MANNA_ASSERT. */
[[noreturn]] void panicAssertFail(const char *cond, const char *file,
                                  int line, const char *fmt, ...)
    __attribute__((format(printf, 4, 5)));

/**
 * Assert a simulator invariant with a formatted message.
 * Compiled in all build types: simulator correctness depends on these
 * checks and their cost is negligible next to the modelled work.
 */
#define MANNA_ASSERT(cond, ...)                                          \
    do {                                                                 \
        if (!(cond)) {                                                   \
            ::manna::panicAssertFail(#cond, __FILE__, __LINE__,          \
                                     __VA_ARGS__);                       \
        }                                                                \
    } while (0)

} // namespace manna

#endif // MANNA_COMMON_LOGGING_HH
