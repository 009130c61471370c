/**
 * @file
 * Cooperative graceful shutdown on SIGTERM/SIGINT.
 *
 * The handler only sets a process-wide atomic; everything else is
 * polled. The sweep runner's watchdog scanner fires every in-flight
 * CancelToken when the flag goes up (so running simulations unwind
 * through the usual cancellation path), and the journal is flushed
 * and fsync'd as on any normal exit — an interrupted sweep resumes
 * byte-identically from its journal. See docs/ROBUSTNESS.md.
 */

#ifndef MANNA_COMMON_SHUTDOWN_HH
#define MANNA_COMMON_SHUTDOWN_HH

namespace manna
{

/** Install the SIGTERM/SIGINT handlers (idempotent; the first call
 * wins). Safe to call from any sweep entry point. */
void installShutdownHandlers();

/** True once SIGTERM or SIGINT was received (or requestShutdown()
 * was called). Never resets except via resetShutdownForTest(). */
bool shutdownRequested();

/** The signal number that triggered the shutdown (0 when none). */
int shutdownSignal();

/** Programmatic trigger: behaves exactly like receiving @p sig.
 * Used by tests and by in-process embedders that want the graceful
 * drain without a real signal. */
void requestShutdown(int sig);

/** Test hook: clear the latch so the next test starts clean. */
void resetShutdownForTest();

} // namespace manna

#endif // MANNA_COMMON_SHUTDOWN_HH
