/**
 * @file
 * In-memory span log for the benchmark's traced run. Every span wraps
 * one call into a simulator layer from outside it (compile, episode
 * generation, chip construction, one step, report, one golden step),
 * and records its name, start, end, parent span and job id. Spans are
 * kept in memory and written out once, at exit, as a Chrome trace that
 * Perfetto and chrome://tracing open.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** One closed (or still open) span. Times are microseconds since the
 * recorder's origin. */
struct SpanRecord
{
    const char *name = "";   ///< "<layer>.<phase>", a string literal
    double startUs = 0.0;
    double endUs = 0.0;
    long parent = -1;        ///< index of the enclosing span, -1 at root
    long job = -1;           ///< job id, -1 outside any job
    unsigned tid = 0;        ///< small per-thread id (1, 2, ...)

    double durUs() const { return endUs - startUs; }
};

/** Thread-safe span log. Spans nest per thread: a span opened while
 * another is open on the same thread becomes its child. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(Clock::time_point origin) : origin_(origin) {}

    std::size_t open(const char *name, long job);
    void close(std::size_t index);

    /** Copy of every span recorded so far, in opening order. */
    std::vector<SpanRecord> snapshot() const;

    /** Write every span as Chrome trace "X" events; false on I/O
     * error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    double nowUs() const;

    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_; ///< guarded by mu_
};

/** RAII span; a null recorder makes it a no-op, so untraced runs share
 * the traced code path at the cost of one branch. */
class Span
{
  public:
    Span(SpanRecorder *rec, const char *name, long job)
        : rec_(rec), index_(rec ? rec->open(name, job) : 0)
    {
    }
    ~Span()
    {
        if (rec_)
            rec_->close(index_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder *rec_;
    std::size_t index_;
};

/** Self time of every span: its duration minus the durations of its
 * direct children (indices match @p spans). */
std::vector<double> selfTimesUs(const std::vector<SpanRecord> &spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
