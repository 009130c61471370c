/**
 * @file
 * Harness-level distributed tracing: a low-overhead span/event log
 * every process of a sweep (bench process, mannad daemon) can write,
 * and a parser for merging the per-process files into one
 * clock-aligned timeline (harness/observe.hh renders the merge as a
 * Chrome trace).
 *
 * Model: one process-wide EventLog (like the fault-injection
 * registry), armed by the `events=FILE` knob (MANNA_EVENTS fallback)
 * through events::configureFromConfig(). When disarmed — the default
 * — every emission site is a single relaxed atomic load. When armed,
 * events buffer in memory (bounded by `events_limit=`, default
 * 131072; overflow is counted, never blocking) and flush as JSONL
 * (`manna-events-v1`, docs/FORMATS.md) in small batches, so a killed
 * process loses at most the last batch and a torn final line is
 * skippable by the parser — the same crash-safety posture as the
 * sweep journal.
 *
 * Clocks: every event carries a monotonic timestamp relative to the
 * log's open; the header pairs that monotonic epoch with a wall-clock
 * sample, and the merger aligns files on that wall clock. See
 * docs/OBSERVABILITY.md ("Harness span and event catalog") for the
 * span catalog and the clock model.
 *
 * Event names come from a closed registry (kEventNames in
 * event_log.cc, linted two-way against the docs catalog by
 * scripts/check_docs.sh); emitting an unregistered name panics, so
 * call sites cannot drift from the catalog.
 */

#ifndef MANNA_COMMON_EVENT_LOG_HH
#define MANNA_COMMON_EVENT_LOG_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace manna
{
class Config;
}

namespace manna::events
{

/** Count of registered span/event names (see kEventNames). */
std::size_t eventNameCount();

/** True when @p name is in the registry. */
bool isRegisteredEventName(std::string_view name);

namespace detail
{
extern std::atomic<bool> gEnabled;
}

/** Fast gate for emission sites: one relaxed load when tracing is
 * off, so instrumented hot paths cost nothing in normal runs. */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/**
 * The process-wide event log. All members are thread-safe; emission
 * is a no-op until open() succeeds.
 */
class EventLog
{
  public:
    static EventLog &instance();

    /**
     * Start logging to @p path (truncating) under process role
     * @p role ("main", "daemon"). Returns false (with a warning) when
     * the file cannot be created or a log is already open.
     */
    bool open(const std::string &path, const std::string &role,
              std::size_t maxEvents = kDefaultLimit);

    /** Flush, fsync, and close; further emissions are no-ops. Safe to
     * call when not open. */
    void close();

    /** Flush buffered events to the file (no fsync). */
    void flush();

    /** Path of the open log ("" when closed). */
    std::string path();

    /**
     * Begin a span. Returns the span id to pass to endSpan(), 0 when
     * logging is off (endSpan ignores id 0). @p name must be
     * registered; @p detail is free-form "k=v" text attached to the
     * begin event.
     */
    std::uint64_t beginSpan(const char *name,
                            const std::string &detail = "");

    /** End span @p id (from beginSpan). */
    void endSpan(const char *name, std::uint64_t id,
                 const std::string &detail = "");

    /** A zero-duration instant event. */
    void instant(const char *name, const std::string &detail = "");

    /** Events dropped past the buffer bound so far. */
    std::uint64_t dropped();

    /**
     * Register a sibling event file for the merged harness trace
     * (a server= client adds the daemon's advertised file here; the
     * open log's own path is always first). Paths are deduplicated.
     */
    void registerMergeFile(const std::string &path);

    /** The merge list: own path (if a log is or was open) followed by
     * registered files, in registration order. */
    std::vector<std::string> mergeFiles();

    static constexpr std::size_t kDefaultLimit = 131072;

  private:
    EventLog() = default;
    ~EventLog();

    struct Record
    {
        const char *name;
        char phase; ///< 'B' begin, 'E' end, 'i' instant
        std::uint64_t t;
        std::uint32_t tid;
        std::uint64_t id;
        std::string detail;
    };

    void emit(const char *name, char phase, std::uint64_t id,
              const std::string &detail);
    std::uint32_t tidLocked();
    void flushLocked();

    std::mutex mu_;
    std::FILE *file_ = nullptr;
    std::string path_;
    std::string role_;
    std::uint64_t monoEpochNs_ = 0;
    std::size_t limit_ = kDefaultLimit;
    std::uint64_t written_ = 0;
    std::uint64_t dropped_ = 0;
    std::atomic<std::uint64_t> nextSpanId_{1};
    std::map<std::thread::id, std::uint32_t> tids_;
    std::vector<Record> buffer_;
    std::vector<std::string> mergeFiles_;
};

/** RAII span against the process-wide log: begins on construction,
 * ends on destruction (or at an explicit end()). Free when logging
 * is off. */
class Span
{
  public:
    explicit Span(const char *name, const std::string &detail = "")
        : name_(name)
    {
        if (enabled())
            id_ = EventLog::instance().beginSpan(name, detail);
    }

    ~Span() { end(); }

    /** End early, optionally attaching outcome detail to the end
     * event ("ok=0", "cause=timeout", ...). */
    void
    end(const std::string &detail = "")
    {
        if (id_ == 0)
            return;
        EventLog::instance().endSpan(name_, id_, detail);
        id_ = 0;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *name_;
    std::uint64_t id_ = 0;
};

/** Emit an instant event iff logging is armed (sugar around the
 * singleton for call sites). */
inline void
instant(const char *name, const std::string &detail = "")
{
    if (enabled())
        EventLog::instance().instant(name, detail);
}

/**
 * Parse events= / events_limit= (MANNA_EVENTS / MANNA_EVENTS_LIMIT)
 * and open the process-wide log under @p role when a path is
 * configured. Process-wide side
 * effect, like fault::configureFromConfig(). No-op when no path is
 * given.
 */
void configureFromConfig(const Config &cfg, const std::string &role);

// ---------------------------------------------------------------------
// Reading manna-events-v1 files back (the merge path)
// ---------------------------------------------------------------------

/** One event parsed back from a manna-events-v1 file. The detail
 * string is kept JSON-escaped exactly as written (it re-embeds into
 * the merged trace without a decode/encode round trip). */
struct ParsedEvent
{
    std::string name;
    char phase = 'i';
    std::uint64_t t = 0; ///< ns since the file's monotonic epoch
    std::uint32_t tid = 0;
    std::uint64_t id = 0;
    std::string detail; ///< still JSON-escaped; "" when absent
};

/** One parsed manna-events-v1 file. */
struct ParsedEventFile
{
    bool ok = false;    ///< header parsed and schema matched
    std::string role;
    long pid = 0;
    std::uint64_t wallUs = 0; ///< wall clock at the monotonic epoch
    std::uint64_t monoNs = 0; ///< monotonic clock at the epoch
    std::uint64_t dropped = 0;
    std::size_t skippedLines = 0; ///< torn/foreign lines ignored
    std::vector<ParsedEvent> events;
};

/** Load a manna-events-v1 file. Torn or foreign lines are counted
 * into skippedLines and ignored (crash-tolerant, like the journal
 * loader); a missing file or bad header returns ok == false. */
ParsedEventFile parseEventFile(const std::string &path);

} // namespace manna::events

#endif // MANNA_COMMON_EVENT_LOG_HH
