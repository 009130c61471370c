#include "event_log.hh"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include <time.h>
#include <unistd.h>

#include "common/config.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna::events
{

namespace
{

/** Registry of span/event names. The docs lint
 * (scripts/check_docs.sh, check #7) extracts this array and diffs it
 * two-way against the "Harness span and event catalog" section of
 * docs/OBSERVABILITY.md, exactly like the fault-site registry of
 * common/fault.cc. Emission sites assert membership, so a call site
 * cannot use a name the catalog does not document. */
const char *const kEventNames[] = {
    // spans (B/E pairs)
    "sweep.run",
    "job.run",
    "job.attempt",
    "journal.load",
    "journal.append",
    "compile.model",
    "server.run",
    "server.conn",
    // instants
    "job.restored",
    "job.retry",
    "job.cancelled",
    "sweep.interrupted",
    "compile.cache.hit",
    "compile.cache.miss",
    "fault.injected",
    "server.accept",
    "server.retry_after",
    "job.enqueue",
    "log.warn",
    "log.info",
};

constexpr std::size_t kNumEventNames =
    sizeof(kEventNames) / sizeof(kEventNames[0]);

/** Flush the buffer to the file every this many events: a killed
 * process loses at most one batch (the journal's posture). */
constexpr std::size_t kFlushBatch = 256;

std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Wall clock in µs since the Unix epoch (CLOCK_REALTIME) — the
 * cross-process alignment axis of the merged trace. */
std::uint64_t
wallClockMicros()
{
    struct timespec ts;
    ::clock_gettime(CLOCK_REALTIME, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000ull +
           static_cast<std::uint64_t>(ts.tv_nsec) / 1000ull;
}

} // namespace

namespace detail
{
std::atomic<bool> gEnabled{false};
}

std::size_t
eventNameCount()
{
    return kNumEventNames;
}

bool
isRegisteredEventName(std::string_view name)
{
    for (const char *n : kEventNames)
        if (name == n)
            return true;
    return false;
}

// ---------------------------------------------------------------------
// EventLog
// ---------------------------------------------------------------------

EventLog &
EventLog::instance()
{
    static EventLog log;
    return log;
}

EventLog::~EventLog()
{
    close();
}

bool
EventLog::open(const std::string &path, const std::string &role,
               std::size_t maxEvents)
{
    if (path.empty())
        return false;
    // warn() routes into this log when armed, so never warn while
    // holding mu_ — collect the complaint and raise it after unlock.
    std::string complaint;
    const bool ok = [&] {
        std::lock_guard<std::mutex> lock(mu_);
        if (file_) {
            complaint = strformat(
                "event log already open at '%s'; ignoring '%s'",
                path_.c_str(), path.c_str());
            return false;
        }
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            complaint = strformat("cannot open event log '%s' (%s)",
                                  path.c_str(),
                                  std::strerror(errno));
            return false;
        }
        file_ = f;
        path_ = path;
        role_ = role;
        limit_ = maxEvents > 0 ? maxEvents : kDefaultLimit;
        written_ = 0;
        dropped_ = 0;
        monoEpochNs_ = monotonicNs();
        tids_.clear();
        buffer_.clear();
        // Each open starts a fresh merge list with the own path
        // first; daemon registrations belong to one log lifetime.
        mergeFiles_.clear();
        mergeFiles_.push_back(path_);
        // Header: the wall/monotonic clock pair sampled together is
        // the file's alignment anchor. sync_us is always 0; it stays
        // so the manna-events-v1 header keeps its field set.
        std::string header = strformat(
            "{\"schema\": \"manna-events-v1\", \"role\": \"%s\", "
            "\"pid\": %ld, \"wall_us\": %llu, \"mono_ns\": %llu, "
            "\"sync_us\": 0}\n",
            jsonEscape(role_).c_str(), static_cast<long>(::getpid()),
            static_cast<unsigned long long>(wallClockMicros()),
            static_cast<unsigned long long>(monoEpochNs_));
        std::fwrite(header.data(), 1, header.size(), file_);
        std::fflush(file_);
        return true;
    }();
    if (!complaint.empty())
        warn("%s", complaint.c_str());
    if (ok)
        detail::gEnabled.store(true, std::memory_order_relaxed);
    return ok;
}

void
EventLog::close()
{
    detail::gEnabled.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (!file_)
        return;
    flushLocked();
    // Trailer: lets the merger report drops without scanning counts.
    const std::string trailer = strformat(
        "{\"schema\": \"manna-events-v1-end\", \"written\": %llu, "
        "\"dropped\": %llu}\n",
        static_cast<unsigned long long>(written_),
        static_cast<unsigned long long>(dropped_));
    std::fwrite(trailer.data(), 1, trailer.size(), file_);
    std::fflush(file_);
    ::fsync(::fileno(file_));
    std::fclose(file_);
    file_ = nullptr;
    path_.clear();
}

void
EventLog::flush()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!file_)
        return;
    flushLocked();
    std::fflush(file_);
}

std::string
EventLog::path()
{
    std::lock_guard<std::mutex> lock(mu_);
    return path_;
}

std::uint32_t
EventLog::tidLocked()
{
    const auto id = std::this_thread::get_id();
    const auto it = tids_.find(id);
    if (it != tids_.end())
        return it->second;
    const auto tid = static_cast<std::uint32_t>(tids_.size());
    tids_.emplace(id, tid);
    return tid;
}

void
EventLog::flushLocked()
{
    for (const Record &r : buffer_) {
        std::string line = strformat(
            "{\"name\": \"%s\", \"ph\": \"%c\", \"t\": %llu, "
            "\"tid\": %u, \"id\": %llu",
            r.name, r.phase, static_cast<unsigned long long>(r.t),
            r.tid, static_cast<unsigned long long>(r.id));
        if (!r.detail.empty()) {
            line += ", \"detail\": \"";
            line += jsonEscape(r.detail);
            line += "\"";
        }
        line += "}\n";
        std::fwrite(line.data(), 1, line.size(), file_);
        ++written_;
    }
    buffer_.clear();
}

void
EventLog::emit(const char *name, char phase, std::uint64_t id,
               const std::string &detail)
{
    MANNA_ASSERT(isRegisteredEventName(name),
                 "event name '%s' is not in the kEventNames registry",
                 name);
    std::lock_guard<std::mutex> lock(mu_);
    if (!file_)
        return;
    if (written_ + buffer_.size() >= limit_) {
        ++dropped_;
        return;
    }
    Record r;
    r.name = name;
    r.phase = phase;
    r.t = monotonicNs() - monoEpochNs_;
    r.tid = tidLocked();
    r.id = id;
    r.detail = detail;
    buffer_.push_back(std::move(r));
    if (buffer_.size() >= kFlushBatch) {
        flushLocked();
        std::fflush(file_);
    }
}

std::uint64_t
EventLog::beginSpan(const char *name, const std::string &detail)
{
    if (!enabled())
        return 0;
    const std::uint64_t id =
        nextSpanId_.fetch_add(1, std::memory_order_relaxed);
    emit(name, 'B', id, detail);
    return id;
}

void
EventLog::endSpan(const char *name, std::uint64_t id,
                  const std::string &detail)
{
    if (id == 0 || !enabled())
        return;
    emit(name, 'E', id, detail);
}

void
EventLog::instant(const char *name, const std::string &detail)
{
    if (!enabled())
        return;
    emit(name, 'i', 0, detail);
}

std::uint64_t
EventLog::dropped()
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

void
EventLog::registerMergeFile(const std::string &path)
{
    if (path.empty())
        return;
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string &p : mergeFiles_)
        if (p == path)
            return;
    mergeFiles_.push_back(path);
}

std::vector<std::string>
EventLog::mergeFiles()
{
    std::lock_guard<std::mutex> lock(mu_);
    return mergeFiles_;
}

// ---------------------------------------------------------------------
// Knob parsing
// ---------------------------------------------------------------------

namespace
{

std::size_t
defaultEventsLimit()
{
    if (const char *env = std::getenv("MANNA_EVENTS_LIMIT")) {
        const auto v = parseInt(env);
        if (v && *v > 0)
            return static_cast<std::size_t>(*v);
        warn("ignoring invalid MANNA_EVENTS_LIMIT='%s'", env);
    }
    return EventLog::kDefaultLimit;
}

} // namespace

void
configureFromConfig(const Config &cfg, const std::string &role)
{
    const char *env = std::getenv("MANNA_EVENTS");
    const std::string path =
        cfg.getString("events", env ? env : "");
    if (path.empty())
        return;
    const std::size_t limit = static_cast<std::size_t>(
        std::max<std::int64_t>(
            1, cfg.getInt("events_limit",
                          static_cast<std::int64_t>(
                              defaultEventsLimit()))));
    EventLog::instance().open(path, role, limit);
}

// ---------------------------------------------------------------------
// Parsing manna-events-v1 files back
// ---------------------------------------------------------------------

namespace
{

/** Extract the raw (still-escaped) JSON string value of @p key, e.g.
 * key "\"name\": \"". Returns false when absent or unterminated. */
bool
extractRawString(const std::string &line, const char *key,
                 std::string &out)
{
    const auto pos = line.find(key);
    if (pos == std::string::npos)
        return false;
    std::size_t i = pos + std::strlen(key);
    std::string value;
    while (i < line.size()) {
        const char c = line[i];
        if (c == '"') {
            out = std::move(value);
            return true;
        }
        if (c == '\\') {
            if (i + 1 >= line.size())
                return false;
            value += c;
            value += line[i + 1];
            i += 2;
            continue;
        }
        value += c;
        ++i;
    }
    return false;
}

bool
extractU64(const std::string &line, const char *key,
           std::uint64_t &out)
{
    const auto pos = line.find(key);
    if (pos == std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    const char *start = line.c_str() + pos + std::strlen(key);
    const unsigned long long v = std::strtoull(start, &end, 10);
    if (end == start || errno != 0)
        return false;
    out = static_cast<std::uint64_t>(v);
    return true;
}

} // namespace

ParsedEventFile
parseEventFile(const std::string &path)
{
    ParsedEventFile out;
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return out;
    std::string line;
    char buf[4096];
    bool sawHeader = false;
    auto handleLine = [&](const std::string &l) {
        const std::string t = trim(l);
        if (t.empty())
            return;
        if (t.find("\"schema\"") != std::string::npos) {
            if (t.find("manna-events-v1-end") != std::string::npos) {
                extractU64(t, "\"dropped\": ", out.dropped);
                return;
            }
            if (t.find("manna-events-v1") == std::string::npos) {
                ++out.skippedLines;
                return;
            }
            std::uint64_t pid = 0;
            if (!extractRawString(t, "\"role\": \"", out.role) ||
                !extractU64(t, "\"wall_us\": ", out.wallUs) ||
                !extractU64(t, "\"mono_ns\": ", out.monoNs)) {
                ++out.skippedLines;
                return;
            }
            if (extractU64(t, "\"pid\": ", pid))
                out.pid = static_cast<long>(pid);
            sawHeader = true;
            return;
        }
        ParsedEvent ev;
        std::string phase;
        std::uint64_t tid = 0;
        if (!extractRawString(t, "\"name\": \"", ev.name) ||
            !extractRawString(t, "\"ph\": \"", phase) ||
            phase.size() != 1 ||
            !extractU64(t, "\"t\": ", ev.t) ||
            !extractU64(t, "\"tid\": ", tid) ||
            !extractU64(t, "\"id\": ", ev.id)) {
            ++out.skippedLines; // torn write or foreign line
            return;
        }
        ev.phase = phase[0];
        ev.tid = static_cast<std::uint32_t>(tid);
        extractRawString(t, "\"detail\": \"", ev.detail);
        out.events.push_back(std::move(ev));
    };
    while (std::fgets(buf, sizeof(buf), f)) {
        line += buf;
        if (line.empty() || line.back() != '\n') {
            if (!std::feof(f))
                continue; // long line: keep accumulating
        }
        handleLine(line);
        line.clear();
    }
    if (!line.empty())
        handleLine(line); // unterminated tail (torn final write)
    std::fclose(f);
    out.ok = sawHeader;
    return out;
}

} // namespace manna::events
