#include "sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include <unistd.h>

#include "common/config.hh"
#include "common/event_log.hh"
#include "common/fault.hh"
#include "common/fileio.hh"
#include "common/hash.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/shutdown.hh"
#include "common/strutil.hh"
#include "compiler/compile_cache.hh"
#include "harness/client.hh"
#include "harness/journal.hh"

namespace manna::harness
{

namespace
{

/** envCount() for a duration: the value of @p name when it parses as
 * a number >= 0 (> 0 when @p positive), else @p fallback with a
 * warning. */
double
envSeconds(const char *name, double fallback, bool positive)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(env, &end);
    if (end != env && *end == '\0' && (positive ? v > 0.0 : v >= 0.0))
        return v;
    warn("ignoring invalid %s='%s'", name, env);
    return fallback;
}

} // namespace

std::size_t
envCount(const char *name, std::size_t fallback, std::size_t min)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    const auto v = parseInt(env);
    if (v && *v >= 0 && static_cast<std::size_t>(*v) >= min)
        return static_cast<std::size_t>(*v);
    warn("ignoring invalid %s='%s'", name, env);
    return fallback;
}

std::size_t
defaultJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return envCount("MANNA_JOBS", hw > 0 ? hw : 1, 1);
}

std::size_t
defaultRetries()
{
    return envCount("MANNA_RETRIES", 0);
}

double
defaultTimeoutSeconds()
{
    return envSeconds("MANNA_TIMEOUT", 0.0, false);
}

double
defaultProgressSeconds()
{
    return envSeconds("MANNA_PROGRESS", 0.0, false);
}

std::string
defaultStatsPath()
{
    if (const char *env = std::getenv("MANNA_STATS"))
        return env;
    return "";
}

std::size_t
defaultCacheEntries()
{
    return envCount("MANNA_CACHE_ENTRIES", 0);
}

std::string
defaultMetricsPath()
{
    if (const char *env = std::getenv("MANNA_METRICS"))
        return env;
    return "";
}

double
defaultMetricsIntervalSeconds()
{
    return envSeconds("MANNA_METRICS_INTERVAL", 1.0, true);
}

// ---------------------------------------------------------------------
// SweepJob
// ---------------------------------------------------------------------

std::uint64_t
SweepJob::fingerprint() const
{
    // The episode generator depends on the task kind and (via the RNG
    // stream) the step count and seed; the simulator on the compiled
    // model, i.e. the MANN + arch fingerprints.
    Fnv1a h;
    h.u64(benchmark.config.fingerprint());
    h.u64(config.fingerprint());
    h.u64(static_cast<std::uint64_t>(steps));
    h.u64(seed);
    h.u64(static_cast<std::uint64_t>(benchmark.task));
    h.bytes(benchmark.name.data(), benchmark.name.size());
    h.u64(static_cast<std::uint64_t>(fidelity));
    return h.value();
}

std::string
SweepJob::label() const
{
    std::string out =
        strformat("%s tiles=%zu steps=%zu seed=%llu",
                  benchmark.name.c_str(), config.numTiles, steps,
                  static_cast<unsigned long long>(seed));
    if (fidelity == sim::Fidelity::Fast)
        out += " fidelity=fast";
    return out;
}

// ---------------------------------------------------------------------
// JobError / SweepReport
// ---------------------------------------------------------------------

std::string
JobError::describe() const
{
    std::string out =
        strformat("%s: %s", toString(kind), message.c_str());
    if (!job.empty() || fingerprint != 0) {
        out += " [";
        if (!job.empty()) {
            out += "job=";
            out += job;
            if (fingerprint != 0)
                out += " ";
        }
        if (fingerprint != 0)
            out += strformat("fp=0x%016llx",
                             static_cast<unsigned long long>(
                                 fingerprint));
        out += "]";
    }
    return out;
}

std::size_t
SweepReport::failures() const
{
    return static_cast<std::size_t>(std::count_if(
        outcomes.begin(), outcomes.end(), [](const JobOutcome &o) {
            return !o.ok;
        }));
}

StatRegistry
SweepReport::aggregateStats() const
{
    StatRegistry agg;
    for (const JobOutcome &o : outcomes)
        if (o.ok)
            agg.merge(o.value.report.stats);
    return agg;
}

std::string
renderSweepStats(const SweepReport &report)
{
    std::size_t ok = 0, failed = 0, restored = 0, attempts = 0;
    std::size_t executed = 0;
    double wallSum = 0.0, wallMin = 0.0, wallMax = 0.0;
    for (const JobOutcome &o : report.outcomes) {
        (o.ok ? ok : failed) += 1;
        if (o.fromJournal)
            ++restored;
        attempts += o.attempts;
        if (o.attempts > 0) {
            wallSum += o.wallMs;
            wallMin = executed == 0 ? o.wallMs
                                    : std::min(wallMin, o.wallMs);
            wallMax = std::max(wallMax, o.wallMs);
            ++executed;
        }
    }
    const double jobsPerSecond =
        report.wallSeconds > 0.0
            ? static_cast<double>(ok + failed) / report.wallSeconds
            : 0.0;

    std::string out = "{\n";
    out += "  \"schema\": \"manna-sweep-stats-v1\",\n";
    out += strformat("  \"jobs\": {\"total\": %zu, \"ok\": %zu, "
                     "\"failed\": %zu, \"from_journal\": %zu, "
                     "\"attempts\": %zu, \"watchdog_cancelled\": %zu, "
                     "\"journal.corrupt_records\": %zu},\n",
                     ok + failed, ok, failed, restored, attempts,
                     report.watchdogCancellations,
                     report.journalCorruptRecords);
    out += "  \"counters\": " + report.aggregateStats().toJson(4) +
           ",\n";
    out += strformat(
        "  \"throughput\": {\"wall_seconds\": %s, "
        "\"jobs_per_second\": %s, \"workers\": %zu, "
        "\"job_wall_ms\": {\"mean\": %s, \"min\": %s, \"max\": %s}},\n",
        jsonNumber(report.wallSeconds).c_str(),
        jsonNumber(jobsPerSecond).c_str(), report.workers,
        jsonNumber(executed > 0 ? wallSum /
                                      static_cast<double>(executed)
                                : 0.0)
            .c_str(),
        jsonNumber(wallMin).c_str(), jsonNumber(wallMax).c_str());
    out += strformat("  \"process\": {\"compile_cache_hits\": %zu, "
                     "\"compile_cache_misses\": %zu, "
                     "\"compile_cache_evictions\": %zu}\n",
                     compiler::compileCacheHits(),
                     compiler::compileCacheMisses(),
                     compiler::compileCacheEvictions());
    out += "}\n";
    return out;
}

std::string
SweepReport::failureSummary() const
{
    const std::size_t failed = failures();
    if (failed == 0)
        return "";
    std::string out =
        strformat("%zu of %zu sweep job%s failed:", failed,
                  outcomes.size(), failed == 1 ? "" : "s");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const JobOutcome &o = outcomes[i];
        if (o.ok)
            continue;
        out += strformat("\n  #%zu %s (attempts=%zu)", i,
                         o.error.describe().c_str(), o.attempts);
    }
    return out;
}

// ---------------------------------------------------------------------
// Options / reporting helpers
// ---------------------------------------------------------------------

SweepOptions
sweepOptionsFromConfig(const Config &cfg)
{
    SweepOptions opts;
    opts.retries = static_cast<std::size_t>(std::max<std::int64_t>(
        0, cfg.getInt("retries",
                      static_cast<std::int64_t>(opts.retries))));
    opts.timeoutSeconds =
        std::max(0.0, cfg.getDouble("timeout", opts.timeoutSeconds));
    opts.journalPath = cfg.getString("journal", "");
    opts.resumeFrom = cfg.getString("resume", "");
    // resume= alone implies continuing to checkpoint into the same
    // journal, so a twice-interrupted sweep still resumes correctly.
    // A comma-separated resume list is read-only: there is no single
    // "same file" to keep appending to.
    if (opts.journalPath.empty() && !opts.resumeFrom.empty() &&
        opts.resumeFrom.find(',') == std::string::npos)
        opts.journalPath = opts.resumeFrom;
    opts.progressSeconds = std::max(
        0.0, cfg.getDouble("progress", opts.progressSeconds));
    opts.statsPath = cfg.getString("stats", opts.statsPath);
    opts.server =
        cfg.getString("server", client::defaultServerAddress());
    opts.cacheEntries = static_cast<std::size_t>(
        std::max<std::int64_t>(
            0, cfg.getInt("cache_entries",
                          static_cast<std::int64_t>(
                              opts.cacheEntries))));
    // Arm the fault-injection sites (faults= / MANNA_FAULTS) here so
    // every sweep bench gets the knobs for free. Process-wide state,
    // like the compile cache.
    fault::configureFromConfig(cfg);
    opts.metrics.path = cfg.getString("metrics", opts.metrics.path);
    opts.metrics.intervalSeconds =
        cfg.getDouble("metrics_interval",
                      opts.metrics.intervalSeconds);
    if (opts.metrics.intervalSeconds <= 0.0) {
        warn("metrics_interval= must be positive; using 1s");
        opts.metrics.intervalSeconds = 1.0;
    }
    // Harness tracing (docs/OBSERVABILITY.md): arm the event log when
    // events= asks for one. Process-wide side effect, like fault
    // injection above.
    events::configureFromConfig(cfg, "main");
    return opts;
}

sim::Fidelity
fidelityFromConfig(const Config &cfg)
{
    const std::string text = cfg.getString("fidelity", "");
    if (text.empty())
        return sim::defaultFidelity(); // MANNA_FIDELITY, else cycle
    const auto parsed = sim::parseFidelity(text);
    if (!parsed)
        fatal("fidelity=%s not recognized (want cycle|fast)",
              text.c_str());
    return *parsed;
}

int
finishSweep(const SweepReport &report)
{
    if (report.allOk())
        return 0;
    std::printf("%s\n", report.failureSummary().c_str());
    return 1;
}

// ---------------------------------------------------------------------
// Metrics time series (metrics= / metrics_interval=)
// ---------------------------------------------------------------------

std::size_t
processRssKb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    std::size_t rss = 0;
    char line[256];
    while (std::fgets(line, sizeof(line), f)) {
        unsigned long long kb = 0;
        if (std::sscanf(line, "VmRSS: %llu kB", &kb) == 1) {
            rss = static_cast<std::size_t>(kb);
            break;
        }
    }
    std::fclose(f);
    return rss;
}

std::string
renderMetricsHeader(const std::string &role, double intervalSeconds)
{
    return strformat("{\"schema\": \"manna-metrics-v1\", "
                     "\"role\": \"%s\", \"pid\": %ld, "
                     "\"interval_seconds\": %s}",
                     jsonEscape(role).c_str(),
                     static_cast<long>(::getpid()),
                     jsonNumber(intervalSeconds).c_str());
}

std::string
renderMetricsSample(const MetricsSample &s)
{
    return strformat(
        "{\"elapsed_seconds\": %s, \"jobs_total\": %zu, "
        "\"done\": %zu, \"failed\": %zu, \"restored\": %zu, "
        "\"queue_depth\": %zu, \"jobs_per_second\": %s, "
        "\"compile_cache_hits\": %zu, \"compile_cache_misses\": %zu, "
        "\"journal_bytes\": %llu, "
        "\"rss_kb\": %zu}",
        jsonNumber(s.elapsedSeconds).c_str(), s.jobsTotal, s.done,
        s.failed, s.restored, s.queueDepth,
        jsonNumber(s.jobsPerSecond).c_str(), s.compileCacheHits,
        s.compileCacheMisses,
        static_cast<unsigned long long>(s.journalBytes), s.rssKb);
}

MetricsSampler::MetricsSampler(const MetricsOptions &opts,
                               const std::string &role,
                               Provider provider)
    : provider_(std::move(provider))
{
    if (!opts.enabled() || !provider_)
        return;
    file_ = std::fopen(opts.path.c_str(), "w");
    if (!file_) {
        warn("cannot create metrics file '%s' (%s); sampling "
             "disabled",
             opts.path.c_str(), std::strerror(errno));
        return;
    }
    interval_ = std::max(0.05, opts.intervalSeconds);
    std::fprintf(file_, "%s\n",
                 renderMetricsHeader(role, interval_).c_str());
    std::fflush(file_);
    thread_ = std::thread([this] { loop(); });
}

MetricsSampler::~MetricsSampler()
{
    if (thread_.joinable()) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        wake_.notify_all();
        thread_.join();
        sampleOnce(); // final sample: short sweeps still record one
    }
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

void
MetricsSampler::loop()
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
        wake_.wait_for(lock,
                       std::chrono::duration<double>(interval_));
        if (stop_)
            break;
        lock.unlock();
        sampleOnce();
        lock.lock();
    }
}

void
MetricsSampler::sampleOnce()
{
    if (!file_)
        return;
    const MetricsSample s = provider_();
    std::fprintf(file_, "%s\n", renderMetricsSample(s).c_str());
    // Per-line flush: a killed process keeps every complete sample.
    std::fflush(file_);
}

// ---------------------------------------------------------------------
// Watchdog: cancels jobs that exceed their wall-clock budget.
// ---------------------------------------------------------------------

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * One scanner thread over the registered {token, deadline} slots.
 * Doubles as the graceful-shutdown cancel fan-out: when
 * @p watchShutdown is set and SIGTERM/SIGINT arrives, every
 * registered token is fired so running simulations unwind through
 * the normal cancellation path. Only instantiated when a timeout or
 * signal handling is configured, so bare sweeps spawn no extra
 * thread.
 */
class Watchdog
{
  public:
    Watchdog(double timeoutSeconds, bool watchShutdown)
        : timeout_(timeoutSeconds), watchShutdown_(watchShutdown)
    {
        if (tracking())
            scanner_ = std::thread([this] { loop(); });
    }

    ~Watchdog()
    {
        if (!scanner_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        wake_.notify_all();
        scanner_.join();
    }

    bool enabled() const { return timeout_ > 0.0; }
    bool tracking() const { return enabled() || watchShutdown_; }

    /** Attempts cancelled for exceeding the budget so far (shutdown
     * cancellations are not counted here). */
    std::size_t
    cancellations()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return cancellations_;
    }

    void
    add(CancelToken *token)
    {
        if (!tracking())
            return;
        const auto deadline =
            enabled()
                ? Clock::now() +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(timeout_))
                : Clock::time_point::max();
        {
            std::lock_guard<std::mutex> lock(mu_);
            slots_.push_back({token, deadline});
        }
        wake_.notify_all();
    }

    void
    remove(CancelToken *token)
    {
        if (!tracking())
            return;
        std::lock_guard<std::mutex> lock(mu_);
        slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                    [token](const Slot &s) {
                                        return s.token == token;
                                    }),
                     slots_.end());
    }

  private:
    struct Slot
    {
        CancelToken *token;
        Clock::time_point deadline;
    };

    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
            wake_.wait_for(lock, std::chrono::milliseconds(5));
            const bool drain =
                watchShutdown_ && shutdownRequested();
            if (drain && !drainReported_) {
                drainReported_ = true;
                events::instant("sweep.interrupted",
                                strformat("signal=%d",
                                          shutdownSignal()));
            }
            const auto now = Clock::now();
            for (const Slot &s : slots_) {
                if ((drain || now >= s.deadline) &&
                    !s.token->cancelled()) {
                    s.token->cancel();
                    if (!drain || now >= s.deadline) {
                        ++cancellations_;
                        events::instant("job.cancelled",
                                        "cause=timeout");
                    }
                }
            }
        }
    }

    const double timeout_;
    const bool watchShutdown_;
    std::thread scanner_;
    std::mutex mu_;
    std::condition_variable wake_;
    std::vector<Slot> slots_;
    std::size_t cancellations_ = 0;
    bool stop_ = false;
    bool drainReported_ = false;
};

/** RAII registration of a job attempt's token with the watchdog. */
class WatchdogGuard
{
  public:
    WatchdogGuard(Watchdog &dog, CancelToken &token)
        : dog_(dog), token_(token)
    {
        dog_.add(&token_);
    }

    ~WatchdogGuard() { dog_.remove(&token_); }

    WatchdogGuard(const WatchdogGuard &) = delete;
    WatchdogGuard &operator=(const WatchdogGuard &) = delete;

  private:
    Watchdog &dog_;
    CancelToken &token_;
};

/** Shared counters the progress reporter samples. Workers only ever
 * increment; relaxed ordering is enough for a throughput display. */
struct ProgressCounters
{
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> failed{0};
    std::atomic<std::size_t> restored{0};
    std::atomic<std::size_t> attempts{0};
};

/**
 * Periodic throughput dashboard: one line to stderr every interval
 * while the sweep runs, plus a final line at completion. A dedicated
 * thread keeps worker threads free of any I/O (the stdout
 * byte-identity contract; stderr is opt-in via progress=/
 * MANNA_PROGRESS).
 */
class ProgressReporter
{
  public:
    ProgressReporter(double intervalSeconds, std::size_t total,
                     const ProgressCounters &counters)
        : interval_(intervalSeconds), total_(total),
          counters_(counters), start_(Clock::now())
    {
        if (interval_ > 0.0 && total_ > 0)
            thread_ = std::thread([this] { loop(); });
    }

    ~ProgressReporter()
    {
        if (!thread_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        wake_.notify_all();
        thread_.join();
        emit(); // final line so short sweeps still report once
    }

    ProgressReporter(const ProgressReporter &) = delete;
    ProgressReporter &operator=(const ProgressReporter &) = delete;

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
            wake_.wait_for(lock,
                           std::chrono::duration<double>(interval_));
            if (stop_)
                break;
            emit();
        }
    }

    void
    emit() const
    {
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start_)
                .count();
        const std::size_t done = counters_.done.load();
        const std::size_t failed = counters_.failed.load();
        const std::size_t restored = counters_.restored.load();
        const std::size_t attempts = counters_.attempts.load();
        const std::size_t retries = attempts > (done - restored)
                                        ? attempts - (done - restored)
                                        : 0;
        const double rate =
            elapsed > 0.0 ? static_cast<double>(done) / elapsed : 0.0;
        const double eta =
            rate > 0.0
                ? static_cast<double>(total_ - done) / rate
                : 0.0;
        std::fprintf(stderr,
                     "sweep: %zu/%zu jobs  %.1f jobs/s  ETA %.0fs  "
                     "(restored %zu, retries %zu, failures %zu)\n",
                     done, total_, rate, eta, restored, retries,
                     failed);
        std::fflush(stderr);
    }

    const double interval_;
    const std::size_t total_;
    const ProgressCounters &counters_;
    const Clock::time_point start_;
    std::thread thread_;
    std::mutex mu_;
    std::condition_variable wake_;
    bool stop_ = false;
};

std::uint64_t
backoffMs(const SweepOptions &opts, std::size_t failedAttempts)
{
    const std::size_t shift = std::min<std::size_t>(
        failedAttempts > 0 ? failedAttempts - 1 : 0, 16);
    return std::min<std::uint64_t>(opts.backoffCapMs,
                                   opts.backoffBaseMs << shift);
}

} // namespace

// ---------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------

SweepRunner::SweepRunner(std::size_t jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
    if (jobs_ > 1)
        pool_ = std::make_unique<WorkerPool>(jobs_);
}

SweepReport
SweepRunner::runIsolated(std::size_t count, const IsolatedFn &fn,
                         const std::vector<std::string> &labels,
                         const std::vector<std::uint64_t> &fingerprints,
                         const SweepOptions &opts)
{
    MANNA_ASSERT(labels.empty() || labels.size() == count,
                 "labels must be empty or one per job");
    MANNA_ASSERT(fingerprints.empty() ||
                     fingerprints.size() == count,
                 "fingerprints must be empty or one per job");

    const bool journaling =
        !fingerprints.empty() &&
        (!opts.journalPath.empty() || !opts.resumeFrom.empty());
    if (fingerprints.empty() &&
        (!opts.journalPath.empty() || !opts.resumeFrom.empty()))
        warn("sweep journal requested but jobs carry no fingerprints; "
             "running without checkpointing");

    compiler::setCompileCacheCapacity(opts.cacheEntries);
    if (opts.handleSignals)
        installShutdownHandlers();

    JournalLoadStats journalStats;
    std::map<std::uint64_t, MannaResult> restored;
    if (journaling && !opts.resumeFrom.empty()) {
        events::Span span("journal.load", "src=" + opts.resumeFrom);
        restored = loadJournals(splitJournalList(opts.resumeFrom),
                                &journalStats);
        span.end(strformat("records=%zu corrupt=%zu",
                           restored.size(),
                           journalStats.corruptRecords));
    }
    if (journalStats.corruptRecords > 0)
        warn("resume journals contained %zu corrupt record(s); "
             "the affected jobs will re-run",
             journalStats.corruptRecords);

    std::unique_ptr<SweepJournal> journal;
    if (journaling && !opts.journalPath.empty())
        journal = std::make_unique<SweepJournal>(
            opts.journalPath, opts.journalFsyncBatch);
    // One warning for the whole sweep when journaling degrades
    // mid-run (full disk, I/O error): results stay correct, only
    // checkpointing stops.
    std::atomic<bool> journalBroken{false};

    Watchdog watchdog(opts.timeoutSeconds, opts.handleSignals);
    ProgressCounters progress;
    const auto sweepStart = Clock::now();
    events::Span sweepSpan(
        "sweep.run",
        strformat("jobs=%zu workers=%zu", count, jobs_));

    auto runOne = [&](std::size_t i) -> JobOutcome {
        JobOutcome out;
        const std::uint64_t fp =
            fingerprints.empty() ? 0 : fingerprints[i];
        if (!labels.empty())
            out.error.job = labels[i];
        out.error.fingerprint = fp;

        if (journaling) {
            const auto it = restored.find(fp);
            if (it != restored.end()) {
                out.ok = true;
                out.value = it->second;
                out.fromJournal = true;
                out.attempts = 0;
                progress.restored.fetch_add(1);
                progress.done.fetch_add(1);
                events::instant(
                    "job.restored",
                    strformat("index=%zu fp=0x%016llx", i,
                              static_cast<unsigned long long>(fp)));
                return out;
            }
        }

        // Jobs not yet started when the shutdown signal arrives are
        // abandoned (they resume from the journal); jobs already
        // running are cancelled by the watchdog's shutdown drain.
        if (opts.handleSignals && shutdownRequested()) {
            out.ok = false;
            out.attempts = 0;
            out.error.kind = ErrorKind::Sim;
            out.error.message = strformat(
                "sweep interrupted by signal %d before this job "
                "started",
                shutdownSignal());
            progress.failed.fetch_add(1);
            progress.done.fetch_add(1);
            return out;
        }

        const auto start = Clock::now();
        events::Span jobSpan(
            "job.run",
            labels.empty() ? strformat("index=%zu", i) : labels[i]);
        const std::size_t maxAttempts = 1 + opts.retries;
        for (std::size_t attempt = 1; attempt <= maxAttempts;
             ++attempt) {
            out.attempts = attempt;
            CancelToken token;
            WatchdogGuard guard(watchdog, token);
            events::Span attemptSpan(
                "job.attempt", strformat("attempt=%zu", attempt));
            try {
                out.value = fn(i, token);
                out.ok = true;
                attemptSpan.end("ok=1");
                break;
            } catch (const Error &e) {
                out.error.kind = e.kind();
                out.error.message = e.what();
                if (e.context().fingerprint != 0)
                    out.error.fingerprint = e.context().fingerprint;
            } catch (const std::exception &e) {
                out.error.kind = ErrorKind::Sim;
                out.error.message = e.what();
            } catch (...) {
                out.error.kind = ErrorKind::Sim;
                out.error.message = "unknown exception";
            }
            attemptSpan.end(strformat("ok=0 err=%s",
                                      toString(out.error.kind)));
            // Deterministic input errors re-fail identically: don't
            // burn the retry budget on them.
            if (out.error.kind == ErrorKind::Config ||
                out.error.kind == ErrorKind::Assembly)
                break;
            // A shutdown-cancelled attempt must not retry either.
            if (opts.handleSignals && shutdownRequested())
                break;
            if (attempt < maxAttempts) {
                const std::uint64_t delay = backoffMs(opts, attempt);
                events::instant(
                    "job.retry",
                    strformat("attempt=%zu backoff_ms=%llu", attempt,
                              static_cast<unsigned long long>(
                                  delay)));
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(delay));
            }
        }
        out.wallMs = std::chrono::duration<double, std::milli>(
                         Clock::now() - start)
                         .count();
        jobSpan.end(out.ok ? "ok=1" : "ok=0");

        if (out.ok) {
            out.error = JobError{};
            if (journal) {
                events::Span appendSpan("journal.append");
                try {
                    journal->append(fp, out.value);
                } catch (const Error &e) {
                    appendSpan.end("ok=0");
                    if (!journalBroken.exchange(true))
                        warn("%s", e.what());
                }
            }
        }
        progress.attempts.fetch_add(out.attempts);
        if (!out.ok)
            progress.failed.fetch_add(1);
        progress.done.fetch_add(1);
        return out;
    };

    SweepReport report;
    {
        MetricsSampler metrics(
            opts.metrics, "main",
            [&progress, &journal, count, sweepStart] {
                MetricsSample s;
                s.elapsedSeconds =
                    std::chrono::duration<double>(Clock::now() -
                                                  sweepStart)
                        .count();
                s.jobsTotal = count;
                s.done = progress.done.load();
                s.failed = progress.failed.load();
                s.restored = progress.restored.load();
                s.queueDepth =
                    count > s.done ? count - s.done : 0;
                s.jobsPerSecond =
                    s.elapsedSeconds > 0.0
                        ? static_cast<double>(s.done) /
                              s.elapsedSeconds
                        : 0.0;
                s.compileCacheHits = compiler::compileCacheHits();
                s.compileCacheMisses =
                    compiler::compileCacheMisses();
                s.journalBytes =
                    journal ? journal->bytesWritten() : 0;
                s.rssKb = processRssKb();
                return s;
            });
        ProgressReporter reporter(opts.progressSeconds, count,
                                  progress);
        report.outcomes = map(count, runOne);
    }
    if (journal) {
        try {
            journal->sync();
        } catch (const Error &e) {
            if (!journalBroken.exchange(true))
                warn("%s", e.what());
        }
    }
    report.watchdogCancellations = watchdog.cancellations();
    report.journalCorruptRecords = journalStats.corruptRecords;
    report.wallSeconds = std::chrono::duration<double>(Clock::now() -
                                                       sweepStart)
                             .count();
    report.workers = jobs_;
    sweepSpan.end(strformat("failed=%zu", report.failures()));

    if (opts.handleSignals && shutdownRequested()) {
        const std::size_t unfinished = report.failures();
        warn("sweep interrupted by signal %d: %zu of %zu job(s) "
             "unfinished%s",
             shutdownSignal(), unfinished, count,
             journal && journal->ok()
                 ? "; journal flushed, resume= continues the sweep"
                 : "");
    }

    if (!opts.statsPath.empty() &&
        !writeFileAtomic(opts.statsPath, renderSweepStats(report)))
        warn("cannot write sweep stats to '%s'",
             opts.statsPath.c_str());
    return report;
}

SweepReport
SweepRunner::runChecked(const std::vector<SweepJob> &jobs,
                        const SweepOptions &opts)
{
    // Service execution (docs/SERVICE.md): route the whole sweep
    // through a running mannad.
    if (!opts.server.empty())
        return client::runServerSweep(*this, jobs, opts);

    std::vector<std::string> labels;
    std::vector<std::uint64_t> fingerprints;
    labels.reserve(jobs.size());
    fingerprints.reserve(jobs.size());
    for (const SweepJob &job : jobs) {
        labels.push_back(job.label());
        fingerprints.push_back(job.fingerprint());
    }

    // Distinct slots per job; written concurrently, read serially
    // afterwards for the submission-order warning replay.
    std::vector<std::shared_ptr<const compiler::CompiledModel>> models(
        jobs.size());

    SweepReport report = runIsolated(
        jobs.size(),
        [&jobs, &models](std::size_t i, const CancelToken &cancel) {
            const SweepJob &job = jobs[i];
            models[i] = compiler::compileCached(job.benchmark.config,
                                                job.config);
            return runCompiled(job.benchmark, *models[i], job.steps,
                               job.seed, &cancel, nullptr,
                               job.fidelity);
        },
        labels, fingerprints, opts);

    // Replay deferred diagnostics in submission order: worker threads
    // never write to the log streams themselves.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        if (!models[i])
            continue; // failed before compile, or journal-restored
        for (const auto &w : models[i]->warnings)
            debugLog("%s: %s", jobs[i].benchmark.name.c_str(),
                     w.c_str());
    }
    return report;
}

std::vector<MannaResult>
SweepRunner::runAll(const std::vector<SweepJob> &jobs)
{
    SweepReport report = runChecked(jobs, SweepOptions{});
    if (!report.allOk())
        fatal("%s", report.failureSummary().c_str());

    std::vector<MannaResult> results;
    results.reserve(report.outcomes.size());
    for (JobOutcome &o : report.outcomes)
        results.push_back(std::move(o.value));
    return results;
}

} // namespace manna::harness
