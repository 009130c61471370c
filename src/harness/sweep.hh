/**
 * @file
 * Parallel, fault-isolated sweep runner. Every figure/table in the
 * paper is a sweep over independent (benchmark x config x steps x
 * seed) simulation points; the points share no mutable state, so —
 * like gem5-family infrastructure — we parallelize at the job level
 * while keeping each individual simulation deterministic and
 * single-threaded.
 *
 * Determinism contract: results are returned in submission order and
 * each job's outcome depends only on its inputs, so a run with N
 * worker threads is byte-identical to a run with 1 (which in turn
 * matches the historical strictly-serial harness). Worker threads
 * never touch stdout/stderr; deferred diagnostics (compile warnings)
 * are replayed in submission order on the calling thread. Retries and
 * checkpoint/resume preserve the contract: a retried job re-runs the
 * same pure function, and a journal-restored result is bit-identical
 * to the one originally computed.
 *
 * Fault isolation (see docs/ROBUSTNESS.md): every job resolves to a
 * JobOutcome instead of killing the process. Exceptions are caught at
 * the worker boundary; failed jobs are retried with capped
 * exponential backoff (deterministic input errors — ConfigError /
 * AssemblyError — are not retried); a watchdog thread cancels jobs
 * that exceed a wall-clock budget through the simulator's cooperative
 * CancelToken; completed outcomes can be journaled to an append-only
 * file and skipped on resume after a crash.
 *
 * Jobs run on the process's one in-process pool, the shared-FIFO
 * WorkerPool of harness/worker_pool.hh — no external dependencies.
 */

#ifndef MANNA_HARNESS_SWEEP_HH
#define MANNA_HARNESS_SWEEP_HH

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/cancel.hh"
#include "common/error.hh"
#include "common/stat_registry.hh"
#include "harness/experiment.hh"
#include "harness/worker_pool.hh"

namespace manna
{
class Config;
}

namespace manna::harness
{

/**
 * Integer environment knob: the value of @p name when it parses as an
 * integer >= @p min, otherwise @p fallback. A set but invalid value
 * warns "ignoring invalid NAME='...'" before falling back.
 */
std::size_t envCount(const char *name, std::size_t fallback,
                     std::size_t min = 0);

/**
 * Worker count to use when none is requested explicitly: the
 * MANNA_JOBS environment variable if set and valid, otherwise the
 * hardware concurrency (at least 1).
 */
std::size_t defaultJobs();

/** Per-job retry budget when none is requested explicitly: the
 * MANNA_RETRIES environment variable if set and valid, otherwise 0
 * (every job gets exactly one attempt). */
std::size_t defaultRetries();

/** Per-job watchdog budget in seconds: the MANNA_TIMEOUT environment
 * variable if set and valid, otherwise 0 (watchdog disabled). */
double defaultTimeoutSeconds();

/** Progress-line interval in seconds: the MANNA_PROGRESS environment
 * variable if set and valid, otherwise 0 (progress reporting off). */
double defaultProgressSeconds();

/** Sweep stats.json output path: the MANNA_STATS environment variable
 * if set, otherwise "" (stats output off). */
std::string defaultStatsPath();

/** Compile-cache capacity in entries: the MANNA_CACHE_ENTRIES
 * environment variable if set and valid, otherwise 0 (unbounded). */
std::size_t defaultCacheEntries();

/** Metrics time-series output path: the MANNA_METRICS environment
 * variable if set, otherwise "" (sampling off). */
std::string defaultMetricsPath();

/** Metrics sampling interval in seconds: the MANNA_METRICS_INTERVAL
 * environment variable if set and valid, otherwise 1.0. */
double defaultMetricsIntervalSeconds();

/** One independent simulation point of a sweep. */
struct SweepJob
{
    workloads::Benchmark benchmark;
    arch::MannaConfig config;
    std::size_t steps = 1;
    std::uint64_t seed = 1;
    /** Execution fidelity (sim/fidelity.hh). Fast runs change the
     * report's timing provenance, so they fingerprint (and journal)
     * separately from cycle runs. */
    sim::Fidelity fidelity = sim::Fidelity::Cycle;

    /**
     * Stable fingerprint over everything the job's result depends on
     * (benchmark shape + task, Manna config, steps, seed, fidelity).
     * Used as the checkpoint-journal key: a restored result is valid
     * iff the fingerprints match.
     */
    std::uint64_t fingerprint() const;

    /** Short human label for failure summaries. */
    std::string label() const;
};

/** Structured record of why a job failed. */
struct JobError
{
    ErrorKind kind = ErrorKind::Sim;
    std::string message;
    std::string job;                ///< label of the failed job
    std::uint64_t fingerprint = 0;  ///< offending config/job fingerprint

    /** "ConfigError: <message>" plus context. */
    std::string describe() const;
};

/**
 * Resolution of one sweep job: exactly one of value/error is live.
 *
 * Invariants:
 *  - ok == true  => value holds the job's MannaResult and error is
 *    the default-constructed JobError (cleared even if early
 *    attempts failed before a retry succeeded);
 *  - ok == false => error describes the final attempt's failure and
 *    value is default-constructed (never partially filled);
 *  - fromJournal == true implies ok == true, attempts == 0, and
 *    wallMs ~ 0: the result bytes came from the resume journal, not
 *    from executing the job;
 *  - attempts >= 1 for every job that actually executed, capped at
 *    1 + SweepOptions::retries.
 */
struct JobOutcome
{
    bool ok = false;
    MannaResult value; ///< meaningful iff ok
    JobError error;    ///< meaningful iff !ok
    /** Execution attempts consumed (0 when restored from a journal). */
    std::size_t attempts = 0;
    /** Wall-clock spent on this job across attempts. Diagnostic only:
     * it feeds the throughput section of stats.json and the progress
     * line, but is never rendered into sweep result tables (that
     * would break the byte-identical contract). */
    double wallMs = 0.0;
    /** True when the result was restored from a resume journal. */
    bool fromJournal = false;
};

/**
 * Periodic time-series sampling of sweep health (metrics= /
 * metrics_interval=, docs/OBSERVABILITY.md). Like progress=, the
 * output is a side file — the stdout byte-identity contract is
 * untouched.
 */
struct MetricsOptions
{
    /** JSONL series destination ("" disables). */
    std::string path = defaultMetricsPath();

    /** Seconds between samples (clamped to >= 0.05 when enabled). */
    double intervalSeconds = defaultMetricsIntervalSeconds();

    bool enabled() const { return !path.empty(); }
};

/**
 * One snapshot of sweep health for the manna-metrics-v1 series
 * (docs/FORMATS.md). Counter fields are exact reads of the live
 * counters; elapsed/rate fields are wall-clock-derived and therefore
 * not deterministic.
 */
struct MetricsSample
{
    double elapsedSeconds = 0.0;
    std::size_t jobsTotal = 0;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t restored = 0;
    std::size_t queueDepth = 0; ///< jobs not yet finished
    double jobsPerSecond = 0.0;
    std::size_t compileCacheHits = 0;
    std::size_t compileCacheMisses = 0;
    std::uint64_t journalBytes = 0;
    std::size_t rssKb = 0; ///< process resident set (0 if unknown)
};

/** This process's resident set size in KiB (Linux /proc/self/status
 * VmRSS; 0 when unreadable). */
std::size_t processRssKb();

/** The manna-metrics-v1 header line (no trailing \n):
 * {"schema": "manna-metrics-v1", "role": ..., "pid": ...,
 *  "interval_seconds": ...}. */
std::string renderMetricsHeader(const std::string &role,
                                double intervalSeconds);

/** One sample rendered as a single JSON object line (no trailing
 * \n). Field values are exactly the sample's — deterministic given a
 * fixed sample, which the observability tests rely on. */
std::string renderMetricsSample(const MetricsSample &sample);

/**
 * Background sampling thread: calls the provider every interval,
 * appending one manna-metrics-v1 line per sample, plus a final
 * sample at destruction so short sweeps still record one. The
 * provider runs on the sampler thread and must be thread-safe
 * (typically reads of atomics). Writes go through a plain FILE*
 * with per-line flush — a killed process keeps every complete line.
 */
class MetricsSampler
{
  public:
    using Provider = std::function<MetricsSample()>;

    /** No-op (spawns nothing) when !opts.enabled() or the file cannot
     * be created (warned). */
    MetricsSampler(const MetricsOptions &opts, const std::string &role,
                   Provider provider);
    ~MetricsSampler();

    MetricsSampler(const MetricsSampler &) = delete;
    MetricsSampler &operator=(const MetricsSampler &) = delete;

  private:
    void loop();
    void sampleOnce();

    Provider provider_;
    double interval_ = 0.0;
    std::FILE *file_ = nullptr;
    std::thread thread_;
    std::mutex mu_;
    std::condition_variable wake_;
    bool stop_ = false;
};

/** Knobs of the fault-isolation layer. */
struct SweepOptions
{
    /** Extra attempts after the first failure (ConfigError /
     * AssemblyError never retry: same input, same result). */
    std::size_t retries = defaultRetries();

    /** Capped exponential backoff between attempts:
     * min(backoffCapMs, backoffBaseMs << (attempt-1)). */
    std::uint64_t backoffBaseMs = 5;
    std::uint64_t backoffCapMs = 250;

    /** Per-job wall-clock budget; a job past it is cancelled through
     * its CancelToken and fails with SimError. 0 disables. */
    double timeoutSeconds = defaultTimeoutSeconds();

    /** Append completed outcomes to this journal ("" disables). */
    std::string journalPath;

    /** Skip jobs whose fingerprint already appears in one of these
     * journals: a comma-separated path list, later files winning on
     * duplicates ("" disables). Typically the same file as
     * journalPath so an interrupted sweep restarts where it left
     * off; several partial journals (e.g. one per mannad restart)
     * may be listed. */
    std::string resumeFrom;

    /** fsync the journal every this many records. */
    std::size_t journalFsyncBatch = 8;

    /**
     * Emit a progress line to *stderr* every this many seconds while
     * the sweep runs (jobs done, jobs/s, ETA, retries, failures).
     * 0 disables. stderr only and off by default, so the stdout
     * byte-identity contract is untouched.
     */
    double progressSeconds = defaultProgressSeconds();

    /** Write the machine-readable sweep summary (stats.json) to this
     * path when the sweep completes ("" disables). */
    std::string statsPath = defaultStatsPath();

    /** Cap the process-wide compile cache at this many entries
     * (least-recently-used models are evicted past it). 0 leaves the
     * cache unbounded. */
    std::size_t cacheEntries = defaultCacheEntries();

    /**
     * Simulation-service endpoint (server= / MANNA_SERVER; see
     * docs/SERVICE.md). Non-empty routes runChecked() through a
     * running mannad at this address ("unix:PATH" or
     * "tcp:HOST:PORT") instead of simulating in-process; results,
     * stdout, and the deterministic stats sections stay
     * byte-identical. "" (default) runs in-process.
     */
    std::string server;

    /** Periodic health-sample series (metrics= / metrics_interval=;
     * docs/OBSERVABILITY.md). Off by default. */
    MetricsOptions metrics;

    /**
     * Install the SIGTERM/SIGINT graceful-shutdown handlers for this
     * sweep (docs/ROBUSTNESS.md): on a signal, queued jobs are
     * abandoned, running jobs are cancelled through their
     * CancelTokens, and the journal is flushed+fsync'd — so the
     * interrupted sweep resumes byte-identically via resume=. Off for
     * embedders that own their signal disposition.
     */
    bool handleSignals = true;
};

/** Submission-ordered outcomes of a fault-isolated sweep. */
struct SweepReport
{
    std::vector<JobOutcome> outcomes;

    /** Jobs the watchdog cancelled for exceeding their wall-clock
     * budget (counted per cancelled attempt's token, so a job whose
     * retry also timed out counts twice). */
    std::size_t watchdogCancellations = 0;

    /** Corrupt/torn journal records skipped while loading resume=
     * journals (reported as "journal.corrupt_records" in stats.json;
     * the affected jobs re-ran, so results stay bit-exact). */
    std::size_t journalCorruptRecords = 0;

    /** Wall-clock of the whole sweep in seconds (diagnostic only). */
    double wallSeconds = 0.0;

    /** Worker threads the sweep ran with. */
    std::size_t workers = 1;

    std::size_t failures() const;
    bool allOk() const { return failures() == 0; }

    /**
     * Deterministic failure summary: one line per failed job, in
     * submission order, with the structured error context. Empty
     * string when everything succeeded.
     */
    std::string failureSummary() const;

    /**
     * Sum of the per-job stat registries of every successful outcome,
     * accumulated in submission order — deterministic and identical
     * for jobs=1 and jobs=N.
     */
    StatRegistry aggregateStats() const;
};

/** Parse the robustness + observability + service knobs every
 * sweep-based bench accepts: retries=, timeout=, journal=, resume=,
 * progress=, stats=, cache_entries=, server=, the fault-injection knobs
 * faults=/fault_seed= (armed process-wide as a side effect — see
 * docs/ROBUSTNESS.md), the tracing/metrics knobs
 * events=/events_limit=/metrics=/metrics_interval= (events= opens the
 * process-wide event log, a process-wide side effect; see
 * docs/OBSERVABILITY.md). */
SweepOptions sweepOptionsFromConfig(const Config &cfg);

/** Parse the fidelity= knob ("cycle"|"fast"); when absent, fall back
 * to the MANNA_FIDELITY environment variable, then to cycle. An
 * unrecognized value is fatal. */
sim::Fidelity fidelityFromConfig(const Config &cfg);

/**
 * Render the machine-readable sweep summary written to
 * SweepOptions::statsPath. One JSON object with sections:
 *  - "schema": format tag ("manna-sweep-stats-v1");
 *  - "jobs": total/ok/failed/from_journal/attempts/
 *    watchdog_cancelled/journal.corrupt_records counts
 *    (deterministic);
 *  - "counters": the aggregated per-job stat registries, in
 *    submission order — bit-identical between jobs=1 and jobs=N;
 *  - "throughput": wall-clock, jobs/s, per-job wall-time spread
 *    (NOT deterministic — wall-clock measurements);
 *  - "process": process-wide compile-cache hit/miss counters (NOT
 *    deterministic across different process histories).
 */
std::string renderSweepStats(const SweepReport &report);

/** Print the failure summary (stdout, deterministic) if any job
 * failed; returns the process exit code (1 on failures, else 0). */
int finishSweep(const SweepReport &report);

/**
 * Executes sweep jobs across a fixed worker pool, returning results
 * in deterministic submission order. One sweep at a time per runner;
 * the pool threads persist across runAll()/map() calls.
 */
class SweepRunner
{
  public:
    /** @p jobs == 0 selects defaultJobs(). 1 is fully serial (no
     * worker threads are spawned at all). */
    explicit SweepRunner(std::size_t jobs = 0);

    /** Number of concurrent jobs in use (>= 1). */
    std::size_t jobs() const { return jobs_; }

    /**
     * Run every job; result i corresponds to jobs[i]. Compilation
     * goes through the process-wide compile cache; compile warnings
     * are replayed in submission order after the sweep completes.
     * Any job failure is fatal() with the full submission-order
     * summary — use runChecked() to handle failures gracefully.
     */
    std::vector<MannaResult> runAll(const std::vector<SweepJob> &jobs);

    /**
     * Fault-isolated variant of runAll(): every job resolves to a
     * JobOutcome (never kills the process), honoring the retry /
     * watchdog / journal knobs in @p opts.
     */
    SweepReport runChecked(const std::vector<SweepJob> &jobs,
                           const SweepOptions &opts = SweepOptions{});

    /**
     * A job body for runIsolated(): compute the result for point
     * @p index, polling @p cancel cooperatively if long-running.
     * Thrown exceptions are captured as the job's outcome.
     */
    using IsolatedFn =
        std::function<MannaResult(std::size_t index,
                                  const CancelToken &cancel)>;

    /**
     * Generic fault-isolation driver underneath runChecked(),
     * exposed for jobs that are not plain SweepJobs (and for tests
     * that inject failures). @p labels / @p fingerprints may be empty
     * or must have @p count entries; without fingerprints the journal
     * knobs are ignored.
     */
    SweepReport runIsolated(std::size_t count, const IsolatedFn &fn,
                            const std::vector<std::string> &labels,
                            const std::vector<std::uint64_t> &fingerprints,
                            const SweepOptions &opts = SweepOptions{});

    /**
     * Generic ordered parallel map: evaluate fn(0..count-1) on the
     * pool and return the results indexed by input. @p fn must be
     * safe to call concurrently from multiple threads, must not
     * throw (use runIsolated for fallible work), and must not
     * write to stdout/stderr (that would break the byte-identical
     * parallel-output contract).
     */
    template <typename Fn>
    auto map(std::size_t count, Fn &&fn)
        -> std::vector<decltype(fn(std::size_t{0}))>
    {
        using Result = decltype(fn(std::size_t{0}));
        std::vector<Result> results(count);
        if (!pool_ || count <= 1) {
            for (std::size_t i = 0; i < count; ++i)
                results[i] = fn(i);
            return results;
        }
        for (std::size_t i = 0; i < count; ++i)
            pool_->submit([&results, &fn, i] { results[i] = fn(i); });
        pool_->drain();
        return results;
    }

  private:
    std::size_t jobs_;
    std::unique_ptr<WorkerPool> pool_; ///< null when jobs_ == 1
};

} // namespace manna::harness

#endif // MANNA_HARNESS_SWEEP_HH
