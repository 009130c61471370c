/**
 * @file
 * Observability knobs shared by the bench binaries: Chrome-trace
 * export, cycle-accounting profiles, perf-regression snapshots, and a
 * described counter dump. A bench that accepts `trace=` or `profile=`
 * re-runs one representative sweep point with the extra
 * instrumentation attached and writes the artifact next to its
 * tabular output; the re-run is separate from the sweep so the
 * sweep's stdout and stats stay byte-identical with and without it.
 *
 * Knobs (argv key=value, with MANNA_* environment fallbacks):
 *  - trace=<path> / MANNA_TRACE: write the Chrome trace JSON here
 *    ("" disables, the default);
 *  - trace_limit=<n> / MANNA_TRACE_LIMIT: trace-entry capacity
 *    (default 65536); entries past it are dropped and counted in the
 *    trace's `otherData.droppedEntries`;
 *  - profile=<path> / MANNA_PROFILE: write the per-tile x per-opcode
 *    x per-stall-reason cycle-accounting profile JSON here;
 *  - profile_top=<n> / MANNA_PROFILE_TOP: bottleneck entries in the
 *    profile's summary (default 5);
 *  - bench_json=<path> / MANNA_BENCH_JSON: write the schema-versioned
 *    perf-regression snapshot (BENCH_*.json) of the whole sweep here;
 *  - --dump-stats: pretty-print the aggregated sweep counters, with
 *    descriptions, to stdout after the table.
 *
 * See docs/OBSERVABILITY.md for worked examples.
 */

#ifndef MANNA_HARNESS_OBSERVE_HH
#define MANNA_HARNESS_OBSERVE_HH

#include <string>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace manna
{
class Config;
}

namespace manna::harness
{

/** Chrome-trace export knobs (see file comment). */
struct TraceOptions
{
    std::string path;              ///< "" = tracing off
    std::size_t maxEntries = 65536;

    bool enabled() const { return !path.empty(); }
};

/** Parse trace= / trace_limit= (MANNA_TRACE / MANNA_TRACE_LIMIT). */
TraceOptions traceOptionsFromConfig(const Config &cfg);

/**
 * Simulate one benchmark point with a TraceLogger attached and write
 * the Chrome trace-event JSON to @p opts.path. No-op (returning
 * false) when tracing is disabled; warns and returns false when the
 * file cannot be written. The traced run goes through the compile
 * cache but its result is discarded — tracing never perturbs sweep
 * output.
 */
bool writeChromeTrace(const TraceOptions &opts,
                      const workloads::Benchmark &benchmark,
                      const arch::MannaConfig &config,
                      std::size_t steps, std::uint64_t seed = 1);

/** Cycle-accounting profile export knobs (see file comment). */
struct ProfileOptions
{
    std::string path;     ///< "" = profiling off
    std::size_t topN = 5; ///< bottleneck entries in the summary

    bool enabled() const { return !path.empty(); }
};

/** Parse profile= / profile_top= (MANNA_PROFILE /
 * MANNA_PROFILE_TOP). */
ProfileOptions profileOptionsFromConfig(const Config &cfg);

/**
 * Simulate one benchmark point and render its cycle-accounting
 * profile as JSON (schema "manna-profile-v1"):
 *  - "chip": tiles/steps/cycles/seconds/clock;
 *  - "dominant_stall": the stall reason with the most cycles summed
 *    across all tile engines (frontend issue excluded);
 *  - "bottlenecks": the top-N (engine, stall-reason) pairs by cycles
 *    across tiles, with their share of total engine cycles;
 *  - "roofline": achieved vs peak FLOP rate and differentiable-memory
 *    bandwidth, arithmetic intensity, and the resulting bound;
 *  - "counters": the full per-tile/per-opcode/per-stall registry.
 * Deterministic: no wall-clock enters the document, so the bytes are
 * identical for any sweep worker count.
 */
std::string renderProfileJson(const workloads::Benchmark &benchmark,
                              const arch::MannaConfig &config,
                              std::size_t steps, std::uint64_t seed,
                              std::size_t topN);

/** Simulate one representative point and write renderProfileJson()
 * to @p opts.path. No-op (returning false) when profiling is
 * disabled; warns and returns false when the file cannot be
 * written. */
bool writeProfile(const ProfileOptions &opts,
                  const workloads::Benchmark &benchmark,
                  const arch::MannaConfig &config, std::size_t steps,
                  std::uint64_t seed = 1);

/** Perf-regression snapshot knobs (see file comment). */
struct BenchJsonOptions
{
    std::string path; ///< "" = snapshot off

    bool enabled() const { return !path.empty(); }
};

/** Parse bench_json= (MANNA_BENCH_JSON). */
BenchJsonOptions benchJsonOptionsFromConfig(const Config &cfg);

/**
 * Render the perf-regression snapshot of a completed sweep (schema
 * "manna-bench-v1"): the job tallies and the aggregated counter
 * registry (both deterministic — identical for any worker count) plus
 * an informational "wall" section that scripts/bench_compare.py
 * ignores when diffing against a committed baseline.
 */
std::string renderBenchJson(const std::string &benchName,
                            const SweepReport &report);

/** Write renderBenchJson() to @p opts.path. No-op (returning false)
 * when disabled; warns and returns false on write failure. */
bool writeBenchJson(const BenchJsonOptions &opts,
                    const std::string &benchName,
                    const SweepReport &report);

/** If --dump-stats was given, pretty-print @p stats (sorted, aligned,
 * with descriptions) to stdout and return true. */
bool dumpStatsIfRequested(const Config &cfg, const StatRegistry &stats);

/** Merged harness-trace export knobs: harness_trace=<path> /
 * MANNA_HARNESS_TRACE renders every manna-events-v1 file of the run
 * (the process's own events= log plus the event file a server=
 * daemon advertised) into one clock-aligned Chrome trace. */
struct HarnessTraceOptions
{
    std::string path; ///< "" = off

    bool enabled() const { return !path.empty(); }
};

/** Parse harness_trace= (MANNA_HARNESS_TRACE). */
HarnessTraceOptions harnessTraceOptionsFromConfig(const Config &cfg);

/**
 * Render @p paths (manna-events-v1 files) as one merged Chrome
 * trace-event JSON document: one trace pid per file (in
 * registration order), tids straight from the event records, B/E
 * pairs matched by span id into complete ("X") events, instants as
 * "i" events. Timestamps are wall-clock-aligned across files via
 * each header's wall/monotonic pair, zeroed at the earliest file. Unreadable files are skipped with a warning; spans
 * left open by a killed process are closed at the file's last
 * timestamp and tagged "truncated".
 */
std::string
renderHarnessTrace(const std::vector<std::string> &paths);

/**
 * Close the process-wide event log (flushing the trailer), merge
 * every registered event file, and write the rendered Chrome trace
 * to @p opts.path. Returns false (no-op) when disabled or no event
 * log was armed; warns and returns false on write failure.
 */
bool writeHarnessTrace(const HarnessTraceOptions &opts);

/**
 * One-call wiring of the sweep-wide observability outputs every
 * sweep bench shares: bench_json= snapshot, --dump-stats counter
 * dump (both fed from @p report's aggregated registry), and the
 * merged harness_trace= Chrome trace of the events= span log.
 */
void applySweepObservability(const Config &cfg,
                             const std::string &benchName,
                             const SweepReport &report);

} // namespace manna::harness

#endif // MANNA_HARNESS_OBSERVE_HH
