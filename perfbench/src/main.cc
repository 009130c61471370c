/**
 * @file
 * Host-time benchmark driver for the Manna simulator (see README.md).
 *
 *   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
 *             [--reference PATH] [--trace-out PATH]
 *   perfbench --record-reference PATH [--seed N]
 *
 * Untraced (--trace 0): repeat the workload's sweep for S seconds, each
 * job followed or preceded by the golden model on the same episode, and
 * report the end-to-end metrics. Traced (--trace 1): alternate untraced
 * and traced sweeps, check the chips against the golden models, probe
 * the kernel floor, and report the per-layer metrics. Every job's
 * simulated counters are checked against the reference either way.
 * The last stdout line is one JSON object with the keys correct,
 * attempted, failed and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "compiler/compile_cache.hh"
#include "compiler/compiler.hh"
#include "compiler/dnc_codegen.hh"
#include "jobs.hh"
#include "probe.hh"
#include "spans.hh"
#include "tensor/dispatch.hh"

using namespace manna;
using namespace perfbench;

namespace
{

constexpr std::size_t kSetupsPerSweep = 20;
constexpr std::size_t kMinSweeps = 3;

/** Share of --seconds the traced run spends on sweep pairs; the rest
 * goes to the golden check and the floor probe. */
constexpr double kPairBudget = 0.6;

const char *kUsage =
    "usage: perfbench --workload NAME --seed N [--seconds S] "
    "[--trace 0|1]\n"
    "                 [--reference PATH] [--trace-out PATH]\n"
    "       perfbench --record-reference PATH [--seed N]\n";

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "perfbench: %s\n%s", message.c_str(), kUsage);
    std::exit(2);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    bool haveSeed = false;
    int seconds = 10;
    bool trace = false;
    std::string reference = "perfbench/reference.tsv";
    std::string traceOut;
    std::string recordPath;
};

template <typename Int>
bool
parseWhole(const std::string &text, Int &out)
{
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return !text.empty() && ec == std::errc() && ptr == end;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usageError("missing value after " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            if (!parseWhole(value, a.seed))
                usageError("bad seed '" + value +
                           "': expected a whole number 0.." +
                           std::to_string(UINT64_MAX));
            a.haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseWhole(value, a.seconds) || a.seconds < 1 ||
                a.seconds > 120)
                usageError("bad --seconds '" + value +
                           "': expected a whole number 1..120");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usageError("bad --trace '" + value + "': expected 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--reference") {
            a.reference = value;
        } else if (flag == "--trace-out") {
            a.traceOut = value;
        } else if (flag == "--record-reference") {
            a.recordPath = value;
        } else {
            usageError("unknown option '" + flag + "'");
        }
    }
    if (!a.recordPath.empty())
        return a;
    if (a.workload.empty())
        usageError("--workload is required; valid workloads: " +
                   workloadNames());
    if (!findWorkload(a.workload))
        usageError("unknown workload '" + a.workload +
                   "'; valid workloads: " + workloadNames());
    if (!a.haveSeed)
        usageError("--seed is required");
    return a;
}

double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Linear-interpolated quantile (q in [0, 1]); 0 for no samples. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

double
sum(const std::vector<double> &v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMiB()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Sweep knobs pinned so the environment cannot change the run. */
harness::SweepOptions
sweepOptions()
{
    harness::SweepOptions opts;
    opts.retries = 0;
    opts.timeoutSeconds = 0.0;
    opts.progressSeconds = 0.0;
    opts.statsPath.clear();
    opts.cacheEntries = 0;
    opts.server.clear();
    opts.metrics.path.clear();
    opts.handleSignals = false;
    return opts;
}

/** Everything a run needs before its first job is dispatched. */
struct Setup
{
    std::vector<JobSpec> jobs;
    std::vector<harness::SweepJob> sweepJobs; ///< the NTM jobs
    std::vector<std::string> labels;          ///< JobSpec::key() each
    Reference reference;
    std::unique_ptr<harness::SweepRunner> runner;

    Setup(const Workload &w, std::uint64_t seed)
        : jobs(w.makeJobs(seed)),
          runner(std::make_unique<harness::SweepRunner>(w.workers))
    {
        for (const JobSpec &job : jobs) {
            if (!job.dnc)
                sweepJobs.push_back(job.sweepJob());
            labels.push_back(job.key());
        }
    }

    bool allNtm() const { return sweepJobs.size() == jobs.size(); }
};

Setup
makeSetup(const Args &args)
{
    manna::tensor::simd::kernels(); // SIMD dispatch selection
    Setup s(*findWorkload(args.workload), args.seed);
    std::string error;
    auto ref = loadReference(args.reference, error);
    if (!ref) {
        std::fprintf(stderr, "perfbench: %s\n", error.c_str());
        std::exit(3);
    }
    std::string missing;
    for (const std::string &key : s.labels)
        if (!ref->count(key))
            missing += " " + key;
    if (!missing.empty()) {
        std::string have;
        for (const auto &entry : *ref)
            have += " " + entry.first;
        std::fprintf(stderr,
                     "perfbench: counter reference '%s' has no entry for"
                     "%s\nentries present:%s\nregenerate with "
                     "--record-reference\n",
                     args.reference.c_str(), missing.c_str(),
                     have.c_str());
        std::exit(3);
    }
    s.reference = std::move(*ref);
    return s;
}

/** Host ms of each job on the simulator and on the golden model, run
 * back to back on one worker. */
struct Paired
{
    std::vector<double> simMs;
    std::vector<double> goldenMs;
};

/** Run every job once. Untraced all-NTM sweeps take runChecked, the
 * path of the bench/ binaries; the others take runIsolated, traced
 * ones with the phase-by-phase body. With @p paired, each job also
 * runs its episode on the golden model, before the simulator for odd
 * jobs and after it for even ones, so that neither side always finds
 * the caches the other left. */
harness::SweepReport
execute(Setup &s, SpanRecorder *rec, long idBase,
        std::vector<JobRecord> *keep, Paired *paired = nullptr)
{
    const harness::SweepOptions opts = sweepOptions();
    if (!rec && !paired && s.allNtm())
        return s.runner->runChecked(s.sweepJobs, opts);
    return s.runner->runIsolated(
        s.jobs.size(),
        [&](std::size_t i, const CancelToken &cancel) {
            const JobSpec &job = s.jobs[i];
            if (paired) {
                const bool goldenFirst = i % 2 == 1;
                if (goldenFirst)
                    paired->goldenMs[i] = goldenJobMs(job);
                const auto start = Clock::now();
                harness::MannaResult result = runUntraced(job, cancel);
                paired->simMs[i] = secondsSince(start) * 1e3;
                if (!goldenFirst)
                    paired->goldenMs[i] = goldenJobMs(job);
                return result;
            }
            if (!rec)
                return runUntraced(job, cancel);
            return runJob(job, cancel, rec, idBase + static_cast<long>(i),
                          keep ? &(*keep)[i] : nullptr);
        },
        s.labels, {}, opts);
}

/** One sweep's host-time measurements and check results. */
struct SweepResult
{
    double wallS = 0.0;
    std::vector<double> jobMs;
    std::size_t failed = 0;
    std::size_t cacheHits = 0;
    std::size_t cacheLookups = 0;
};

/** Run the sweep once from a cold compile cache and check every
 * outcome against the counter reference. */
SweepResult
runSweep(Setup &s, SpanRecorder *rec, long idBase,
         std::vector<JobRecord> *keep, Paired *paired = nullptr)
{
    if (paired) {
        paired->simMs.assign(s.jobs.size(), 0.0);
        paired->goldenMs.assign(s.jobs.size(), 0.0);
    }
    compiler::clearCompileCache();
    SweepResult r;
    const auto start = Clock::now();
    const harness::SweepReport report =
        execute(s, rec, idBase, keep, paired);
    r.wallS = secondsSince(start);
    r.cacheHits = compiler::compileCacheHits();
    r.cacheLookups = r.cacheHits + compiler::compileCacheMisses();

    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const harness::JobOutcome &o = report.outcomes[i];
        r.jobMs.push_back(o.wallMs);
        const std::string &key = s.labels[i];
        if (!o.ok) {
            ++r.failed;
            std::fprintf(stderr, "perfbench: job %s failed: %s\n",
                         key.c_str(), o.error.describe().c_str());
            continue;
        }
        const Counters got = countersOf(o.value.report);
        if (got != s.reference.at(key)) {
            ++r.failed;
            std::fprintf(stderr,
                         "perfbench: job %s counters differ from the "
                         "reference: cycles %llu energy_pj %.17g digest "
                         "%016llx\n",
                         key.c_str(),
                         static_cast<unsigned long long>(got.cycles),
                         got.energyPj,
                         static_cast<unsigned long long>(got.statsDigest));
        }
    }
    return r;
}

std::size_t
stepsPerSweep(const Setup &s)
{
    std::size_t steps = 0;
    for (const JobSpec &job : s.jobs)
        steps += job.steps;
    return steps;
}

/** Ordered name -> (value, unit) list, printed as text and JSON. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const char *unit,
             const std::string &note = "")
    {
        rows_.push_back({name, std::isfinite(value) ? value : 0.0, unit,
                         note});
    }

    void print(std::size_t attempted, std::size_t failed) const
    {
        for (const Row &r : rows_)
            std::printf("%-36s %16.6f %-8s %s\n", r.name.c_str(),
                        r.value, r.unit, r.note.c_str());
        std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": "
                    "%zu, \"metrics\": {",
                    failed == 0 ? "true" : "false", attempted, failed);
        for (std::size_t i = 0; i < rows_.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i == 0 ? "" : ", ", rows_[i].name.c_str(),
                        rows_[i].value, rows_[i].unit);
        std::printf("}}\n");
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
        std::string note;
    };
    std::vector<Row> rows_;
};

/** Jobs attempted and failed over every sweep of a run. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;

    void add(const SweepResult &r)
    {
        attempted += r.jobMs.size();
        failed += r.failed;
    }
};

/** Median of each job shape's samples; sample i is of job
 * s.labels[i % s.labels.size()], over repeated sweeps. */
std::map<std::string, double>
medianByShape(const Setup &s, const std::vector<double> &jobMs)
{
    std::map<std::string, std::vector<double>> byKey;
    for (std::size_t i = 0; i < jobMs.size(); ++i)
        byKey[s.labels[i % s.labels.size()]].push_back(jobMs[i]);
    std::map<std::string, double> out;
    for (const auto &[key, samples] : byKey)
        out[key] = median(samples);
    return out;
}

/**
 * Untraced run: the end-to-end metrics. The host's speed drifts by up
 * to 1.5x within a minute with what its other tenants run, so the
 * timed metrics are ratios: each job's simulator time over the golden
 * model's (mann::Ntm/Dnc) on the same episode, run back to back on the
 * same worker. One warm-up sweep, not counted, pays the page faults of
 * a fresh heap. Sweeps then repeat while the next one is expected to
 * end within --seconds, at least kMinSweeps of them. Before every
 * sweep the run sets up again kSetupsPerSweep times and keeps the
 * last, so the set-up samples spread over the whole run;
 * @p firstSetupS is the one timed from process start.
 */
void
measureEndToEnd(Setup s, const Args &args, double firstSetupS)
{
    const auto start = Clock::now();
    std::vector<double> setupS{firstSetupS};
    Tally tally;
    Paired sweep, all;
    tally.add(runSweep(s, nullptr, 0, nullptr, &sweep));
    std::size_t sweeps = 0;
    double wallS = 0.0, lastWallS = 0.0;
    do {
        for (std::size_t k = 0; k < kSetupsPerSweep; ++k) {
            const auto setupStart = Clock::now();
            Setup next = makeSetup(args);
            setupS.push_back(secondsSince(setupStart));
            s = std::move(next);
        }
        const SweepResult r = runSweep(s, nullptr, 0, nullptr, &sweep);
        tally.add(r);
        ++sweeps;
        wallS += lastWallS = r.wallS;
        all.simMs.insert(all.simMs.end(), sweep.simMs.begin(),
                         sweep.simMs.end());
        all.goldenMs.insert(all.goldenMs.end(), sweep.goldenMs.begin(),
                            sweep.goldenMs.end());
    } while (sweeps < kMinSweeps ||
             secondsSince(start) + lastWallS <= args.seconds);
    const std::size_t n = s.jobs.size();

    // The median job shape: each shape's median over its episodes and
    // sweeps, then the median over the shapes. The shapes fall into
    // groups far apart; a median over single jobs would sit on the
    // fastest or slowest job of one group.
    std::vector<double> slowdown;
    for (std::size_t i = 0; i < all.simMs.size(); ++i)
        slowdown.push_back(ratio(all.simMs[i], all.goldenMs[i]));
    const auto simByShape = medianByShape(s, all.simMs);
    const auto goldenByShape = medianByShape(s, all.goldenMs);
    const auto slowdownByShape = medianByShape(s, slowdown);
    std::vector<double> shapeMs, shapeSlowdown;
    std::string shapeLine =
        "# job shape: simulator ms / golden ms = slowdown, medians:";
    for (const auto &[key, x] : slowdownByShape) {
        shapeMs.push_back(simByShape.at(key));
        shapeSlowdown.push_back(x);
        char buf[200];
        std::snprintf(buf, sizeof buf, " %s %.3f/%.3f=%.3f", key.c_str(),
                      simByShape.at(key), goldenByShape.at(key), x);
        shapeLine += buf;
    }

    const double simTotal = sum(all.simMs), goldenTotal = sum(all.goldenMs);
    Metrics m;
    m.add("setup_s", median(setupS), "s",
          "median of " + std::to_string(setupS.size()) + " set-ups");
    m.add("sweep_slowdown", ratio(simTotal, goldenTotal), "x",
          "summed simulator / golden job time over " +
              std::to_string(sweeps) + " sweeps of " + std::to_string(n) +
              " jobs");
    m.add("job_slowdown.p50", median(shapeSlowdown), "x",
          "median over " + std::to_string(shapeSlowdown.size()) +
              " job shapes of each shape's median over " +
              std::to_string(slowdown.size() / shapeSlowdown.size()) +
              " jobs");
    std::printf("# failed_frac %.6f (%zu of %zu jobs), workers %zu, "
                "simd %s, peak_rss_mb %.3f\n",
                ratio(static_cast<double>(tally.failed),
                      static_cast<double>(tally.attempted)),
                tally.failed, tally.attempted, s.runner->jobs(),
                manna::tensor::simd::kernels().name, peakRssMiB());
    const double perSweep = 1e-3 / static_cast<double>(sweeps);
    std::printf("# host: %zu paired sweeps in %.3f s; per sweep, simulator "
                "%.3f job-s (%zu steps), golden %.3f job-s; job_ms.p50 "
                "%.3f\n",
                sweeps, wallS, simTotal * perSweep, stepsPerSweep(s),
                goldenTotal * perSweep, median(shapeMs));
    std::printf("%s\n", shapeLine.c_str());
    m.print(tally.attempted, tally.failed);
}

/** Median compile time over the workload's distinct models, uncached. */
double
compileProbeMs(const Setup &s)
{
    std::vector<double> ms;
    std::set<std::string> seen;
    for (const JobSpec &job : s.jobs) {
        if (!seen.insert(job.shape + "/t" +
                         std::to_string(job.arch.numTiles))
                 .second)
            continue;
        const auto start = Clock::now();
        if (job.dnc)
            compiler::compileDnc(job.dncConfig, job.arch);
        else
            compiler::compile(job.benchmark.config, job.arch);
        ms.push_back(secondsSince(start) * 1e3);
    }
    return median(ms);
}

/** Time from the first worker going idle to the last result, from the
 * root spans of one traced sweep's jobs. */
double
tailIdleS(const std::vector<SpanRecord> &spans, long idBase, long idEnd)
{
    std::map<unsigned, double> lastEnd;
    for (const SpanRecord &sp : spans)
        if (sp.job >= idBase && sp.job < idEnd &&
            std::string(sp.name) == "harness.job")
            lastEnd[sp.tid] = std::max(lastEnd[sp.tid], sp.endUs);
    if (lastEnd.size() < 2)
        return 0.0;
    double first = lastEnd.begin()->second, last = first;
    for (const auto &entry : lastEnd) {
        first = std::min(first, entry.second);
        last = std::max(last, entry.second);
    }
    return (last - first) * 1e-6;
}

/** Traced run: the per-layer metrics. */
void
measureLayers(Setup &s, const Args &args)
{
    SpanRecorder rec(Clock::now());
    const long n = static_cast<long>(s.jobs.size());
    std::vector<JobRecord> kept(s.jobs.size());
    std::vector<double> plainWalls, tracedWalls, busy, tails, tracedJobMs,
        plainJobMs;
    std::size_t hits = 0, lookups = 0;
    Tally tally;

    // After one warm-up sweep (a fresh heap's page faults would bias
    // the first pair), alternate untraced and traced sweeps of the
    // same jobs; the first traced sweep keeps its outputs for the
    // golden check.
    const auto start = Clock::now();
    tally.add(runSweep(s, nullptr, 0, nullptr));
    for (long sweep = 0;; ++sweep) {
        const SweepResult plain = runSweep(s, nullptr, 0, nullptr);
        plainWalls.push_back(plain.wallS);
        plainJobMs.insert(plainJobMs.end(), plain.jobMs.begin(),
                          plain.jobMs.end());
        busy.push_back(ratio(sum(plain.jobMs) * 1e-3,
                             static_cast<double>(s.runner->jobs()) *
                                 plain.wallS));
        hits += plain.cacheHits;
        lookups += plain.cacheLookups;
        tally.add(plain);

        const SweepResult traced =
            runSweep(s, &rec, sweep * n, sweep == 0 ? &kept : nullptr);
        tracedWalls.push_back(traced.wallS);
        tracedJobMs.insert(tracedJobMs.end(), traced.jobMs.begin(),
                           traced.jobMs.end());
        tails.push_back(
            tailIdleS(rec.snapshot(), sweep * n, (sweep + 1) * n));
        tally.add(traced);
        if (secondsSince(start) + plain.wallS + traced.wallS >
            kPairBudget * args.seconds)
            break;
    }

    // Golden check of the first traced sweep, outside every sweep.
    for (std::size_t i = 0; i < s.jobs.size(); ++i) {
        if (kept[i].outputs.size() != s.jobs[i].steps)
            continue; // the job failed and is already counted
        const float dev =
            golden(s.jobs[i], kept[i], &rec, static_cast<long>(i));
        if (!(dev <= kGoldenBound)) {
            ++tally.failed;
            std::fprintf(stderr,
                         "perfbench: job %s deviates from the golden "
                         "model by %g (bound %g)\n",
                         s.labels[i].c_str(), dev, kGoldenBound);
        }
    }
    const double compileMs = compileProbeMs(s);
    const FloorProbe floor = probeFloor();

    // Span durations (ms) by name, by name and shape, and by name and
    // job; self-time totals by name.
    const std::vector<SpanRecord> spans = rec.snapshot();
    const std::vector<double> self = selfTimesUs(spans);
    std::map<std::string, std::vector<double>> ms;
    std::map<std::string, std::map<std::string, std::vector<double>>>
        byShape;
    std::map<long, std::vector<double>> cycleByJob;
    std::map<std::string, double> selfMs;
    double phaseMs = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &sp = spans[i];
        const std::string name = sp.name;
        const double d = sp.durUs() * 1e-3;
        ms[name].push_back(d);
        byShape[name][s.jobs[static_cast<std::size_t>(sp.job % n)].shape]
            .push_back(d);
        if (name == "sim.cycle_step")
            cycleByJob[sp.job % n].push_back(d);
        selfMs[name] += self[i] * 1e-3;
        if (sp.parent >= 0 && name.rfind("mann.", 0) != 0)
            phaseMs += d;
    }
    const double jobTotalMs = sum(tracedJobMs);
    const std::string base =
        "of summed job wall time, n=" +
        std::to_string(tracedJobMs.size()) + " jobs";

    // Host ns per simulated cycle of the cycle-accurate steps.
    std::vector<double> nsPerCycle;
    for (const auto &[job, cyc] : cycleByJob) {
        const std::size_t i = static_cast<std::size_t>(job);
        const double cyclesPerStep =
            static_cast<double>(s.reference.at(s.labels[i]).cycles) /
            static_cast<double>(s.jobs[i].steps);
        nsPerCycle.push_back(ratio(median(cyc) * 1e6, cyclesPerStep));
    }

    Metrics m;
    auto addQuantile = [&](const std::string &metric, const char *span,
                           double q) {
        m.add(metric, quantile(ms[span], q), "ms",
              "n=" + std::to_string(ms[span].size()));
    };
    addQuantile("sim.construct_ms.p50", "sim.construct", 0.5);
    addQuantile("sim.construct_ms.max", "sim.construct", 1.0);
    addQuantile("sim.cycle_step_ms.p50", "sim.cycle_step", 0.5);
    addQuantile("sim.cycle_step_ms.p99", "sim.cycle_step", 0.99);
    m.add("sim.cycle_ns_per_sim_cycle", median(nsPerCycle), "ns",
          "median over jobs");
    addQuantile("sim.record_step_ms.p50", "sim.record_step", 0.5);
    addQuantile("sim.replay_step_ms.p50", "sim.replay_step", 0.5);
    addQuantile("sim.replay_step_ms.p99", "sim.replay_step", 0.99);
    addQuantile("sim.report_ms.p50", "sim.report", 0.5);
    const std::pair<const char *, const char *> phases[] = {
        {"sim.construct.share", "sim.construct"},
        {"sim.cycle.share", "sim.cycle_step"},
        {"sim.record.share", "sim.record_step"},
        {"sim.replay.share", "sim.replay_step"},
        {"sim.report.share", "sim.report"},
    };
    for (const auto &[metric, span] : phases)
        m.add(metric, ratio(selfMs[span], jobTotalMs), "ratio", base);

    // Replay against the golden model and the bandwidth floor.
    double worstGolden = 0.0, worstFloor = 0.0;
    std::map<std::string, double> goldenMs;
    for (const std::string &shape : allShapes()) {
        goldenMs[shape] = median(byShape["mann.golden_step"][shape]);
        const double replay = median(byShape["sim.replay_step"][shape]);
        const double r = ratio(replay, goldenMs[shape]);
        worstGolden = std::max(worstGolden, r);
        m.add("sim.replay_vs_golden." + shape, r, "ratio",
              "replay step median / golden step median");
        for (const JobSpec &job : s.jobs)
            if (job.shape == shape && replay > 0.0)
                worstFloor = std::max(
                    worstFloor,
                    ratio(replay, job.bytesTouchedPerStep() /
                                      (floor.streamGbs * 1e6)));
    }
    m.add("sim.replay_vs_golden.max", worstGolden, "ratio");
    m.add("sim.replay_vs_stream_floor.max", worstFloor, "ratio",
          "replay step / (bytes touched per step / stream bandwidth)");

    for (const auto &[name, ns] : floor.kernelNs)
        m.add("tensor." + name + ".ns", ns, "ns",
              std::string("n=4096, ") +
                  manna::tensor::simd::kernels().name);
    m.add("tensor.dot.simd_speedup",
          ratio(floor.dotScalarNs, floor.kernelNs.at("dot")), "ratio",
          "scalar / dispatched");
    m.add("tensor.sum.simd_speedup",
          ratio(floor.sumScalarNs, floor.kernelNs.at("sum")), "ratio",
          "scalar / dispatched");
    m.add("tensor.stream_gbs", floor.streamGbs, "GB/s",
          "32 MiB memcpy, read + write bytes");

    for (const std::string &shape : allShapes())
        m.add("mann.golden_step_ms." + shape, goldenMs[shape], "ms");

    m.add("compiler.compile_ms.p50", compileMs, "ms",
          "uncached, one per distinct model");
    m.add("compiler.share", ratio(selfMs["compiler.compile"], jobTotalMs),
          "ratio", base);
    m.add("compiler.cache_hit_ratio",
          ratio(static_cast<double>(hits), static_cast<double>(lookups)),
          "ratio",
          "hits / lookups, base " + std::to_string(lookups) +
              " lookups over untraced sweeps");
    addQuantile("workloads.episode_ms.p50", "workloads.episode", 0.5);
    m.add("workloads.share",
          ratio(selfMs["workloads.episode"], jobTotalMs), "ratio", base);
    m.add("harness.share", ratio(jobTotalMs - phaseMs, jobTotalMs),
          "ratio", "job wallMs not covered by phase spans");
    m.add("harness.worker_busy_frac", median(busy), "ratio",
          "sum job wallMs / (workers x wall_s), workers " +
              std::to_string(s.runner->jobs()));
    m.add("harness.tail_idle_s", median(tails), "s");
    m.add("trace.overhead_frac",
          ratio(median(tracedWalls), median(plainWalls)) - 1.0, "ratio",
          "median of " + std::to_string(tracedWalls.size()) +
              " traced / untraced sweep pairs");

    std::vector<double> shapeMs;
    for (const auto &entry : medianByShape(s, plainJobMs))
        shapeMs.push_back(entry.second);
    const std::string untraced =
        "median of " + std::to_string(plainWalls.size()) +
        " untraced sweeps";
    m.add("host.wall_s", median(plainWalls), "s", untraced);
    m.add("host.sim_steps_per_s",
          ratio(static_cast<double>(stepsPerSweep(s)), median(plainWalls)),
          "steps/s", untraced);
    m.add("host.job_ms.p50", median(shapeMs), "ms",
          "median over job shapes of each shape's median, " + untraced);
    m.add("process.peak_rss_mb", peakRssMiB(), "MiB");

    if (!args.traceOut.empty() && !rec.writeChromeTrace(args.traceOut)) {
        std::fprintf(stderr, "perfbench: cannot write trace '%s'\n",
                     args.traceOut.c_str());
        std::exit(4);
    }
    m.print(tally.attempted, tally.failed);
}

/** Record the counter reference of every workload's jobs, refusing
 * counters that differ between seeds of one job shape. */
int
recordReference(const Args &args)
{
    Reference ref;
    for (const Workload &w : workloadTable()) {
        Setup s(w, args.seed);
        const harness::SweepReport report =
            execute(s, nullptr, 0, nullptr);
        for (std::size_t i = 0; i < s.jobs.size(); ++i) {
            const harness::JobOutcome &o = report.outcomes[i];
            if (!o.ok) {
                std::fprintf(stderr, "perfbench: job %s failed: %s\n",
                             s.labels[i].c_str(),
                             o.error.describe().c_str());
                return 1;
            }
            const Counters c = countersOf(o.value.report);
            const auto [it, inserted] = ref.emplace(s.labels[i], c);
            if (!inserted && it->second != c) {
                std::fprintf(stderr,
                             "perfbench: job %s counters depend on the "
                             "seed\n",
                             s.labels[i].c_str());
                return 1;
            }
        }
    }
    if (!writeReference(args.recordPath, ref)) {
        std::fprintf(stderr, "perfbench: cannot write '%s'\n",
                     args.recordPath.c_str());
        return 1;
    }
    std::printf("wrote %zu reference entries to %s\n", ref.size(),
                args.recordPath.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto processStart = Clock::now();
    const Args args = parseArgs(argc, argv);
    if (!args.recordPath.empty())
        return recordReference(args);

    Setup setup = makeSetup(args);
    const double setupS = secondsSince(processStart);
    if (args.trace)
        measureLayers(setup, args);
    else
        measureEndToEnd(std::move(setup), args, setupS);
    return 0;
}
