/**
 * @file
 * The benchmark's workloads and the job bodies that run them.
 *
 * A workload is a list of simulation jobs built from a seed. The timed
 * untraced sweeps run each job through SweepRunner::runIsolated with
 * runUntraced as the body, next to goldenJobMs on the same episode.
 * Other untraced sweeps of an all-NTM workload run as
 * harness::SweepJobs through SweepRunner::runChecked, the path every
 * bench/ binary takes. The traced run drives every job phase by phase
 * (runJob) with a span around each layer call.
 */

#ifndef PERFBENCH_JOBS_HH
#define PERFBENCH_JOBS_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/cancel.hh"
#include "harness/sweep.hh"
#include "mann/dnc.hh"
#include "spans.hh"
#include "workloads/benchmarks.hh"
#include "workloads/tasks.hh"

namespace perfbench
{

using manna::tensor::FVec;

/** One simulation job of a workload. */
struct JobSpec
{
    std::string shape;              ///< Table-2 name or "dnc<N>"
    bool dnc = false;
    /** NTM: the Table-2 benchmark. DNC: the task whose generator
     * supplies the inputs (its inputDim matches dncConfig). */
    manna::workloads::Benchmark benchmark;
    manna::mann::DncConfig dncConfig; ///< meaningful iff dnc
    manna::arch::MannaConfig arch;
    std::size_t steps = 1;
    std::uint64_t seed = 1;
    manna::sim::Fidelity fidelity = manna::sim::Fidelity::Cycle;

    /** Counter-reference key: "<shape>/t<tiles>/s<steps>/<fidelity>".
     * Simulated counters do not depend on the seed. */
    std::string key() const;

    manna::harness::SweepJob sweepJob() const;

    /** Bytes of memory state one step must touch, one pass per head
     * operation (README.md, sim.replay_vs_stream_floor.max). */
    double bytesTouchedPerStep() const;
};

/** A named set of jobs with its worker count. */
struct Workload
{
    const char *name;
    std::size_t workers;
    std::vector<JobSpec> (*makeJobs)(std::uint64_t seed);
};

const std::vector<Workload> &workloadTable();

/** nullptr if @p name is not a workload. */
const Workload *findWorkload(const std::string &name);

/** Space-separated workload names, for error messages. */
std::string workloadNames();

/** Every shape any workload runs, NTM shapes first. */
const std::vector<std::string> &allShapes();

/** The job's inputs: the same generator, seed and trimming as
 * harness::runCompiled. */
manna::workloads::Episode episodeFor(const JobSpec &job);

/** What a traced job keeps for the golden comparison. */
struct JobRecord
{
    std::vector<FVec> inputs;
    std::vector<FVec> outputs;
    std::vector<std::vector<FVec>> reads; ///< read vectors per step
};

/**
 * Run one job phase by phase: compile (cached for NTM, as runChecked
 * does), episode, chip construction, every step, report. With @p rec
 * each call gets a span tagged @p jobId; with @p keep the inputs and
 * chip outputs are copied out for golden().
 */
manna::harness::MannaResult runJob(const JobSpec &job,
                                   const manna::CancelToken &cancel,
                                   SpanRecorder *rec, long jobId,
                                   JobRecord *keep);

/** A job without spans: runChecked's body (compileCached, then
 * harness::runCompiled) for NTM, runJob for DNC. */
manna::harness::MannaResult runUntraced(const JobSpec &job,
                                        const manna::CancelToken &cancel);

/** Span name of step @p t ("sim.cycle_step", "sim.record_step" or
 * "sim.replay_step"). */
const char *stepPhase(manna::sim::Fidelity fidelity, std::size_t t);

/** Largest absolute deviation between the chip's outputs and read
 * vectors and the golden model's on the same inputs. Golden
 * construction and steps get spans; the comparison is outside them. */
float golden(const JobSpec &job, const JobRecord &kept, SpanRecorder *rec,
             long jobId);

/** Host ms to run the job's episode on the golden model (mann::Ntm or
 * mann::Dnc), construction included: the functional floor the chip's
 * job time is compared against. */
double goldenJobMs(const JobSpec &job);

/** Bound of the repository's chip-vs-golden tests
 * (tests/test_sim_chip.cc, tests/test_dnc_chip.cc). */
inline constexpr float kGoldenBound = 1e-3f;

/** The counters a job's report must reproduce exactly. */
struct Counters
{
    std::uint64_t cycles = 0;
    double energyPj = 0.0;
    std::uint64_t statsDigest = 0;

    bool operator==(const Counters &) const = default;
};

Counters countersOf(const manna::sim::RunReport &report);

using Reference = std::map<std::string, Counters>;

/** Parse a reference file; nullopt (with @p error set) when it is
 * missing or malformed. */
std::optional<Reference> loadReference(const std::string &path,
                                       std::string &error);

bool writeReference(const std::string &path, const Reference &ref);

} // namespace perfbench

#endif // PERFBENCH_JOBS_HH
