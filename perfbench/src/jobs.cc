#include "jobs.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/hash.hh"
#include "common/rng.hh"
#include "compiler/compile_cache.hh"
#include "compiler/dnc_codegen.hh"
#include "harness/experiment.hh"
#include "mann/ntm.hh"
#include "sim/chip.hh"
#include "sim/dnc_chip.hh"

namespace perfbench
{

using namespace manna;

namespace
{

constexpr std::size_t kSmallTiles[] = {1, 2, 4, 8, 16};
constexpr const char *kSmallShapes[] = {"copy", "rptcopy", "recall",
                                        "ngrams", "sort"};
constexpr std::size_t kDncRows[] = {512, 1024, 2048};

/** Steps per job: long episodes make replay the largest phase of a
 * fast job, short ones leave the per-job fixed costs in front. */
constexpr std::size_t kLongSteps = 24;
constexpr std::size_t kDncSteps = 48;
constexpr std::size_t kShortSteps = 6;
constexpr std::size_t kSmallSeeds = 3;

/** Episodes per shape in the Table-2 and DNC workloads: two give
 * each shape's median job two inputs per sweep while keeping a sweep
 * short enough that a run streams several. */
constexpr std::size_t kEpisodesPerShape = 2;

/**
 * Every workload runs on a pool of three workers (fewer on a smaller
 * machine), leaving one core to the rest of the machine. On a shared
 * host a core's speed swings by up to 1.5x for tens of seconds with
 * what its neighbours run; one worker's sweep follows one core's
 * swings, a pool's averages over several cores.
 */
std::size_t
poolWorkers()
{
    const std::size_t hw = std::thread::hardware_concurrency();
    return std::clamp<std::size_t>(hw > 1 ? hw - 1 : 1, 1, 3);
}

JobSpec
ntmJob(const workloads::Benchmark &b, std::size_t tiles,
       std::size_t steps, std::uint64_t seed, sim::Fidelity fidelity)
{
    JobSpec job;
    job.shape = b.name;
    job.benchmark = b;
    job.arch = arch::MannaConfig::withTiles(tiles);
    job.steps = steps;
    job.seed = seed;
    job.fidelity = fidelity;
    return job;
}

/** A DNC with @p rows memory locations fed by the graph-traversal
 * task's generator (the DNC's signature task family). */
JobSpec
dncJob(std::size_t rows, std::size_t steps, std::uint64_t seed)
{
    const workloads::Benchmark &stimulus =
        workloads::benchmarkByName("travers");
    JobSpec job;
    job.shape = "dnc" + std::to_string(rows);
    job.dnc = true;
    job.benchmark = stimulus;
    job.dncConfig.memN = rows;
    job.dncConfig.memM = 64;
    job.dncConfig.numReadHeads = 2;
    job.dncConfig.controllerWidth = 128;
    job.dncConfig.inputDim = stimulus.config.inputDim;
    job.dncConfig.outputDim = stimulus.config.outputDim;
    job.dncConfig.validate();
    job.arch = arch::MannaConfig::baseline16();
    job.steps = steps;
    job.seed = seed;
    job.fidelity = sim::Fidelity::Fast;
    return job;
}

std::vector<JobSpec>
table2Jobs(std::uint64_t seed, std::size_t steps, sim::Fidelity fidelity)
{
    // The suite lists the small shapes first; submitting the large
    // ones first keeps the workers' shares even to the end.
    std::vector<JobSpec> jobs;
    const auto &suite = workloads::table2Suite();
    for (auto it = suite.rbegin(); it != suite.rend(); ++it)
        for (std::size_t e = 0; e < kEpisodesPerShape; ++e)
            jobs.push_back(ntmJob(*it, 16, steps, seed + e, fidelity));
    return jobs;
}

std::vector<JobSpec>
sweepSmall(std::uint64_t seed)
{
    std::vector<JobSpec> jobs;
    for (std::size_t s = 0; s < kSmallSeeds; ++s)
        for (const char *name : kSmallShapes)
            for (std::size_t tiles : kSmallTiles)
                jobs.push_back(ntmJob(workloads::benchmarkByName(name),
                                      tiles, kShortSteps, seed + s,
                                      sim::Fidelity::Fast));
    return jobs;
}

/** The DNC shapes, largest first, then the Table-2 shapes: both run
 * long fast-mode episodes, so replay dominates. */
std::vector<JobSpec>
tab2DncFast(std::uint64_t seed)
{
    std::vector<JobSpec> jobs;
    for (auto it = std::rbegin(kDncRows); it != std::rend(kDncRows); ++it)
        for (std::size_t e = 0; e < kEpisodesPerShape; ++e)
            jobs.push_back(dncJob(*it, kDncSteps, seed + e));
    for (JobSpec &job : table2Jobs(seed, kLongSteps, sim::Fidelity::Fast))
        jobs.push_back(std::move(job));
    return jobs;
}

/** Call @p fn inside a span; its result is returned in place. */
template <typename Fn>
auto
timed(SpanRecorder *rec, const char *name, long jobId, Fn &&fn)
{
    Span span(rec, name, jobId);
    return fn();
}

/** The job after compilation: episode, chip, steps, report. */
template <typename ChipT, typename Model>
harness::MannaResult
drive(const Model &model, const JobSpec &job, const CancelToken &cancel,
      SpanRecorder *rec, long jobId, JobRecord *keep)
{
    const workloads::Episode episode = timed(
        rec, "workloads.episode", jobId, [&] { return episodeFor(job); });
    if (keep)
        keep->inputs = episode.inputs;
    ChipT chip = timed(rec, "sim.construct", jobId, [&] {
        return ChipT(model, job.seed, job.fidelity);
    });
    chip.setCancelToken(&cancel);
    for (std::size_t t = 0; t < job.steps; ++t) {
        FVec out = timed(rec, stepPhase(job.fidelity, t), jobId,
                         [&] { return chip.step(episode.inputs[t]); });
        if (keep) {
            keep->outputs.push_back(std::move(out));
            keep->reads.push_back(chip.readVectors());
        }
    }
    harness::MannaResult result;
    result.report =
        timed(rec, "sim.report", jobId, [&] { return chip.report(); });
    return result;
}

template <typename Trace>
float
deviation(const Trace &golden, const JobRecord &kept, std::size_t t)
{
    float dev = tensor::maxAbsDiff(kept.outputs[t], golden.output);
    for (std::size_t h = 0; h < golden.readVectors.size(); ++h)
        dev = std::max(dev, tensor::maxAbsDiff(kept.reads[t][h],
                                               golden.readVectors[h]));
    return dev;
}

template <typename Model>
float
goldenRun(Model &model, const JobRecord &kept, SpanRecorder *rec,
          long jobId)
{
    float worst = 0.0f;
    for (std::size_t t = 0; t < kept.inputs.size(); ++t) {
        const auto trace = timed(rec, "mann.golden_step", jobId, [&] {
            return model.step(kept.inputs[t]);
        });
        worst = std::max(worst, deviation(trace, kept, t));
    }
    return worst;
}

} // namespace

std::string
JobSpec::key() const
{
    return shape + "/t" + std::to_string(arch.numTiles) + "/s" +
           std::to_string(steps) + "/" + sim::toString(fidelity);
}

harness::SweepJob
JobSpec::sweepJob() const
{
    return {benchmark, arch, steps, seed, fidelity};
}

double
JobSpec::bytesTouchedPerStep() const
{
    if (dnc) {
        const double mem = 4.0 * static_cast<double>(dncConfig.memN *
                                                     dncConfig.memM);
        const double link = 4.0 * static_cast<double>(dncConfig.memN *
                                                      dncConfig.memN);
        const double r = static_cast<double>(dncConfig.numReadHeads);
        return mem * (2.0 * r + 3.0) + link * (2.0 + 2.0 * r);
    }
    const auto &c = benchmark.config;
    return static_cast<double>(c.memoryBytes()) *
           (2.0 * static_cast<double>(c.numReadHeads) +
            3.0 * static_cast<double>(c.numWriteHeads));
}

const std::vector<Workload> &
workloadTable()
{
    // Why each workload exists: README.md, "Workloads".
    static const std::vector<Workload> table = {
        {"tab2_dnc_fast", poolWorkers(), tab2DncFast},
        {"sweep_small", poolWorkers(), sweepSmall},
    };
    return table;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloadTable())
        if (name == w.name)
            return &w;
    return nullptr;
}

std::string
workloadNames()
{
    std::string names;
    for (const Workload &w : workloadTable())
        names += (names.empty() ? "" : " ") + std::string(w.name);
    return names;
}

const std::vector<std::string> &
allShapes()
{
    static const std::vector<std::string> shapes = [] {
        std::vector<std::string> s;
        for (const auto &b : workloads::table2Suite())
            s.push_back(b.name);
        for (std::size_t rows : kDncRows)
            s.push_back("dnc" + std::to_string(rows));
        return s;
    }();
    return shapes;
}

workloads::Episode
episodeFor(const JobSpec &job)
{
    Rng rng(job.seed ^ 0x5eedf00dull);
    workloads::Episode episode =
        workloads::generateEpisode(job.benchmark, job.steps, rng);
    while (episode.inputs.size() < job.steps)
        episode.inputs.push_back(
            FVec(job.benchmark.config.inputDim, 0.0f));
    episode.inputs.resize(job.steps);
    return episode;
}

const char *
stepPhase(sim::Fidelity fidelity, std::size_t t)
{
    if (fidelity == sim::Fidelity::Cycle ||
        t + 1 < sim::kFastCalibrationSteps)
        return "sim.cycle_step";
    if (t + 1 == sim::kFastCalibrationSteps)
        return "sim.record_step";
    return "sim.replay_step";
}

harness::MannaResult
runJob(const JobSpec &job, const CancelToken &cancel, SpanRecorder *rec,
       long jobId, JobRecord *keep)
{
    Span root(rec, "harness.job", jobId);
    if (job.dnc) {
        const compiler::CompiledDnc model =
            timed(rec, "compiler.compile", jobId, [&] {
                return compiler::compileDnc(job.dncConfig, job.arch);
            });
        return drive<sim::DncChip>(model, job, cancel, rec, jobId, keep);
    }
    const auto model = timed(rec, "compiler.compile", jobId, [&] {
        return compiler::compileCached(job.benchmark.config, job.arch);
    });
    return drive<sim::Chip>(*model, job, cancel, rec, jobId, keep);
}

harness::MannaResult
runUntraced(const JobSpec &job, const CancelToken &cancel)
{
    if (job.dnc)
        return runJob(job, cancel, nullptr, 0, nullptr);
    const auto model =
        compiler::compileCached(job.benchmark.config, job.arch);
    return harness::runCompiled(job.benchmark, *model, job.steps, job.seed,
                                &cancel, nullptr, job.fidelity);
}

float
golden(const JobSpec &job, const JobRecord &kept, SpanRecorder *rec,
       long jobId)
{
    Span root(rec, "mann.golden", jobId);
    if (job.dnc) {
        mann::Dnc model = timed(rec, "mann.golden_construct", jobId, [&] {
            return mann::Dnc(job.dncConfig, job.seed);
        });
        return goldenRun(model, kept, rec, jobId);
    }
    mann::Ntm model = timed(rec, "mann.golden_construct", jobId, [&] {
        return mann::Ntm(job.benchmark.config, job.seed);
    });
    return goldenRun(model, kept, rec, jobId);
}

double
goldenJobMs(const JobSpec &job)
{
    const auto start = Clock::now();
    const workloads::Episode episode = episodeFor(job);
    auto run = [&](auto model) {
        for (const FVec &x : episode.inputs)
            model.step(x);
    };
    if (job.dnc)
        run(mann::Dnc(job.dncConfig, job.seed));
    else
        run(mann::Ntm(job.benchmark.config, job.seed));
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

Counters
countersOf(const sim::RunReport &report)
{
    Counters c;
    c.cycles = report.totalCycles;
    c.energyPj = report.totalEnergyPj();
    Fnv1a h;
    for (const auto &[key, value] : report.stats.entries())
        h.bytes(key.data(), key.size()).f64(value);
    c.statsDigest = h.value();
    return c;
}

std::optional<Reference>
loadReference(const std::string &path, std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = "cannot read counter reference '" + path + "'";
        return std::nullopt;
    }
    Reference ref;
    std::string line;
    std::size_t lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, digest;
        Counters c;
        if (!(fields >> key >> c.cycles >> c.energyPj >> digest) ||
            std::sscanf(digest.c_str(), "%" SCNx64, &c.statsDigest) != 1) {
            error = path + ":" + std::to_string(lineNo) +
                    ": expected '<key> <cycles> <energy_pj> <digest>'";
            return std::nullopt;
        }
        ref[key] = c;
    }
    return ref;
}

bool
writeReference(const std::string &path, const Reference &ref)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("# Simulated counters per job shape, recorded with\n"
               "# `perfbench --record-reference PATH --seed N`.\n"
               "# key cycles energy_pj stats_digest\n",
               f);
    for (const auto &[key, c] : ref)
        std::fprintf(f, "%s %" PRIu64 " %.17g %016" PRIx64 "\n",
                     key.c_str(), c.cycles, c.energyPj, c.statsDigest);
    return std::fclose(f) == 0;
}

} // namespace perfbench
