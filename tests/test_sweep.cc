/**
 * @file
 * Tier-1 tests for the parallel sweep runner and the compile cache.
 *
 * The determinism contract is the whole point: a sweep executed on N
 * worker threads must produce results bit-identical to the same sweep
 * executed serially, and a cache-hit compile must hand back exactly
 * the program a fresh compile would.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "compiler/compile_cache.hh"
#include "compiler/compiler.hh"
#include "harness/sweep.hh"
#include "workloads/benchmarks.hh"

namespace manna::harness
{
namespace
{

/** Small-footprint sweep over Table-2 benchmarks: every benchmark
 * whose differentiable memory stays modest, at two tile counts. */
std::vector<SweepJob>
smallSweep(std::size_t steps)
{
    std::vector<SweepJob> jobs;
    for (const auto &bench : workloads::table2Suite()) {
        if (bench.config.memN * bench.config.memM > 1024 * 128)
            continue; // keep tier-1 runtime small
        for (std::size_t tiles : {4u, 8u})
            jobs.push_back({bench, arch::MannaConfig::withTiles(tiles),
                            steps, /*seed=*/1});
    }
    return jobs;
}

/** Exact (bitwise, not approximate) equality of two results. */
void
expectIdentical(const MannaResult &a, const MannaResult &b)
{
    EXPECT_EQ(a.report.steps, b.report.steps);
    EXPECT_EQ(a.report.totalCycles, b.report.totalCycles);
    EXPECT_EQ(a.report.totalSeconds, b.report.totalSeconds);
    EXPECT_EQ(a.report.dynamicEnergyPj, b.report.dynamicEnergyPj);
    EXPECT_EQ(a.report.leakageEnergyPj, b.report.leakageEnergyPj);
    EXPECT_EQ(a.report.infrastructureEnergyPj,
              b.report.infrastructureEnergyPj);
    EXPECT_EQ(a.secondsPerStep, b.secondsPerStep);
    EXPECT_EQ(a.joulesPerStep, b.joulesPerStep);
    ASSERT_EQ(a.report.groups.size(), b.report.groups.size());
    for (const auto &[group, gs] : a.report.groups) {
        const auto it = b.report.groups.find(group);
        ASSERT_NE(it, b.report.groups.end());
        EXPECT_EQ(gs.cycles, it->second.cycles);
        EXPECT_EQ(gs.energyPj, it->second.energyPj);
    }
    EXPECT_EQ(a.report.resourceUtilization,
              b.report.resourceUtilization);
    EXPECT_EQ(a.report.stats, b.report.stats);
    EXPECT_EQ(a.report.render(), b.report.render());
}

TEST(SweepRunner, ParallelMatchesSerialBitIdentically)
{
    const auto jobs = smallSweep(/*steps=*/2);
    ASSERT_FALSE(jobs.empty());

    SweepRunner serial(1);
    SweepRunner parallel(4);
    EXPECT_EQ(serial.jobs(), 1u);
    EXPECT_EQ(parallel.jobs(), 4u);

    const auto serialResults = serial.runAll(jobs);
    const auto parallelResults = parallel.runAll(jobs);

    ASSERT_EQ(serialResults.size(), jobs.size());
    ASSERT_EQ(parallelResults.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE(jobs[i].benchmark.name);
        expectIdentical(serialResults[i], parallelResults[i]);
    }
}

TEST(SweepRunner, RepeatedRunsAreDeterministic)
{
    std::vector<SweepJob> jobs;
    const auto &bench = workloads::benchmarkByName("recall");
    for (std::size_t tiles : {4u, 8u, 16u})
        jobs.push_back(
            {bench, arch::MannaConfig::withTiles(tiles), 2, 1});

    SweepRunner runner(3);
    const auto first = runner.runAll(jobs);
    const auto second = runner.runAll(jobs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectIdentical(first[i], second[i]);
}

TEST(SweepRunner, MapPreservesSubmissionOrder)
{
    SweepRunner runner(4);
    const auto out = runner.map(
        257, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, DefaultJobsHonorsEnvironment)
{
    ::setenv("MANNA_JOBS", "3", 1);
    EXPECT_EQ(defaultJobs(), 3u);
    ::setenv("MANNA_JOBS", "not-a-number", 1);
    EXPECT_GE(defaultJobs(), 1u);
    ::unsetenv("MANNA_JOBS");
    EXPECT_GE(defaultJobs(), 1u);
}

TEST(CompileCache, HitReturnsIdenticalCompiledModel)
{
    compiler::clearCompileCache();
    const auto &bench = workloads::benchmarkByName("recall");
    const arch::MannaConfig arch = arch::MannaConfig::withTiles(8);

    const auto missBefore = compiler::compileCacheMisses();
    const auto fresh = compiler::compileCached(bench.config, arch);
    EXPECT_EQ(compiler::compileCacheMisses(), missBefore + 1);

    const auto hitBefore = compiler::compileCacheHits();
    const auto cached = compiler::compileCached(bench.config, arch);
    EXPECT_EQ(compiler::compileCacheHits(), hitBefore + 1);

    // A hit hands back the very same compiled model.
    EXPECT_EQ(fresh.get(), cached.get());

    // And it is the model an uncached compile would produce.
    const compiler::CompiledModel direct =
        compiler::compile(bench.config, arch);
    ASSERT_EQ(fresh->stepSegments.size(), direct.stepSegments.size());
    for (std::size_t s = 0; s < direct.stepSegments.size(); ++s) {
        const auto &a = fresh->stepSegments[s];
        const auto &b = direct.stepSegments[s];
        EXPECT_EQ(a.group, b.group);
        ASSERT_EQ(a.tilePrograms.size(), b.tilePrograms.size());
        for (std::size_t t = 0; t < a.tilePrograms.size(); ++t)
            EXPECT_EQ(a.tilePrograms[t].disassemble(),
                      b.tilePrograms[t].disassemble());
    }
}

TEST(CompileCache, DistinctConfigsGetDistinctEntries)
{
    compiler::clearCompileCache();
    const auto &bench = workloads::benchmarkByName("recall");
    const auto a = compiler::compileCached(
        bench.config, arch::MannaConfig::withTiles(4));
    const auto b = compiler::compileCached(
        bench.config, arch::MannaConfig::withTiles(8));
    EXPECT_NE(a.get(), b.get());
    EXPECT_EQ(compiler::compileCacheSize(), 2u);
}

TEST(Fingerprint, StableAndSensitive)
{
    arch::MannaConfig a = arch::MannaConfig::withTiles(16);
    arch::MannaConfig b = arch::MannaConfig::withTiles(16);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.sfuExpCycles += 1;
    EXPECT_NE(a.fingerprint(), b.fingerprint());

    const auto &bench = workloads::benchmarkByName("recall");
    mann::MannConfig m = bench.config;
    EXPECT_EQ(m.fingerprint(), bench.config.fingerprint());
    m.memN *= 2;
    EXPECT_NE(m.fingerprint(), bench.config.fingerprint());

    // A fast job must never restore a cycle job's journaled result.
    SweepJob cycle{bench, a, /*steps=*/2, /*seed=*/1};
    SweepJob fast = cycle;
    fast.fidelity = sim::Fidelity::Fast;
    EXPECT_EQ(cycle.fingerprint(), SweepJob(cycle).fingerprint());
    EXPECT_NE(cycle.fingerprint(), fast.fingerprint());
}

} // namespace
} // namespace manna::harness
