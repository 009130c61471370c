/**
 * @file
 * Reproduces Figure 10: kernel-specific speedups of Manna over the
 * 2080-Ti across the benchmark suite.
 *
 * Paper headline: addressing kernels see the largest speedups (the
 * GPU is severely underutilized on them); soft read saturates at ~3x
 * for the largest benchmarks once the GPU is fully utilized; the
 * head kernels sit between the two extremes.
 *
 * Knobs: steps=, jobs=, bench=<name> (single-benchmark filter), plus
 * the robustness knobs retries=/timeout=/journal=/resume= (see
 * docs/ROBUSTNESS.md). Failed simulation points render as FAILED
 * cells and make the binary exit nonzero after the full table.
 */

#include <cstdio>

#include "common/config.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/observe.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace manna;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    const std::size_t steps =
        harness::stepsFromConfig(cfg, harness::defaultSteps());
    const std::size_t jobs =
        static_cast<std::size_t>(cfg.getInt("jobs", 0));
    const harness::SweepOptions opts =
        harness::sweepOptionsFromConfig(cfg);

    harness::printBanner("Figure 10",
                         "Kernel-specific inference performance vs "
                         "RTX 2080-Ti");

    const arch::MannaConfig manna = arch::MannaConfig::baseline16();

    const std::vector<workloads::Benchmark> suite =
        harness::benchmarksFromConfig(cfg);

    std::vector<harness::SweepJob> sweep;
    for (const auto &bench : suite)
        sweep.push_back({bench, manna, steps, /*seed=*/1});

    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);

    Table table({"Benchmark", "heads", "addressing", "key-sim",
                 "soft-read", "soft-write"});
    std::map<mann::KernelGroup, std::vector<double>> perGroup;

    const mann::KernelGroup figureGroups[] = {
        mann::KernelGroup::Heads, mann::KernelGroup::Addressing,
        mann::KernelGroup::KeySimilarity, mann::KernelGroup::SoftRead,
        mann::KernelGroup::SoftWrite};

    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &bench = suite[i];
        const auto &outcome = report.outcomes[i];
        if (!outcome.ok) {
            std::vector<std::string> row{bench.name};
            for (std::size_t g = 0; g < std::size(figureGroups); ++g)
                row.push_back("FAILED");
            table.addRow(std::move(row));
            continue;
        }
        const auto &mannaRes = outcome.value;
        const auto gpu =
            harness::evaluateBaseline(bench, harness::gpu2080Ti());

        auto speedup = [&](mann::KernelGroup g) {
            const double mannaSec = mannaRes.groupSeconds.count(g)
                                        ? mannaRes.groupSeconds.at(g)
                                        : 0.0;
            const double gpuSec = gpu.step.groups.count(g)
                                      ? gpu.step.groups.at(g).seconds
                                      : 0.0;
            if (mannaSec <= 0.0 || gpuSec <= 0.0)
                return 0.0;
            return gpuSec / mannaSec;
        };

        std::vector<std::string> row{bench.name};
        for (mann::KernelGroup g : figureGroups) {
            const double s = speedup(g);
            perGroup[g].push_back(s);
            row.push_back(formatFactor(s));
        }
        table.addRow(std::move(row));
    }
    harness::printTable(table);

    std::printf("\n");
    for (const auto &[group, speedups] : perGroup)
        std::printf("%s\n",
                    harness::summarizeFactors(toString(group),
                                              speedups)
                        .c_str());
    harness::printPaperReference(
        "Figure 10: addressing kernels show the highest speedups "
        "(full parallelization vs GPU underutilization); soft read "
        "saturates around 3x on the largest benchmarks; heads fall in "
        "between.");
    harness::applySweepObservability(cfg, "fig10_kernel_speedup",
                                     report);
    return harness::finishSweep(report);
}
