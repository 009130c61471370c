/**
 * @file
 * Reproduces Figure 9: inference performance of the 16-tile Manna
 * against the GTX 1080-Ti and RTX 2080-Ti, no batching, across the
 * ten Table-2 benchmarks (ordered by external memory size).
 *
 * Paper headline: 11x-184x speedup over the 1080-Ti (average 39x);
 * average 24x over the 2080-Ti.
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
    const arch::MannaConfig manna = arch::MannaConfig::baseline16();

    harness::printBanner("Figure 9",
                         "Inference performance vs GPU baselines");

    const std::vector<workloads::Benchmark> suite =
        harness::benchmarksFromConfig(cfg);

    std::vector<harness::SweepJob> sweep;
    for (const auto &bench : suite)
        sweep.push_back({bench, manna, steps, /*seed=*/1});

    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);

    Table table({"Benchmark", "MemBytes", "Manna us/step",
                 "1080Ti us/step", "2080Ti us/step", "Speedup v1080",
                 "Speedup v2080"});
    std::vector<double> speedups1080;
    std::vector<double> speedups2080;

    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &benchmark = suite[i];
        const auto p1080 =
            harness::evaluateBaseline(benchmark, harness::gpu1080Ti());
        const auto p2080 =
            harness::evaluateBaseline(benchmark, harness::gpu2080Ti());
        const auto &outcome = report.outcomes[i];
        if (!outcome.ok) {
            // Baselines are analytical and always available; only the
            // simulated cells are unknown.
            table.addRow({benchmark.name,
                          formatBytes(benchmark.config.memoryBytes()),
                          "FAILED",
                          strformat("%.1f", p1080.secondsPerStep * 1e6),
                          strformat("%.1f", p2080.secondsPerStep * 1e6),
                          "-", "-"});
            continue;
        }
        const auto &mannaRes = outcome.value;

        const double s1080 =
            p1080.secondsPerStep / mannaRes.secondsPerStep;
        const double s2080 =
            p2080.secondsPerStep / mannaRes.secondsPerStep;
        speedups1080.push_back(s1080);
        speedups2080.push_back(s2080);

        table.addRow({benchmark.name,
                      formatBytes(benchmark.config.memoryBytes()),
                      strformat("%.1f", mannaRes.secondsPerStep * 1e6),
                      strformat("%.1f", p1080.secondsPerStep * 1e6),
                      strformat("%.1f", p2080.secondsPerStep * 1e6),
                      formatFactor(s1080), formatFactor(s2080)});
    }
    harness::printTable(table);
    std::printf("%s\n",
                harness::summarizeFactors("speedup vs 1080-Ti",
                                          speedups1080)
                    .c_str());
    std::printf("%s\n",
                harness::summarizeFactors("speedup vs 2080-Ti",
                                          speedups2080)
                    .c_str());
    harness::printPaperReference(
        "Figure 9 reports 11x-184x (average 39x) over the 1080-Ti and "
        "an average of 24x over the 2080-Ti.");
    harness::applySweepObservability(
        cfg, "fig9_inference_performance", report);
    return harness::finishSweep(report);
}
