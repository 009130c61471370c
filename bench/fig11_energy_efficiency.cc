/**
 * @file
 * Reproduces Figure 11: energy efficiency (NTM time steps per joule)
 * of Manna relative to the GPU baselines.
 *
 * Paper headline: 58x-301x (average 122x) improvement over the
 * 1080-Ti and an average of 86x over the 2080-Ti, driven by both the
 * speedup and Manna's order-of-magnitude lower power.
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

    harness::printBanner("Figure 11",
                         "Energy efficiency compared to GPU baselines "
                         "(steps/J)");

    const arch::MannaConfig manna = arch::MannaConfig::baseline16();

    const std::vector<workloads::Benchmark> suite =
        harness::benchmarksFromConfig(cfg);

    std::vector<harness::SweepJob> sweep;
    for (const auto &bench : suite)
        sweep.push_back({bench, manna, steps, /*seed=*/1});

    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);

    Table table({"Benchmark", "Manna steps/J", "Manna W",
                 "1080Ti steps/J", "2080Ti steps/J", "Improv v1080",
                 "Improv v2080"});
    std::vector<double> f1080, f2080;

    for (std::size_t i = 0; i < suite.size(); ++i) {
        const auto &bench = suite[i];
        const auto p1080 =
            harness::evaluateBaseline(bench, harness::gpu1080Ti());
        const auto p2080 =
            harness::evaluateBaseline(bench, harness::gpu2080Ti());
        const double g1080Spj = 1.0 / p1080.joulesPerStep;
        const double g2080Spj = 1.0 / p2080.joulesPerStep;
        const auto &outcome = report.outcomes[i];
        if (!outcome.ok) {
            table.addRow({bench.name, "FAILED", "-",
                          strformat("%.3g", g1080Spj),
                          strformat("%.3g", g2080Spj), "-", "-"});
            continue;
        }
        const auto &mannaRes = outcome.value;

        const double mannaSpj = 1.0 / mannaRes.joulesPerStep;
        const double i1080 = mannaSpj / g1080Spj;
        const double i2080 = mannaSpj / g2080Spj;
        f1080.push_back(i1080);
        f2080.push_back(i2080);

        table.addRow(
            {bench.name, strformat("%.3g", mannaSpj),
             strformat("%.1f",
                       mannaRes.joulesPerStep / mannaRes.secondsPerStep),
             strformat("%.3g", g1080Spj), strformat("%.3g", g2080Spj),
             formatFactor(i1080), formatFactor(i2080)});
    }
    harness::printTable(table);
    std::printf(
        "%s\n",
        harness::summarizeFactors("energy improvement vs 1080-Ti",
                                  f1080)
            .c_str());
    std::printf(
        "%s\n",
        harness::summarizeFactors("energy improvement vs 2080-Ti",
                                  f2080)
            .c_str());
    harness::printPaperReference(
        "Figure 11: 58x-301x (average 122x) over the 1080-Ti; average "
        "86x over the 2080-Ti.");
    harness::applySweepObservability(cfg, "fig11_energy_efficiency",
                                     report);
    return harness::finishSweep(report);
}
