/**
 * @file
 * Reproduces Figure 14: impact of Manna's architectural features.
 * Compares Manna against MemHeavy (no transpose hardware, no eMACs),
 * MemHeavy-Transpose (adds the DMAT), and MemHeavy-eMAC (adds the
 * eMAC units) across the benchmark suite.
 *
 * Paper headline: Manna is 2x-4x (3.3x average) faster than
 * MemHeavy, and 2.3x / 1.8x faster than the transpose-only and
 * eMAC-only variants respectively; the discussion attributes ~2.8x
 * to element-wise support and ~1.4x to on-chip transpose.
 */

#include <cstdio>

#include "baselines/ablation.hh"
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

    harness::printBanner("Figure 14",
                         "Impact of Manna's architectural features "
                         "(speedup over MemHeavy)");

    const auto variants = baselines::figure14Variants();
    Table table({"Benchmark", "MemHeavy", "MemHeavy-Transpose",
                 "MemHeavy-eMAC", "Manna"});
    std::map<std::string, std::vector<double>> speedups;

    const std::vector<workloads::Benchmark> suite =
        harness::benchmarksFromConfig(cfg);

    std::vector<harness::SweepJob> sweep;
    for (const auto &bench : suite)
        for (const auto &variant : variants)
            sweep.push_back({bench, variant.config, steps, /*seed=*/1});

    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);

    std::size_t next = 0;
    for (const auto &bench : suite) {
        std::map<std::string, double> seconds;
        bool ok = true;
        for (const auto &variant : variants) {
            const auto &outcome = report.outcomes[next++];
            if (!outcome.ok)
                ok = false;
            else
                seconds[variant.name] = outcome.value.secondsPerStep;
        }
        std::vector<std::string> row{bench.name};
        for (const auto &variant : variants) {
            if (!ok || seconds[variant.name] <= 0.0) {
                row.push_back("FAILED");
                continue;
            }
            const double factor =
                seconds["MemHeavy"] / seconds[variant.name];
            speedups[variant.name].push_back(factor);
            row.push_back(formatFactor(factor));
        }
        table.addRow(std::move(row));
    }
    harness::printTable(table);

    std::printf("\n");
    for (const auto &variant : variants)
        std::printf("%s\n",
                    harness::summarizeFactors(variant.name,
                                              speedups[variant.name])
                        .c_str());
    harness::printPaperReference(
        "Figure 14: Manna achieves 2x-4x (3.3x average) over MemHeavy "
        "and 2.3x / 1.8x over the transpose-only / eMAC-only "
        "variants.");
    harness::applySweepObservability(cfg, "fig14_ablation", report);
    return harness::finishSweep(report);
}
