/**
 * @file
 * Reproduces Figure 13: weak scaling — tiles and problem size grow
 * together (both memory dimensions scale with sqrt(tiles/4)), so
 * ideal scaling is a flat line at 1.0.
 *
 * Paper headline: Manna exhibits near-ideal weak scaling because the
 * MANN kernels are embarrassingly parallel across tiles and inter-
 * tile communication is trivial next to per-tile work.
 *
 * Knobs: steps=, jobs=, bench=<name>, fidelity=cycle|fast, plus the
 * usual sweep robustness/observability knobs (see harness/sweep.hh).
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
        harness::stepsFromConfig(cfg, 4); // scaled problems are large
    const std::size_t jobs =
        static_cast<std::size_t>(cfg.getInt("jobs", 0));
    const harness::SweepOptions opts =
        harness::sweepOptionsFromConfig(cfg);
    const sim::Fidelity fidelity = harness::fidelityFromConfig(cfg);

    harness::printBanner(
        "Figure 13",
        "Manna performance trends with weak scaling "
        "(time per step, normalized to 4 tiles; 1.0 = ideal)");

    const std::size_t tileCounts[] = {4, 8, 16, 32, 64};
    Table table({"Benchmark", "4", "8", "16", "32", "64"});

    const std::vector<workloads::Benchmark> suite =
        harness::benchmarksFromConfig(cfg);

    std::vector<harness::SweepJob> sweep;
    for (const auto &bench : suite)
        for (std::size_t tiles : tileCounts)
            sweep.push_back({workloads::weakScaled(bench, tiles, 4),
                             arch::MannaConfig::withTiles(tiles),
                             steps, /*seed=*/1, fidelity});

    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);

    std::size_t next = 0;
    for (const auto &bench : suite) {
        std::vector<std::string> row{bench.name};
        double baseline = 0.0;
        for (std::size_t tiles : tileCounts) {
            const auto &outcome = report.outcomes[next++];
            if (!outcome.ok) {
                row.push_back("FAILED");
                continue;
            }
            const auto &result = outcome.value;
            if (tiles == 4) {
                baseline = result.secondsPerStep;
                row.push_back("1.00");
            } else if (baseline > 0.0) {
                row.push_back(strformat(
                    "%.2f", result.secondsPerStep / baseline));
            } else {
                row.push_back("-"); // 4-tile reference cell failed
            }
        }
        table.addRow(std::move(row));
    }
    harness::printTable(table);
    harness::printPaperReference(
        "Figure 13: near-ideal weak scaling with very little "
        "variability as tiles and problem size grow together.");
    harness::applySweepObservability(cfg, "fig13_weak_scaling",
                                     report);
    return harness::finishSweep(report);
}
