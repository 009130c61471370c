/**
 * @file
 * Reproduces the Section 7.3 multi-chip scaling discussion:
 * distributing the differentiable memory across a cluster of Manna
 * chips "increases the parallelism and compute available
 * proportionally with the capacity of the differentiable memory".
 *
 * For each large benchmark, compares 1/2/4/8-chip clusters: time per
 * step (per-chip simulation of the memory share plus inter-chip
 * overhead for every compiled reduce/broadcast) and energy per step
 * across all chips.
 */

#include <cstdio>

#include "common/config.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/cluster.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace manna;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    const std::size_t steps =
        harness::stepsFromConfig(cfg, 4);
    const std::size_t jobs =
        static_cast<std::size_t>(cfg.getInt("jobs", 0));

    harness::printBanner("Section 7.3 (cluster)",
                         "Scaling the differentiable memory across "
                         "multiple Manna chips");

    const arch::MannaConfig chip = arch::MannaConfig::baseline16();
    Table table({"Benchmark", "Chips", "us/step", "comm us",
                 "Speedup", "mJ/step (all chips)"});

    const std::vector<const char *> names{"bAbI", "travers", "shrdlu"};
    const std::vector<std::size_t> chipCounts{1, 2, 4, 8};

    // Cluster evaluations are independent points too: map the whole
    // (benchmark x chips) grid through the runner and assemble the
    // table afterwards in grid order.
    harness::SweepRunner runner(jobs);
    const auto results = runner.map(
        names.size() * chipCounts.size(), [&](std::size_t i) {
            const auto &bench =
                workloads::benchmarkByName(names[i / chipCounts.size()]);
            harness::ClusterConfig cluster;
            cluster.chips = chipCounts[i % chipCounts.size()];
            return harness::evaluateCluster(bench, chip, cluster,
                                            steps);
        });

    std::size_t next = 0;
    for (const char *name : names) {
        double base = 0.0;
        for (std::size_t chips : chipCounts) {
            const auto &result = results[next++];
            if (chips == 1)
                base = result.secondsPerStep;
            table.addRow(
                {name, strformat("%zu", chips),
                 strformat("%.1f", result.secondsPerStep * 1e6),
                 strformat("%.1f", result.commSecondsPerStep * 1e6),
                 formatFactor(base / result.secondsPerStep),
                 strformat("%.3f", result.joulesPerStep * 1e3)});
        }
        table.addSeparator();
    }
    harness::printTable(table);
    harness::printPaperReference(
        "Section 7.3: clustering scales compute with memory capacity; "
        "the MANN kernels' trivial inter-tile (here inter-chip) "
        "communication keeps the overhead small relative to per-chip "
        "work.");
    return 0;
}
