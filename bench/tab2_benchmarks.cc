/**
 * @file
 * Reproduces Table 2: the ten-benchmark suite with its memory shapes,
 * controller dimensions, and head counts — plus each benchmark's
 * simulated cycles/step at the paper's 16-tile configuration.
 *
 * The simulated column runs through the fault-isolated sweep runner,
 * so the usual knobs apply (steps= [default 1], jobs=, bench=
 * single-benchmark filter, retries=/timeout=/journal=/resume=,
 * progress=/stats=/bench_json=, server=, fidelity=cycle|fast).
 * Benchmarks whose memory has
 * fewer rows than 16 tiles render "-" (the paper's 16-tile point
 * cannot run them); failed simulation points render as FAILED cells
 * and make the binary exit nonzero after the full table.
 */

#include <cstdio>

#include "common/config.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/observe.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "workloads/benchmarks.hh"

using namespace manna;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    const std::size_t steps =
        harness::stepsFromConfig(cfg, 1);
    const std::size_t jobs =
        static_cast<std::size_t>(cfg.getInt("jobs", 0));
    const harness::SweepOptions opts =
        harness::sweepOptionsFromConfig(cfg);
    const sim::Fidelity fidelity = harness::fidelityFromConfig(cfg);

    harness::printBanner("Table 2", "Summary of benchmarks");

    const std::vector<workloads::Benchmark> suite =
        harness::benchmarksFromConfig(cfg);

    // The measured column: one simulation per benchmark at the
    // paper's evaluated 16-tile point, through the fault-isolated
    // runner (submission order, so the table below is byte-identical
    // for any worker count). Benchmarks smaller than 16 memory rows
    // are skipped.
    const arch::MannaConfig arch16 = arch::MannaConfig::baseline16();
    std::vector<harness::SweepJob> sweep;
    for (const auto &b : suite)
        if (b.config.memN >= 16)
            sweep.push_back({b, arch16, steps, /*seed=*/1, fidelity});

    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);

    Table table({"Benchmark", "Task", "Diff. Memory", "Controller",
                 "Read Heads", "Write Heads", "Mem Footprint",
                 "Cycles/step (16T)"});
    std::size_t next = 0;
    for (const auto &b : suite) {
        std::string cycles = "-";
        if (b.config.memN >= 16) {
            const auto &outcome = report.outcomes[next++];
            cycles = outcome.ok
                         ? strformat("%.0f",
                                     static_cast<double>(
                                         outcome.value.report
                                             .totalCycles) /
                                         static_cast<double>(steps))
                         : "FAILED";
        }
        table.addRow({b.name, toString(b.task),
                      strformat("%zux%zu", b.config.memN,
                                b.config.memM),
                      strformat("%zux%zu", b.config.controllerLayers,
                                b.config.controllerWidth),
                      strformat("%zu", b.config.numReadHeads),
                      strformat("%zu", b.config.numWriteHeads),
                      formatBytes(b.config.memoryBytes()), cycles});
    }
    harness::printTable(table);
    harness::printPaperReference(
        "Table 2 of the paper; shapes reproduced exactly. Input/output "
        "vector widths are not published and are chosen per task (see "
        "workloads/benchmarks.cc).");
    harness::applySweepObservability(cfg, "tab2_benchmarks", report);
    return harness::finishSweep(report);
}
