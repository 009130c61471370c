/**
 * @file
 * Reproduces the paper's Section 1/3 batching argument: batching
 * rescues GPU efficiency for weight-dominated networks (MLPs/RNNs,
 * whose weights are shared across a batch) but *not* for MANNs,
 * because the differentiable external memory is per-sequence dynamic
 * state that cannot be shared.
 *
 * We evaluate GPU throughput (sequences/s) versus batch size for the
 * selected NTM benchmark (bench=, default copy), and contrast with a
 * controller-only network of the same controller shape (the RNN/MLP a
 * conventional accelerator would batch). Manna's unbatched throughput
 * is shown for reference, measured on the simulator through the sweep
 * harness — so the usual knobs (jobs=, retries=/timeout=/journal=/
 * resume=, progress=/stats=/bench_json=, server=) all apply; a failed
 * simulation renders as FAILED and makes the binary exit nonzero.
 */

#include <cstdio>

#include "common/config.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/observe.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"

using namespace manna;

namespace
{

/** Per-sample step time restricted to one kernel group family. */
double
secondsPerSample(const baselines::PlatformStepCost &cost,
                 std::size_t batch)
{
    return cost.seconds / static_cast<double>(batch);
}

} // namespace

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

    harness::printBanner(
        "Section 1/3",
        "Why batching cannot rescue GPUs on MANNs (2080-Ti model)");

    const auto &bench = workloads::benchmarkByName(
        cfg.getString("bench", "copy"));
    const mann::OpCounter mannCounter(bench.config);

    // Controller-only proxy: same network with a minimal external
    // memory, so the dense (weight-shared) kernels dominate.
    mann::MannConfig ctrlOnly = bench.config;
    ctrlOnly.memN = 16;
    ctrlOnly.memM = 8;
    const mann::OpCounter ctrlCounter(ctrlOnly);

    const auto &gpu = harness::gpu2080Ti();
    const std::size_t batches[] = {1, 4, 16, 64, 256};

    Table table({"Batch", "MANN seq/s", "MANN scaling",
                 "weight-dominated seq/s", "weight-dom. scaling"});
    double mannBase = 0.0, ctrlBase = 0.0;
    for (std::size_t b : batches) {
        const auto mannCost = gpu.stepCostBatched(mannCounter, b);
        const auto ctrlCost = gpu.stepCostBatched(ctrlCounter, b);
        const double mannRate =
            1.0 / secondsPerSample(mannCost, b);
        const double ctrlRate =
            1.0 / secondsPerSample(ctrlCost, b);
        if (b == 1) {
            mannBase = mannRate;
            ctrlBase = ctrlRate;
        }
        table.addRow({strformat("%zu", b),
                      strformat("%.0f", mannRate),
                      formatFactor(mannRate / mannBase),
                      strformat("%.0f", ctrlRate),
                      formatFactor(ctrlRate / ctrlBase)});
    }
    harness::printTable(table);

    // Manna's unbatched reference point, on the simulator through the
    // fault-isolated sweep harness (one job, but with the full
    // retry/journal/server machinery).
    const std::vector<harness::SweepJob> sweep{
        {bench, arch::MannaConfig::baseline16(), steps, /*seed=*/1}};
    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);
    if (report.outcomes[0].ok)
        std::printf("\nManna (no batching): %.0f sequences/s per "
                    "chip\n",
                    1.0 / report.outcomes[0].value.secondsPerStep);
    else
        std::printf("\nManna (no batching): FAILED\n");

    const auto m64 = gpu.stepCostBatched(mannCounter, 64);
    const auto c64 = gpu.stepCostBatched(ctrlCounter, 64);
    std::printf("\nat batch 64 the weight-dominated network gained "
                "%.1fx from batching; the MANN gained only %.1fx — "
                "its external memory traffic scales with the batch.\n",
                (1.0 / secondsPerSample(c64, 64)) / ctrlBase,
                (1.0 / secondsPerSample(m64, 64)) / mannBase);
    harness::printPaperReference(
        "Section 1: \"the external memory ... is unique to each "
        "input. Therefore, it cannot be shared across a batch, unlike "
        "the weights of an MLP or RNN\" — so accelerators that rely "
        "on batching to raise FLOPs/Byte are ineffective for MANNs.");
    harness::applySweepObservability(cfg, "sec1_batching_analysis",
                                     report);
    return harness::finishSweep(report);
}
