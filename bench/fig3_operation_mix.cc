/**
 * @file
 * Reproduces Figure 3: relative mix of operation types in the
 * runtime-intensive (non-controller) NTM kernels.
 *
 * Paper headline: MAC and element-wise operations each make up
 * ~49.8% of the mix — so a MANN accelerator cannot optimize for MACs
 * alone.
 *
 * The mix is a thin view over the simulator's per-tile operation
 * counters (emac.mac_ops / emac.elwise_ops / sfu.ops summed across
 * tiles): the DiffMem tiles execute exactly the non-controller
 * kernels, so the counted mix is the executed mix. The analytic
 * OpCounter mix is printed alongside as a model cross-check.
 *
 * Knobs: steps=, jobs=, the robustness knobs (retries=/timeout=/
 * journal=/resume=), and the observability knobs bench_json= /
 * --dump-stats (see docs/OBSERVABILITY.md).
 */

#include <cstdio>

#include "common/config.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/observe.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "mann/op_counter.hh"
#include "workloads/benchmarks.hh"

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

    harness::printBanner(
        "Figure 3",
        "Relative mix of operations in runtime-intensive NTM kernels");

    const auto suite = workloads::table2Suite();
    std::vector<harness::SweepJob> sweep;
    for (const auto &bench : suite)
        sweep.push_back({bench, arch::MannaConfig::baseline16(), steps,
                         /*seed=*/1});

    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);

    Table table({"Benchmark", "MAC ops", "Element-wise ops",
                 "Special (exp/pow/div)", "analytic MAC/elwise/special"});
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const mann::OpCounter counter(suite[i].config);
        const auto mix = counter.operationMix();
        const std::string analytic = strformat(
            "%.1f%% / %.1f%% / %.1f%%", mix.macFraction * 100.0,
            mix.elwiseFraction * 100.0, mix.specialFraction * 100.0);
        const auto &outcome = report.outcomes[i];
        if (!outcome.ok) {
            table.addRow({suite[i].name, "FAILED", "FAILED", "FAILED",
                          analytic});
            continue;
        }
        const StatRegistry &reg = outcome.value.report.stats;
        const double mac = reg.sumOver("tile", "emac.mac_ops");
        const double elwise = reg.sumOver("tile", "emac.elwise_ops");
        const double special = reg.sumOver("tile", "sfu.ops");
        const double total = mac + elwise + special;
        auto frac = [&](double ops) {
            return formatPercent(total > 0.0 ? ops / total : 0.0);
        };
        table.addRow({suite[i].name, frac(mac), frac(elwise),
                      frac(special), analytic});
    }
    harness::printTable(table);

    const StatRegistry agg = report.aggregateStats();
    const double mac = agg.sumOver("tile", "emac.mac_ops");
    const double elwise = agg.sumOver("tile", "emac.elwise_ops");
    const double special = agg.sumOver("tile", "sfu.ops");
    const double total = mac + elwise + special;
    if (total > 0.0)
        std::printf("\nacross the suite: MAC %.1f%% / element-wise "
                    "%.1f%% / special %.1f%% of executed non-controller "
                    "operations\n",
                    mac / total * 100.0, elwise / total * 100.0,
                    special / total * 100.0);
    harness::printPaperReference(
        "Figure 3: the non-controller kernels are almost equally "
        "dominated (49.8% each in the paper's copy analysis) by fused "
        "MACs and element-wise operations, with a small special-"
        "function tail.");

    harness::applySweepObservability(cfg, "fig3_operation_mix", report);
    return harness::finishSweep(report);
}
