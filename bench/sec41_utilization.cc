/**
 * @file
 * Evidence for the Section 4.1 provisioning claim: Manna dedicates
 * most die area to banked memories and gives each tile "just enough
 * processing elements to match that on-chip memory bandwidth",
 * maintaining high utilization of the compute it does have.
 *
 * Reports, per benchmark, the fraction of cycles each tile resource
 * class is busy on the 16-tile baseline (read from the simulator's
 * per-tile counter registry, keys `chip.util.<engine>`), and
 * contrasts a compute-heavy variant (4x the eMACs at the same
 * bandwidth) whose extra lanes mostly idle.
 *
 * Knobs: steps=, plus trace=<path>/trace_limit= to dump a
 * Perfetto-loadable Chrome trace, profile=<path>/profile_top= to
 * write the cycle-accounting profile, and --dump-stats to print the
 * accumulated counters — all for the first benchmark on the baseline
 * configuration (see docs/OBSERVABILITY.md).
 */

#include <cstdio>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/observe.hh"
#include "harness/report.hh"

using namespace manna;

namespace
{

struct UtilRow
{
    double emac;
    double matDma;
    double sfu;
    double secondsPerStep;
};

UtilRow
utilizationFor(const workloads::Benchmark &bench,
               const arch::MannaConfig &hw, std::size_t steps)
{
    const auto result = harness::simulateManna(bench, hw, steps);
    const StatRegistry &stats = result.report.stats;
    return {stats.get("chip.util.emac"),
            stats.get("chip.util.mat_dma"), stats.get("chip.util.sfu"),
            result.secondsPerStep};
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    const std::size_t steps =
        harness::stepsFromConfig(cfg, harness::defaultSteps());
    const harness::TraceOptions traceOpts =
        harness::traceOptionsFromConfig(cfg);

    harness::printBanner(
        "Section 4.1",
        "Compute/bandwidth balance: tile resource utilization");

    const arch::MannaConfig baseline = arch::MannaConfig::baseline16();
    arch::MannaConfig computeHeavy = baseline;
    computeHeavy.emacsPerTile = 128; // 4x lanes, same buffer width

    Table table({"Benchmark", "eMAC util", "matrix-DMA util",
                 "SFU util", "Speedup @4x lanes"});
    std::vector<double> emacUtils, extraLaneGains;
    StatRegistry dump;
    for (const auto &bench : workloads::table2Suite()) {
        const auto base = utilizationFor(bench, baseline, steps);
        const auto heavy = utilizationFor(bench, computeHeavy, steps);
        dump.set("sec41." + bench.name + ".util.emac", base.emac);
        dump.set("sec41." + bench.name + ".util.mat_dma", base.matDma);
        dump.set("sec41." + bench.name + ".util.sfu", base.sfu);
        emacUtils.push_back(base.emac);
        const double gain = base.secondsPerStep / heavy.secondsPerStep;
        extraLaneGains.push_back(gain);
        table.addRow({bench.name, formatPercent(base.emac),
                      formatPercent(base.matDma),
                      formatPercent(base.sfu), formatFactor(gain)});
    }
    harness::printTable(table);
    std::printf("\nmean eMAC utilization at the baseline balance: %s. "
                "Quadrupling the compute lanes (with the same memory "
                "bandwidth) buys only %.2fx on average -- far from the "
                "4x more silicon spent -- confirming the provisioning "
                "argument.\n",
                formatPercent(mean(emacUtils)).c_str(),
                mean(extraLaneGains));
    harness::printPaperReference(
        "Section 4.1: \"the DiffMem tiles are then provisioned with "
        "just enough processing elements to match that on-chip memory "
        "bandwidth\", maintaining high utilization instead of high "
        "theoretical throughput.");

    const auto &suite = workloads::table2Suite();
    if (traceOpts.enabled() && !suite.empty())
        harness::writeChromeTrace(traceOpts, suite.front(), baseline,
                                  steps);
    const harness::ProfileOptions profileOpts =
        harness::profileOptionsFromConfig(cfg);
    if (profileOpts.enabled() && !suite.empty())
        harness::writeProfile(profileOpts, suite.front(), baseline,
                              steps);
    harness::dumpStatsIfRequested(cfg, dump);
    return 0;
}
