/**
 * @file
 * Reproduces Table 3: platform summary — the two GPU baselines from
 * their public specifications, and Manna from the analytic area/power
 * models (calibrated per DESIGN.md) — plus each platform's sustained
 * unbatched throughput on the selected benchmark (bench=, default
 * copy): the GPUs from their analytic step-cost models, Manna from
 * the cycle-accurate simulator.
 *
 * The simulated Manna point runs through the sweep harness, so the
 * usual knobs apply (steps=, jobs=, retries=/timeout=/journal=/
 * resume=, progress=/stats=/bench_json=, server=); a failed
 * simulation renders as a FAILED cell and makes the binary exit
 * nonzero.
 */

#include <cstdio>

#include "arch/area_model.hh"
#include "arch/energy_model.hh"
#include "baselines/platform_model.hh"
#include "common/config.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/observe.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "mann/op_counter.hh"

using namespace manna;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    const std::size_t steps =
        harness::stepsFromConfig(cfg, 4);
    const std::size_t jobs =
        static_cast<std::size_t>(cfg.getInt("jobs", 0));
    const harness::SweepOptions opts =
        harness::sweepOptionsFromConfig(cfg);

    harness::printBanner("Table 3", "Summary of platforms");

    const auto &bench = workloads::benchmarkByName(
        cfg.getString("bench", "copy"));
    const mann::OpCounter counter(bench.config);
    const double stepFlops =
        static_cast<double>(counter.totalWork().flops());

    const std::string seqCol =
        strformat("Unbatched seq/s (%s)", bench.name.c_str());
    Table table({"Platform", "Area (mm^2)", "Node (nm)", "Freq (MHz)",
                 "TDP (W)", "On-Chip (MiB)", "Bandwidth (GB/s)",
                 seqCol, "Sustained GFLOP/s"});
    for (const auto &spec :
         {baselines::pascal1080Ti(), baselines::turing2080Ti()}) {
        const baselines::PlatformModel model(
            spec, /*perKernelLaunch=*/true); // GPUs launch per kernel
        const auto cost = model.stepCost(counter);
        table.addRow({spec.name, strformat("%.0f", spec.areaMm2),
                      strformat("%.0f", spec.technologyNm),
                      strformat("%.0f", spec.frequencyMhz),
                      strformat("%.0f", spec.tdpWatts),
                      strformat("%.1f", spec.onChipMiB),
                      strformat("%.0f", spec.memBandwidthGBs),
                      strformat("%.0f", 1.0 / cost.seconds),
                      strformat("%.1f",
                                stepFlops / cost.seconds / 1e9)});
    }

    // Manna's throughput comes from the cycle-accurate simulator, via
    // the fault-isolated sweep runner (one job at the paper's 16-tile
    // configuration).
    const std::vector<harness::SweepJob> sweep{
        {bench, arch::MannaConfig::baseline16(), steps, /*seed=*/1}};
    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);
    std::string mannaSeq = "FAILED", mannaFlops = "FAILED";
    if (report.outcomes[0].ok) {
        const double sps = report.outcomes[0].value.secondsPerStep;
        mannaSeq = strformat("%.0f", 1.0 / sps);
        mannaFlops = strformat("%.1f", stepFlops / sps / 1e9);
    }

    const arch::MannaConfig manna = arch::MannaConfig::baseline16();
    const arch::AreaBreakdown area = arch::areaOf(manna);
    const double mib =
        static_cast<double>(manna.totalOnChipBytes()) / (1024.0 * 1024);
    table.addRow({"Manna", strformat("%.0f", area.total()), "15",
                  strformat("%.0f", manna.clockMhz),
                  strformat("%.0f", arch::tdpWatts(manna)),
                  strformat("%.1f", mib),
                  strformat("%.0f (on-chip)",
                            manna.aggregateMatrixBandwidthGBs()),
                  mannaSeq, mannaFlops});
    harness::printTable(table);

    std::printf("\nManna area breakdown:\n%s",
                arch::renderArea(area).c_str());
    std::printf("\n%s", manna.describe().c_str());
    harness::printPaperReference(
        "Table 3 reports Manna at 40 mm^2, 15 nm, 500 MHz, 16 W TDP, "
        "38 MiB on-chip; 1080-Ti and 2080-Ti rows match their public "
        "specs.");
    harness::applySweepObservability(cfg, "tab3_platforms", report);
    return harness::finishSweep(report);
}
