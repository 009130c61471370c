/**
 * @file
 * Reproduces the Section 7.3 "Scaling the Differentiable Memory"
 * analysis: adding four HBM2 modules to a 16-tile Manna to hold
 * memories larger than on-chip SRAM.
 *
 * Paper headline: the HBM2 modules supply enough bandwidth to feed
 * all tiles (4 x 256 GB/s vs 16 tiles x 128 B/cycle at 500 MHz), but
 * the chip grows from 40 mm^2 to ~180 mm^2 and the TDP from 16 W to
 * ~116 W, cutting the average energy-efficiency advantage over the
 * 1080-Ti from ~122x to ~17x.
 *
 * Knobs: steps=, jobs=, bench=<name> (benchmark used for the energy
 * illustration, default "copy"), plus the robustness knobs
 * retries=/timeout=/journal=/resume= (see docs/ROBUSTNESS.md). A
 * failed simulation point renders as FAILED and makes the binary exit
 * nonzero.
 */

#include <cstdio>

#include "arch/area_model.hh"
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
        harness::stepsFromConfig(cfg, 8);
    const std::size_t jobs =
        static_cast<std::size_t>(cfg.getInt("jobs", 0));
    const std::string benchName = cfg.getString("bench", "copy");
    const harness::SweepOptions opts =
        harness::sweepOptionsFromConfig(cfg);

    harness::printBanner("Section 7.3",
                         "Scaling the differentiable memory with HBM");

    arch::MannaConfig sramOnly = arch::MannaConfig::baseline16();
    arch::MannaConfig withHbm = sramOnly;
    withHbm.hasHbm = true;

    // Bandwidth feasibility check (the paper's worst-case argument).
    const double tileDemandBytesPerSec =
        static_cast<double>(sramOnly.numTiles) *
        static_cast<double>(sramOnly.emacsPerTile) * kWordBytes *
        sramOnly.clockMhz * 1e6;
    const double hbmSupplyBytesPerSec =
        withHbm.hbmBandwidthGBsPerModule * 1e9 *
        static_cast<double>(withHbm.hbmModules);

    Table table({"Design", "Area (mm^2)", "TDP (W)",
                 "Mem capacity", "DiffMem BW (GB/s)"});
    table.addRow({"Manna (SRAM only)",
                  strformat("%.0f", arch::areaOf(sramOnly).total()),
                  strformat("%.0f", arch::tdpWatts(sramOnly)),
                  formatBytes(sramOnly.totalOnChipBytes()),
                  strformat("%.0f",
                            sramOnly.aggregateMatrixBandwidthGBs())});
    table.addRow({"Manna + 4x HBM2",
                  strformat("%.0f", arch::areaOf(withHbm).total()),
                  strformat("%.0f", arch::tdpWatts(withHbm)),
                  "DRAM-resident",
                  strformat("%.0f", hbmSupplyBytesPerSec / 1e9)});
    harness::printTable(table);

    std::printf("\nworst-case tile demand: %.0f GB/s; HBM supply: "
                "%.0f GB/s (%s)\n",
                tileDemandBytesPerSec / 1e9, hbmSupplyBytesPerSec / 1e9,
                hbmSupplyBytesPerSec >= tileDemandBytesPerSec
                    ? "sufficient"
                    : "insufficient");

    // Energy-efficiency impact: scale the measured SRAM-only energy
    // ratios by the TDP growth (the paper's 122x -> ~17x argument:
    // same performance, higher power envelope).
    const auto &bench = workloads::benchmarkByName(benchName);
    std::vector<harness::SweepJob> sweep{
        {bench, sramOnly, steps, /*seed=*/1}};
    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);

    if (report.outcomes[0].ok) {
        const auto &manna = report.outcomes[0].value;
        const auto gpu =
            harness::evaluateBaseline(bench, harness::gpu1080Ti());
        const double sramRatio =
            gpu.joulesPerStep / manna.joulesPerStep;
        const double hbmWatts = arch::tdpWatts(withHbm);
        const double sramWatts = arch::tdpWatts(sramOnly);
        const double hbmRatio = sramRatio * (sramWatts / hbmWatts);
        std::printf("\nenergy-efficiency advantage over 1080-Ti (%s): "
                    "%.0fx (SRAM only) -> ~%.0fx (with HBM power "
                    "envelope)\n",
                    bench.name.c_str(), sramRatio, hbmRatio);
    } else {
        std::printf("\nenergy-efficiency advantage over 1080-Ti (%s): "
                    "FAILED\n",
                    bench.name.c_str());
    }
    harness::printPaperReference(
        "Section 7.3: 4 HBM2 modules feed all 16 tiles; area grows "
        "40 -> 180 mm^2, TDP 16 -> 116 W, and the average energy "
        "advantage drops from 122x to ~17x.");
    harness::applySweepObservability(cfg, "sec73_hbm_scaling",
                                     report);
    return harness::finishSweep(report);
}
