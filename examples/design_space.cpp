/**
 * @file
 * Design-space sweep: vary the key microarchitectural parameters
 * (tile count, eMACs per tile, scratchpad size, SFU throughput) on a
 * fixed benchmark and report the time/energy landscape — the kind of
 * study the paper's simulator exists to support.
 *
 *   ./build/examples/design_space [benchmark=copy] [steps=6]
 */

#include <cstdio>

#include "arch/area_model.hh"
#include "common/config.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/experiment.hh"

using namespace manna;

namespace
{

void
sweepRow(Table &table, const std::string &label,
         const workloads::Benchmark &bench,
         const arch::MannaConfig &hw, std::size_t steps)
{
    const auto result = harness::simulateManna(bench, hw, steps);
    table.addRow(
        {label, strformat("%.1f", result.secondsPerStep * 1e6),
         strformat("%.3f", result.joulesPerStep * 1e3),
         strformat("%.1f", arch::areaOf(hw).total()),
         strformat("%.1f", arch::tdpWatts(hw))});
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    const workloads::Benchmark bench = workloads::benchmarkByName(
        cfg.getString("benchmark", "copy"));
    const std::size_t steps =
        static_cast<std::size_t>(cfg.getInt("steps", 6));

    std::printf("design-space sweep on '%s' (%s)\n\n",
                bench.name.c_str(), bench.config.summary().c_str());

    Table table({"Configuration", "us/step", "mJ/step",
                 "area (mm^2)", "TDP (W)"});

    // Tile count.
    for (std::size_t tiles : {4u, 8u, 16u, 32u})
        sweepRow(table, strformat("%zu tiles", tiles), bench,
                 arch::MannaConfig::withTiles(tiles), steps);
    table.addSeparator();

    // eMACs per tile (compute/bandwidth balance).
    for (std::size_t emacs : {16u, 32u, 64u}) {
        arch::MannaConfig hw = arch::MannaConfig::baseline16();
        hw.emacsPerTile = emacs;
        hw.matrixBufferWidthWords = std::min<std::size_t>(32, emacs);
        sweepRow(table, strformat("16 tiles, %zu eMACs", emacs),
                 bench, hw, steps);
    }
    table.addSeparator();

    // Matrix-Scratchpad capacity (block size).
    for (std::size_t kib : {8u, 16u, 32u}) {
        arch::MannaConfig hw = arch::MannaConfig::baseline16();
        hw.matrixScratchpadBytes = kib * 1024;
        sweepRow(table, strformat("16 tiles, %zu KiB mspad", kib),
                 bench, hw, steps);
    }
    table.addSeparator();

    // SFU throughput (the strong-scaling limiter of Section 7.3).
    for (std::size_t sfus : {1u, 2u, 4u}) {
        arch::MannaConfig hw = arch::MannaConfig::baseline16();
        hw.sfusPerTile = sfus;
        sweepRow(table, strformat("16 tiles, %zu SFUs", sfus), bench,
                 hw, steps);
    }

    std::printf("%s", table.render().c_str());
    std::printf("\nNotes: the eMAC sweep shows the "
                "bandwidth-matched compute provisioning argument; "
                "the SFU sweep shows the serial-SFU bottleneck the "
                "paper identifies in its strong-scaling analysis.\n");
    return 0;
}
