/**
 * @file
 * Compiler explorer: show what the Manna compiler produces for a
 * MANN — the mapping decisions (blocking, loop orderings), the
 * memory layout partitions, capacity diagnostics, and the full
 * disassembly of one tile's step program.
 *
 *   ./build/examples/compiler_explorer [benchmark=copy] [tiles=16]
 *   ./build/examples/compiler_explorer benchmark=tiny tile=0
 */

#include <cstdio>

#include "common/config.hh"
#include "compiler/compiler.hh"
#include "workloads/benchmarks.hh"

using namespace manna;

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    const std::string benchName = cfg.getString("benchmark", "tiny");
    const std::size_t tiles =
        static_cast<std::size_t>(cfg.getInt("tiles", 4));
    const std::size_t tile =
        static_cast<std::size_t>(cfg.getInt("tile", 0));

    const workloads::Benchmark bench =
        benchName == "tiny" ? workloads::tinyBenchmark()
                            : workloads::benchmarkByName(benchName);
    const arch::MannaConfig hw = arch::MannaConfig::withTiles(tiles);

    std::printf("MANN: %s\n\n", bench.config.summary().c_str());

    const compiler::CompiledModel model =
        compiler::compile(bench.config, hw);

    std::printf("=== mapping ===\n%s\n",
                model.mapping.describe().c_str());

    std::printf("=== layout ===\n");
    const auto &mem = model.layout.memory;
    std::printf("external memory at mbuf[%u], %u cols; rows per "
                "tile:",
                mem.base, mem.cols);
    for (auto rows : mem.rowCount)
        std::printf(" %u", rows);
    std::printf("\n");
    for (std::size_t h = 0; h < model.layout.headWeights.size(); ++h) {
        const auto &part = model.layout.headWeights[h];
        std::printf("head %zu weights at mbuf[%u], %u cols "
                    "(hidden+bias), %u rows total\n",
                    h, part.base, part.cols,
                    part.rowStart.back() + part.rowCount.back());
    }
    std::printf("\n");

    if (!model.warnings.empty()) {
        std::printf("=== capacity diagnostics ===\n");
        for (const auto &w : model.warnings)
            std::printf("  warning: %s\n", w.c_str());
        std::printf("\n");
    }

    std::printf("=== per-segment static/dynamic instruction counts "
                "(tile %zu) ===\n",
                tile);
    for (const auto &seg : model.stepSegments) {
        const auto &prog = seg.tilePrograms.at(tile);
        std::printf("  %-16s %5zu static  %8llu dynamic\n",
                    seg.name.c_str(), prog.size(),
                    static_cast<unsigned long long>(
                        prog.dynamicLength()));
    }

    std::printf("\n=== disassembly (tile %zu) ===\n%s", tile,
                model.disassembleTile(tile).c_str());
    return 0;
}
