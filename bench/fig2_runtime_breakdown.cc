/**
 * @file
 * Reproduces Figure 2: per-kernel runtime breakdown of NTM inference
 * on the CPU (Skylake Xeon) and GPU (Turing) baselines across the
 * ten benchmarks.
 *
 * Paper headline: the non-controller kernels are ~80% of runtime; on
 * the CPU the memory-heavy access kernels dominate, while on the GPU
 * the narrow addressing kernels take a disproportionate share due to
 * kernel-call overheads and poor utilization.
 *
 * The table is a thin view over the BaselineResult stat registry
 * ("baseline.<group>.seconds" / "baseline.seconds"); pass
 * --dump-stats to print every underlying counter.
 */

#include <cstdio>

#include "common/config.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/observe.hh"
#include "harness/report.hh"

using namespace manna;

namespace
{

void
printBreakdown(const char *platformName, const char *platformKey,
               const baselines::PlatformModel &model,
               StatRegistry &dump)
{
    std::printf("\n--- %s ---\n", platformName);
    Table table({"Benchmark", "controller", "heads", "addressing",
                 "key-sim", "soft-read", "soft-write",
                 "non-controller"});
    for (const auto &bench : workloads::table2Suite()) {
        const auto result = harness::evaluateBaseline(bench, model);
        const StatRegistry &reg = result.stats;
        const double total = reg.get("baseline.seconds");
        auto frac = [&](const char *group) {
            const double sec = reg.get(
                std::string("baseline.") + group + ".seconds");
            return formatPercent(total > 0.0 ? sec / total : 0.0);
        };
        const double ctrl = reg.get("baseline.controller.seconds");
        table.addRow({bench.name, frac("controller"), frac("heads"),
                      frac("addressing"), frac("key_similarity"),
                      frac("soft_read"), frac("soft_write"),
                      formatPercent(total > 0.0 ? (total - ctrl) / total
                                                : 0.0)});
        for (const auto &[k, v] : reg.entries())
            dump.set(std::string(platformKey) + "." + bench.name +
                         "." + k,
                     v);
    }
    harness::printTable(table);
}

} // namespace

int
main(int argc, char **argv)
{
    const Config cfg = Config::fromCommandLine(argc, argv);
    harness::printBanner("Figure 2",
                         "Runtime breakdown of different NTM kernels");
    StatRegistry dump;
    printBreakdown("CPU (Skylake Xeon)", "cpu", harness::cpuXeon(),
                   dump);
    printBreakdown("GPU (Turing RTX 2080-Ti)", "gpu",
                   harness::gpu2080Ti(), dump);
    harness::printPaperReference(
        "Figure 2: non-controller kernels are ~80% of runtime. On CPUs "
        "the dominant kernels are key similarity / soft read / soft "
        "write; on GPUs the vector-only addressing kernels are an "
        "unexpectedly large portion (narrow-task overheads).");
    harness::dumpStatsIfRequested(cfg, dump);
    return 0;
}
