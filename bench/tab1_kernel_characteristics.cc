/**
 * @file
 * Reproduces Table 1: per-kernel key primitive, asymptotic memory
 * accesses, FLOPs/Byte, and reduction direction — plus measured
 * numeric values for the selected benchmark's shape (bench=, default
 * copy) and the kernel group's simulated cycles/step at the paper's
 * 16-tile configuration.
 *
 * The simulated column runs through the sweep harness, so the usual
 * knobs apply (steps=, jobs=, retries=/timeout=/journal=/resume=,
 * progress=/stats=/bench_json=, server=); a failed simulation renders
 * as FAILED cells and makes the binary exit nonzero.
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
        harness::stepsFromConfig(cfg, 4);
    const std::size_t jobs =
        static_cast<std::size_t>(cfg.getInt("jobs", 0));
    const harness::SweepOptions opts =
        harness::sweepOptionsFromConfig(cfg);

    harness::printBanner("Table 1",
                         "Summary of kernels in the Neural Turing "
                         "Machine");

    const auto &copy = workloads::benchmarkByName(
        cfg.getString("bench", "copy"));
    const mann::OpCounter counter(copy.config);

    // The measured per-group cycle column comes from the simulator at
    // the paper's 16-tile point, via the fault-isolated sweep runner.
    const std::vector<harness::SweepJob> sweep{
        {copy, arch::MannaConfig::baseline16(), steps, /*seed=*/1}};
    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);
    const auto &outcome = report.outcomes[0];

    Table table({"Kernel", "Key Primitive", "Mem. Accesses",
                 "FLOPs/Byte", "Reduction",
                 strformat("Measured FLOPs/B (%s)", copy.name.c_str()),
                 "Group cycles/step (16T)"});
    for (mann::Kernel k : mann::allKernels()) {
        if (k == mann::Kernel::Controller)
            continue; // Table 1 lists the MANN-specific kernels
        const mann::KernelWork work = counter.kernelWork(k);
        std::string cycles = "FAILED";
        if (outcome.ok) {
            const auto &groups = outcome.value.report.groups;
            const auto it = groups.find(mann::groupOf(k));
            cycles = it == groups.end()
                         ? "-"
                         : strformat("%.0f",
                                     static_cast<double>(
                                         it->second.cycles) /
                                         static_cast<double>(steps));
        }
        table.addRow({toString(k),
                      mann::OpCounter::primitiveName(k),
                      mann::OpCounter::accessExpression(k),
                      mann::OpCounter::symbolicFlopsPerByte(k),
                      mann::OpCounter::reductionDirection(k),
                      strformat("%.2f", work.flopsPerByte()),
                      cycles});
    }
    harness::printTable(table);
    harness::printPaperReference(
        "Table 1: access kernels are O(Mn*Mm*heads) with FLOPs/Byte of "
        "only Hr/Hw/Hr+Hw; addressing kernels are O(Mn*heads) with "
        "FLOPs/Byte of 2-3; key similarity reduces row-wise and soft "
        "read column-wise.");
    harness::applySweepObservability(cfg, "tab1_kernel_characteristics",
                                     report);
    return harness::finishSweep(report);
}
