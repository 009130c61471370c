/**
 * @file
 * Reproduces the Section 8 related-work contrast: why fixed-function
 * MemNet accelerators (MnnFast [22], the DATE'19 FPGA design [29])
 * are insufficient for NTM/DNC-class MANNs, and what Manna's
 * generality costs/buys.
 *
 * Quantifies the paper's two arguments:
 *  1. MemNets never soft-write, so element-wise write support is
 *     unnecessary there but critical for NTMs ("support for
 *     element-wise operations ... leads to speedups of 2.8x");
 *  2. MemNet memory is static per episode, so a transposed copy can
 *     be stored instead of transposing on chip — at 2x memory
 *     capacity — whereas the NTM memory updates every step, making
 *     the on-chip DMAT necessary ("on-chip transpose ... 1.4x").
 *
 * The MemHeavy ablation point is measured on the simulator through
 * the sweep harness (knobs: bench= [default copy], steps=, jobs=,
 * retries=/timeout=/journal=/resume=, progress=/stats=/bench_json=,
 * server=); failed points render as FAILED and the binary exits
 * nonzero after the full output.
 */

#include <cstdio>

#include "common/config.hh"
#include "common/strutil.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/observe.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "mann/memnet.hh"
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

    harness::printBanner(
        "Section 8",
        "MemNet accelerators vs Manna: operation-profile contrast");

    // A MemN2N sized like the copy NTM's memory.
    mann::MemNetConfig mnCfg;
    mnCfg.numSentences = 1024;
    mnCfg.embedDim = 256;
    mnCfg.sentenceDim = 64;
    mnCfg.hops = 3;
    mann::MemNet memnet(mnCfg, 1);
    const auto mnWork = memnet.queryWork();

    const auto &copy = workloads::benchmarkByName(
        cfg.getString("bench", "copy"));
    const mann::OpCounter ntm(copy.config);
    const auto ntmWork = ntm.nonControllerWork();

    Table table({"Model", "MACs/step", "Elwise/step", "Elwise share",
                 "Soft-write ops", "Memory mutates?"});
    const double mnTotal = static_cast<double>(
        mnWork.macOps + mnWork.elwiseOps + mnWork.specialOps);
    table.addRow({"MemN2N (1024x256, 3 hops)",
                  strformat("%llu", (unsigned long long)mnWork.macOps),
                  strformat("%llu",
                            (unsigned long long)mnWork.elwiseOps),
                  formatPercent(static_cast<double>(mnWork.elwiseOps) /
                                mnTotal),
                  strformat("%llu",
                            (unsigned long long)mnWork.memWriteOps),
                  "no (episode-static)"});
    const double ntmTotal = static_cast<double>(
        ntmWork.macOps + ntmWork.elwiseOps + ntmWork.specialOps);
    const auto writeWork =
        ntm.kernelWork(mann::Kernel::SoftWrite);
    table.addRow({strformat("NTM %s (%zux%zu)", copy.name.c_str(),
                            copy.config.memN, copy.config.memM),
                  strformat("%llu",
                            (unsigned long long)ntmWork.macOps),
                  strformat("%llu",
                            (unsigned long long)ntmWork.elwiseOps),
                  formatPercent(static_cast<double>(ntmWork.elwiseOps) /
                                ntmTotal),
                  strformat("%llu",
                            (unsigned long long)writeWork.elwiseOps),
                  "yes (every step)"});
    harness::printTable(table);

    // Storage: transposed-copy strategy vs DMAT.
    const double memMiB =
        static_cast<double>(copy.config.memoryBytes()) /
        (1024.0 * 1024.0);
    std::printf(
        "\ntranspose strategies for both-direction access:\n"
        "  MemNet accelerators: store M and M^T   -> %.1f MiB "
        "(2x capacity; possible only because M is static)\n"
        "  Manna:               DMAT skew padding -> %.1f MiB + "
        "1/%zu scratchpad padding overhead (works with per-step "
        "writes)\n",
        2.0 * memMiB, memMiB,
        arch::MannaConfig().matrixBufferWidthWords);

    // What the NTM loses on a write-less, transpose-less design: the
    // Figure 14 ablation measured on the real simulator, executed
    // through the fault-isolated sweep harness.
    const std::vector<harness::SweepJob> sweep{
        {copy, arch::MannaConfig::baseline16(), steps, /*seed=*/1},
        {copy, arch::MannaConfig::memHeavy(), steps, /*seed=*/1}};
    harness::SweepRunner runner(jobs);
    const auto report = runner.runChecked(sweep, opts);
    if (report.outcomes[0].ok && report.outcomes[1].ok)
        std::printf("\nrunning the NTM on a MemNet-style design (no "
                    "eMAC, no DMAT) costs %.1fx in performance "
                    "(Figure 14's MemHeavy point).\n",
                    report.outcomes[1].value.secondsPerStep /
                        report.outcomes[0].value.secondsPerStep);
    else
        std::printf("\nrunning the NTM on a MemNet-style design (no "
                    "eMAC, no DMAT): FAILED\n");
    harness::printPaperReference(
        "Section 8: \"since MemNets do not require soft writes, these "
        "accelerators are not designed to support non-MAC operations\" "
        "and \"store a copy of the memory in its transposed form\"; "
        "the ablations attribute 2.8x to element-wise support and "
        "1.4x to on-chip transpose.");
    harness::applySweepObservability(cfg, "sec8_memnet_contrast",
                                     report);
    return harness::finishSweep(report);
}
