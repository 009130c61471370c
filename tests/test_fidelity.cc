/**
 * @file
 * fidelity=fast contract tests. Both fidelities compute every step
 * from the replay tape, so their tensor state (outputs, read vectors,
 * gathered memory, and the DNC's link matrix and usage vector) must
 * match bit for bit; the fast report must also carry the cycle
 * report's stats key set and extrapolate its cycle count within the
 * 5% tolerance gate. Whether the tape's passes (fusion, staging
 * elision, block ops) compute what per-instruction execution did is
 * pinned by the tensor digests of ChipEngine.PinnedCountersBothDrivers
 * in test_dnc_chip.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "compiler/compiler.hh"
#include "compiler/dnc_codegen.hh"
#include "sim/chip.hh"
#include "sim/dnc_chip.hh"
#include "sim/fidelity.hh"

namespace manna::sim
{
namespace
{

using mann::DncConfig;
using mann::MannConfig;
using tensor::FVec;

// Enough steps that fast mode extrapolates most of the run (steps 1-2
// are timed; 3+ only replay).
constexpr std::size_t kSteps = 8;

MannConfig
ntmConfig()
{
    MannConfig cfg;
    cfg.memN = 64;
    cfg.memM = 32;
    cfg.numReadHeads = 2;
    cfg.numWriteHeads = 1;
    cfg.controllerLayers = 1;
    cfg.controllerWidth = 32;
    cfg.inputDim = 6;
    cfg.outputDim = 5;
    return cfg;
}

DncConfig
dncConfig()
{
    DncConfig cfg;
    cfg.memN = 48;
    cfg.memM = 24;
    cfg.numReadHeads = 2;
    cfg.controllerWidth = 32;
    cfg.inputDim = 6;
    cfg.outputDim = 5;
    return cfg;
}

std::vector<FVec>
inputs(std::size_t dim, std::size_t steps, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<FVec> in(steps, FVec(dim));
    for (auto &x : in)
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
    return in;
}

void
expectBitEqual(const FVec &a, const FVec &b, const char *what,
               std::size_t step)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
        std::uint32_t ba = 0;
        std::uint32_t bb = 0;
        std::memcpy(&ba, &a[i], 4);
        std::memcpy(&bb, &b[i], 4);
        ASSERT_EQ(ba, bb) << what << " diverges at step " << step
                          << " index " << i;
    }
}

/** Bitwise row-by-row comparison of two gathered matrices. */
void
expectBitEqual(const tensor::FMat &a, const tensor::FMat &b,
               const char *what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t r = 0; r < a.rows(); ++r)
        expectBitEqual(a.row(r), b.row(r), what, r);
}

/** Driver-specific end state beyond memory: the DNC's link matrix
 * and usage vector, which its replay tape rewrites every step. */
void
compareExtraState(const Chip &, const Chip &)
{
}

void
compareExtraState(const DncChip &cyc, const DncChip &fast)
{
    expectBitEqual(cyc.gatherLink(), fast.gatherLink(), "link");
    expectBitEqual(cyc.gatherUsage(), fast.gatherUsage(), "usage", 0);
}

template <typename ChipT, typename ModelT>
void
compareFidelities(const ModelT &model, std::size_t inputDim,
                  std::size_t readHeads)
{
    ChipT cyc(model, /*seed=*/21, Fidelity::Cycle);
    ChipT fast(model, /*seed=*/21, Fidelity::Fast);
    const auto in = inputs(inputDim, kSteps, 99);

    for (std::size_t t = 0; t < kSteps; ++t) {
        const FVec outC = cyc.step(in[t]);
        const FVec outF = fast.step(in[t]);
        expectBitEqual(outC, outF, "output", t);
        for (std::size_t h = 0; h < readHeads; ++h)
            expectBitEqual(cyc.readVectors()[h], fast.readVectors()[h],
                           "readVector", t);
    }

    expectBitEqual(cyc.gatherMemory(), fast.gatherMemory(), "memory");
    compareExtraState(cyc, fast);

    // Same stats catalog, fast marker set, cycle deviation <= 5%.
    const RunReport repC = cyc.report();
    const RunReport repF = fast.report();
    EXPECT_EQ(repC.steps, repF.steps);

    std::vector<std::string> keysC;
    std::vector<std::string> keysF;
    for (const auto &[k, v] : repC.stats.entries())
        keysC.push_back(k);
    for (const auto &[k, v] : repF.stats.entries())
        keysF.push_back(k);
    EXPECT_EQ(keysC, keysF);

    EXPECT_EQ(repC.stats.entries().at("fidelity.fast"), 0.0);
    EXPECT_EQ(repF.stats.entries().at("fidelity.fast"), 1.0);
    EXPECT_EQ(repF.stats.entries().at("fidelity.calibration_steps"),
              static_cast<double>(kFastCalibrationSteps));
    EXPECT_EQ(repF.stats.entries().at("fidelity.extrapolated_steps"),
              static_cast<double>(kSteps - kFastCalibrationSteps));

    ASSERT_GT(repC.totalCycles, 0u);
    const double dev =
        std::fabs(static_cast<double>(repF.totalCycles) -
                  static_cast<double>(repC.totalCycles)) /
        static_cast<double>(repC.totalCycles);
    EXPECT_LE(dev, 0.05) << "cycle=" << repC.totalCycles
                         << " fast=" << repF.totalCycles;
}

TEST(Fidelity, NtmChipFastBitIdenticalAndWithinTolerance)
{
    const auto mc = ntmConfig();
    const auto model =
        compiler::compile(mc, arch::MannaConfig::withTiles(4));
    compareFidelities<Chip>(model, mc.inputDim, mc.numReadHeads);
}

TEST(Fidelity, DncChipFastBitIdenticalAndWithinTolerance)
{
    const auto dc = dncConfig();
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    compareFidelities<DncChip>(model, dc.inputDim, dc.numReadHeads);
}

/** memN 50 on 4 tiles splits 13/13/13/11 rows, and memM 40 leaves a
 * short tail column block, so multi-row block ops, several column
 * blocks and a ragged last tile all replay. */
TEST(Fidelity, DncRaggedShapeFastBitIdentical)
{
    DncConfig dc = dncConfig();
    dc.memN = 50;
    dc.memM = 40;
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    compareFidelities<DncChip>(model, dc.inputDim, dc.numReadHeads);
}

/** A reset mid-run must drop the tape and recalibrate; the second run
 * must be bit-identical to a fresh fast chip's. */
template <typename ChipT, typename ModelT>
void
resetReplaysCleanly(const ModelT &model, std::size_t inputDim)
{
    const auto in = inputs(inputDim, kSteps, 7);
    ChipT a(model, 21, Fidelity::Fast);
    for (const auto &x : in)
        a.step(x);
    a.reset();
    ChipT b(model, 21, Fidelity::Fast);
    for (std::size_t t = 0; t < kSteps; ++t) {
        const FVec outA = a.step(in[t]);
        const FVec outB = b.step(in[t]);
        expectBitEqual(outA, outB, "post-reset output", t);
    }
}

TEST(Fidelity, FastResetReplaysCleanly)
{
    const auto mc = ntmConfig();
    resetReplaysCleanly<Chip>(
        compiler::compile(mc, arch::MannaConfig::withTiles(4)),
        mc.inputDim);
}

TEST(Fidelity, DncFastResetReplaysCleanly)
{
    const auto dc = dncConfig();
    resetReplaysCleanly<DncChip>(
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4)),
        dc.inputDim);
}

TEST(Fidelity, ParseRoundTrip)
{
    EXPECT_EQ(parseFidelity("cycle"), Fidelity::Cycle);
    EXPECT_EQ(parseFidelity("FAST"), Fidelity::Fast);
    EXPECT_EQ(parseFidelity("quick"), std::nullopt);
    EXPECT_STREQ(toString(Fidelity::Cycle), "cycle");
    EXPECT_STREQ(toString(Fidelity::Fast), "fast");
    EXPECT_EQ(parseFidelity(toString(Fidelity::Fast)), Fidelity::Fast);
}

} // namespace
} // namespace manna::sim
