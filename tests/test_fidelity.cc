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
 * in test_dnc_chip. The fast report's extrapolation is checked bit for
 * bit against a registry-level reference extrapolation of two cycle
 * reports.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
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
    // The op-counter peak-rate estimate is stamped in both fidelities.
    const double analytic =
        repC.stats.entries().at("fidelity.analytic_cycles_per_step");
    EXPECT_GT(analytic, 0.0);
    EXPECT_EQ(analytic,
              repF.stats.entries().at("fidelity.analytic_cycles_per_step"));

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

/**
 * Reference extrapolation at the registry level: extend every stats
 * key, energy term and kernel-group tally of @p r2 (one step after
 * @p r1) to @p steps steps by (v2 - v1) per step, then recompute the
 * step/cycle counts and the utilization ratios. fidelity=fast must
 * produce exactly this from its raw counter snapshots.
 */
RunReport
extrapolateRunReport(const RunReport &r1, const RunReport &r2,
                     std::size_t steps)
{
    const auto extraSteps = static_cast<Cycle>(steps - r2.steps);
    const double extra = static_cast<double>(extraSteps);

    RunReport out = r2; // keeps descriptions and the full key set
    out.steps = steps;
    const Cycle cyclesPerStep = r2.totalCycles - r1.totalCycles;
    out.totalCycles = r2.totalCycles + cyclesPerStep * extraSteps;
    out.totalSeconds =
        r2.totalSeconds + (r2.totalSeconds - r1.totalSeconds) * extra;
    out.dynamicEnergyPj =
        r2.dynamicEnergyPj +
        (r2.dynamicEnergyPj - r1.dynamicEnergyPj) * extra;
    out.leakageEnergyPj =
        r2.leakageEnergyPj +
        (r2.leakageEnergyPj - r1.leakageEnergyPj) * extra;
    out.infrastructureEnergyPj =
        r2.infrastructureEnergyPj +
        (r2.infrastructureEnergyPj - r1.infrastructureEnergyPj) *
            extra;

    for (auto &[group, gs] : out.groups) {
        GroupStats prev; // groups absent at step 1 extrapolate from 0
        const auto it = r1.groups.find(group);
        if (it != r1.groups.end())
            prev = it->second;
        gs.cycles += (gs.cycles - prev.cycles) * extraSteps;
        gs.energyPj += (gs.energyPj - prev.energyPj) * extra;
    }

    for (const auto &[key, v2] : r2.stats.entries()) {
        const double v1 = r1.stats.get(key);
        out.stats.set(key, v2 + (v2 - v1) * extra);
    }

    // Fix up the non-linear (ratio) and count keys.
    out.stats.set("chip.steps", static_cast<double>(steps));
    out.stats.set("chip.cycles", static_cast<double>(out.totalCycles));
    const double total = static_cast<double>(out.totalCycles);
    const double tiles = out.stats.get("chip.tiles");
    if (total > 0.0 && tiles > 0.0) {
        for (const char *engine : {"emac", "sfu", "mat_dma", "vec_dma"}) {
            const double busy = out.stats.sumOver(
                "tile", std::string(engine) + ".busy_cycles");
            const double util = busy / (total * tiles);
            out.resourceUtilization[engine] = util;
            out.stats.set(std::string("chip.util.") + engine, util);
        }
    }
    return out;
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Every key, value, group, total and energy of two reports, bit for
 * bit. */
void
expectReportsBitEqual(const RunReport &want, const RunReport &got)
{
    EXPECT_EQ(want.steps, got.steps);
    EXPECT_EQ(want.totalCycles, got.totalCycles);
    EXPECT_EQ(bitsOf(want.totalSeconds), bitsOf(got.totalSeconds));
    EXPECT_EQ(bitsOf(want.dynamicEnergyPj), bitsOf(got.dynamicEnergyPj));
    EXPECT_EQ(bitsOf(want.leakageEnergyPj), bitsOf(got.leakageEnergyPj));
    EXPECT_EQ(bitsOf(want.infrastructureEnergyPj),
              bitsOf(got.infrastructureEnergyPj));

    ASSERT_EQ(want.groups.size(), got.groups.size());
    for (const auto &[group, gs] : want.groups) {
        const auto it = got.groups.find(group);
        ASSERT_NE(it, got.groups.end()) << mann::toString(group);
        EXPECT_EQ(gs.cycles, it->second.cycles) << mann::toString(group);
        EXPECT_EQ(bitsOf(gs.energyPj), bitsOf(it->second.energyPj))
            << mann::toString(group);
    }

    ASSERT_EQ(want.resourceUtilization.size(),
              got.resourceUtilization.size());
    for (const auto &[engine, util] : want.resourceUtilization)
        EXPECT_EQ(bitsOf(util), bitsOf(got.resourceUtilization.at(engine)))
            << engine;

    const auto &w = want.stats.entries();
    const auto &g = got.stats.entries();
    ASSERT_EQ(w.size(), g.size());
    for (auto wi = w.begin(), gi = g.begin(); wi != w.end(); ++wi, ++gi) {
        ASSERT_EQ(wi->first, gi->first);
        EXPECT_EQ(bitsOf(wi->second), bitsOf(gi->second))
            << wi->first << ": want " << wi->second << " got "
            << gi->second;
    }
}

/** A fast chip's 7-step report must equal the reference extrapolation
 * of a cycle chip's reports after steps 1 and 2, bit for bit. */
template <typename ChipT, typename ModelT>
void
fastMatchesReferenceExtrapolation(const ModelT &model,
                                  std::size_t inputDim)
{
    constexpr std::size_t kRunSteps = 7;
    const auto in = inputs(inputDim, kRunSteps, 31);

    ChipT cyc(model, /*seed=*/21, Fidelity::Cycle);
    cyc.step(in[0]);
    const RunReport r1 = cyc.report();
    cyc.step(in[1]);
    const RunReport r2 = cyc.report();
    RunReport want = extrapolateRunReport(r1, r2, kRunSteps);
    markFidelity(want, Fidelity::Fast, kFastCalibrationSteps,
                 kRunSteps - kFastCalibrationSteps,
                 r2.stats.get("fidelity.analytic_cycles_per_step"));

    ChipT fast(model, /*seed=*/21, Fidelity::Fast);
    for (const auto &x : in)
        fast.step(x);
    expectReportsBitEqual(want, fast.report());
}

TEST(Fidelity, FastReportMatchesReferenceExtrapolation)
{
    const auto mc = ntmConfig();
    const auto dc = dncConfig();
    for (const std::size_t tiles : {1u, 4u, 16u}) {
        SCOPED_TRACE(tiles);
        const auto arch = arch::MannaConfig::withTiles(tiles);
        fastMatchesReferenceExtrapolation<Chip>(
            compiler::compile(mc, arch), mc.inputDim);
        fastMatchesReferenceExtrapolation<DncChip>(
            compiler::compileDnc(dc, arch), dc.inputDim);
    }
}

/** memN 50 on 16 tiles splits 4 rows each over tiles 0-11, 2 on tile
 * 12 and none on tiles 13-15. */
TEST(Fidelity, FastReportMatchesReferenceExtrapolationRagged)
{
    MannConfig mc = ntmConfig();
    mc.memN = 50;
    DncConfig dc = dncConfig();
    dc.memN = 50;
    dc.memM = 40;
    const auto arch = arch::MannaConfig::withTiles(16);
    fastMatchesReferenceExtrapolation<Chip>(compiler::compile(mc, arch),
                                            mc.inputDim);
    fastMatchesReferenceExtrapolation<DncChip>(
        compiler::compileDnc(dc, arch), dc.inputDim);
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
