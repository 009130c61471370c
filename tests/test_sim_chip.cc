/**
 * @file
 * End-to-end validation of the whole stack: compiled tile programs
 * running on the cycle-level chip model must reproduce the golden
 * NTM's outputs, read vectors, and memory contents within FP
 * reassociation tolerance, across shapes, head counts, tile counts,
 * and controller kinds.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "common/error.hh"
#include "compiler/compiler.hh"
#include "compiler/dnc_codegen.hh"
#include "mann/ntm.hh"
#include "sim/chip.hh"
#include "sim/dnc_chip.hh"
#include "workloads/benchmarks.hh"

namespace manna::sim
{
namespace
{

using mann::MannConfig;
using tensor::FVec;

MannConfig
makeConfig(std::size_t memN, std::size_t memM, std::size_t readHeads,
           std::size_t writeHeads, std::size_t width = 32)
{
    MannConfig cfg;
    cfg.memN = memN;
    cfg.memM = memM;
    cfg.numReadHeads = readHeads;
    cfg.numWriteHeads = writeHeads;
    cfg.controllerLayers = 1;
    cfg.controllerWidth = width;
    cfg.inputDim = 6;
    cfg.outputDim = 5;
    return cfg;
}

/** Run chip and golden side by side; return max observed deviation. */
struct Deviation
{
    float output = 0.0f;
    float reads = 0.0f;
    float memory = 0.0f;
};

Deviation
compareChipToGolden(const MannConfig &mc, const arch::MannaConfig &ac,
                    std::size_t steps, std::uint64_t seed = 11)
{
    const auto model = compiler::compile(mc, ac);
    Chip chip(model, seed);
    mann::Ntm golden(mc, seed);
    Rng rng(seed * 31 + 1);

    Deviation dev;
    for (std::size_t t = 0; t < steps; ++t) {
        FVec x(mc.inputDim);
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        const auto goldenTrace = golden.step(x);
        const FVec out = chip.step(x);
        dev.output = std::max(
            dev.output, tensor::maxAbsDiff(out, goldenTrace.output));
        for (std::size_t h = 0; h < mc.numReadHeads; ++h)
            dev.reads = std::max(
                dev.reads,
                tensor::maxAbsDiff(chip.readVectors()[h],
                                   goldenTrace.readVectors[h]));
        dev.memory = std::max(dev.memory,
                              chip.gatherMemory().maxAbsDiff(
                                  golden.memory().matrix()));
    }
    return dev;
}

TEST(Chip, MatchesGoldenSmall)
{
    const auto dev = compareChipToGolden(
        makeConfig(64, 32, 1, 1), arch::MannaConfig::withTiles(4), 6);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.reads, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

TEST(Chip, MatchesGoldenMultiHead)
{
    const auto dev = compareChipToGolden(
        makeConfig(64, 24, 3, 2), arch::MannaConfig::withTiles(4), 5);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.reads, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

TEST(Chip, MatchesGoldenSixteenTiles)
{
    const auto dev = compareChipToGolden(
        makeConfig(128, 32, 2, 1), arch::MannaConfig::baseline16(), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

TEST(Chip, MatchesGoldenNonDivisibleRows)
{
    // 72 rows over 16 tiles: ceil partition gives uneven row counts
    // (8 tiles of 5, then 32/..., including the remainder path).
    const auto dev = compareChipToGolden(
        makeConfig(72, 20, 1, 1), arch::MannaConfig::baseline16(), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

TEST(Chip, MatchesGoldenWiderShiftKernel)
{
    // Shift radius 2 exercises the five-tap circular convolution and
    // the wider halo exchange.
    MannConfig cfg = makeConfig(64, 24, 2, 1);
    cfg.shiftRadius = 2;
    const auto dev = compareChipToGolden(
        cfg, arch::MannaConfig::withTiles(8), 5);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.reads, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

TEST(Chip, MatchesGoldenLstmController)
{
    MannConfig cfg = makeConfig(64, 16, 1, 1);
    cfg.controllerKind = mann::ControllerKind::LSTM;
    const auto dev = compareChipToGolden(
        cfg, arch::MannaConfig::withTiles(4), 5);
    EXPECT_LT(dev.output, 1e-3f);
}

TEST(Chip, MatchesGoldenWithoutDmat)
{
    // The ablation variants change timing, never functionality.
    const auto dev = compareChipToGolden(
        makeConfig(64, 32, 2, 1), arch::MannaConfig::memHeavy(), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
}

class ChipShapeSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int>>
{
};

TEST_P(ChipShapeSweep, MatchesGolden)
{
    const auto [memN, memM, readHeads, writeHeads, tiles] = GetParam();
    const auto dev = compareChipToGolden(
        makeConfig(static_cast<std::size_t>(memN),
                   static_cast<std::size_t>(memM),
                   static_cast<std::size_t>(readHeads),
                   static_cast<std::size_t>(writeHeads)),
        arch::MannaConfig::withTiles(static_cast<std::size_t>(tiles)),
        3);
    EXPECT_LT(dev.output, 2e-3f);
    EXPECT_LT(dev.reads, 2e-3f);
    EXPECT_LT(dev.memory, 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChipShapeSweep,
    ::testing::Values(std::tuple{32, 8, 1, 1, 2},
                      std::tuple{64, 40, 2, 1, 8},
                      std::tuple{96, 16, 1, 2, 4},
                      std::tuple{128, 64, 4, 1, 16},
                      std::tuple{80, 48, 5, 1, 16},
                      std::tuple{100, 12, 2, 2, 4}));

// ---------------------------------------------------------------------
// Determinism / state management
// ---------------------------------------------------------------------

TEST(Chip, DeterministicAcrossRuns)
{
    const MannConfig mc = makeConfig(64, 16, 1, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip a(model, 5);
    Chip b(model, 5);
    const FVec x(mc.inputDim, 0.25f);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(a.step(x), b.step(x));
    EXPECT_EQ(a.report().totalCycles, b.report().totalCycles);
}

TEST(Chip, ResetRestoresInitialState)
{
    const MannConfig mc = makeConfig(64, 16, 1, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 5);
    const FVec x(mc.inputDim, 0.5f);
    const FVec first = chip.step(x);
    chip.step(x);
    chip.reset();
    EXPECT_EQ(chip.report().steps, 0u);
    EXPECT_EQ(chip.report().totalCycles, 0u);
    EXPECT_LT(tensor::maxAbsDiff(first, chip.step(x)), 1e-6f);
}

TEST(Chip, InitialMemoryMatchesGoldenInit)
{
    const MannConfig mc = makeConfig(48, 12, 1, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 9);
    const tensor::FMat mem = chip.gatherMemory();
    for (float v : mem.data())
        EXPECT_FLOAT_EQ(v, 1e-6f);
}

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

TEST(Chip, ReportCoversAllKernelGroups)
{
    const MannConfig mc = makeConfig(64, 16, 2, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 3);
    chip.step(FVec(mc.inputDim, 0.1f));
    const RunReport rep = chip.report();
    EXPECT_EQ(rep.steps, 1u);
    EXPECT_GT(rep.totalCycles, 0u);
    EXPECT_GT(rep.totalEnergyPj(), 0.0);
    for (mann::KernelGroup g : mann::allKernelGroups()) {
        ASSERT_TRUE(rep.groups.count(g)) << mann::toString(g);
        EXPECT_GT(rep.groups.at(g).cycles, 0u) << mann::toString(g);
        EXPECT_GT(rep.groups.at(g).energyPj, 0.0) << mann::toString(g);
    }
    // Group cycles sum to the total (segments partition the step).
    Cycle groupSum = 0;
    for (const auto &[g, gs] : rep.groups)
        groupSum += gs.cycles;
    EXPECT_EQ(groupSum, rep.totalCycles);
}

TEST(Chip, EnergyAndTimeGrowWithSteps)
{
    const MannConfig mc = makeConfig(64, 16, 1, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 3);
    const FVec x(mc.inputDim, 0.1f);
    chip.step(x);
    const auto one = chip.report();
    chip.step(x);
    const auto two = chip.report();
    EXPECT_GT(two.totalCycles, one.totalCycles);
    EXPECT_GT(two.totalEnergyPj(), one.totalEnergyPj());
    EXPECT_GT(two.stepsPerJoule(), 0.0);
    EXPECT_GT(one.secondsPerStep(), 0.0);
}

TEST(Chip, RenderReportMentionsGroups)
{
    const MannConfig mc = makeConfig(64, 16, 1, 1);
    const auto model = compiler::compile(
        mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 3);
    chip.step(FVec(mc.inputDim, 0.0f));
    const std::string text = chip.report().render();
    EXPECT_NE(text.find("soft-read"), std::string::npos);
    EXPECT_NE(text.find("steps/J"), std::string::npos);
}

// ---------------------------------------------------------------------
// Timing depends on the program only. The tile interpreter times each
// step without computing it and the replay tape computes it, which is
// sound only if no timing decision ever reads data.
// ---------------------------------------------------------------------

struct TimedEpisode
{
    RunReport report;
    FVec lastOutput;
};

/** Three cycle-mode steps of a chip built from @p seed, on inputs
 * drawn from @p episodeSeed. */
template <typename ChipT, typename ModelT>
TimedEpisode
runEpisode(const ModelT &model, std::size_t inputDim, std::uint64_t seed,
           std::uint64_t episodeSeed)
{
    ChipT chip(model, seed, Fidelity::Cycle);
    Rng rng(episodeSeed);
    TimedEpisode out;
    for (int t = 0; t < 3; ++t) {
        FVec x(inputDim);
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-2.0, 2.0));
        out.lastOutput = chip.step(x);
    }
    out.report = chip.report();
    return out;
}

void
expectSameTiming(const TimedEpisode &a, const TimedEpisode &b)
{
    // The episodes really did compute different things...
    EXPECT_NE(a.lastOutput, b.lastOutput);
    // ...yet every timing and energy figure is identical, bit for bit.
    EXPECT_EQ(a.report.totalCycles, b.report.totalCycles);
    EXPECT_EQ(a.report.dynamicEnergyPj, b.report.dynamicEnergyPj);
    EXPECT_EQ(a.report.leakageEnergyPj, b.report.leakageEnergyPj);
    EXPECT_EQ(a.report.infrastructureEnergyPj,
              b.report.infrastructureEnergyPj);
    ASSERT_EQ(a.report.groups.size(), b.report.groups.size());
    for (const auto &[group, gs] : a.report.groups) {
        ASSERT_EQ(b.report.groups.count(group), 1u);
        EXPECT_EQ(gs.cycles, b.report.groups.at(group).cycles);
        EXPECT_EQ(gs.energyPj, b.report.groups.at(group).energyPj);
    }
    EXPECT_EQ(a.report.stats.entries(), b.report.stats.entries());
}

TEST(ChipTiming, IndependentOfWeightsAndInputs)
{
    const MannConfig mc = makeConfig(40, 16, 2, 1);
    mann::DncConfig dc;
    dc.memN = 40;
    dc.memM = 16;
    dc.numReadHeads = 2;
    dc.controllerWidth = 32;
    dc.inputDim = 6;
    dc.outputDim = 5;
    for (const std::size_t tiles : {1u, 4u, 16u}) {
        SCOPED_TRACE("tiles=" + std::to_string(tiles));
        const auto ac = arch::MannaConfig::withTiles(tiles);
        const auto ntm = compiler::compile(mc, ac);
        expectSameTiming(runEpisode<Chip>(ntm, mc.inputDim, 1, 100),
                         runEpisode<Chip>(ntm, mc.inputDim, 2, 200));
        const auto dnc = compiler::compileDnc(dc, ac);
        expectSameTiming(runEpisode<DncChip>(dnc, dc.inputDim, 1, 100),
                         runEpisode<DncChip>(dnc, dc.inputDim, 2, 200));
    }
}

TEST(ChipTiming, StaleTapeFailsTheNextTimedStep)
{
    const MannConfig mc = makeConfig(64, 16, 1, 1);
    compiler::CompiledModel model =
        compiler::compile(mc, arch::MannaConfig::withTiles(4));
    Chip chip(model, 3);
    const FVec x(mc.inputDim, 0.5f);
    chip.step(x); // records the tape

    // Move one source operand of one tile instruction down a word
    // (still in bounds): the program now resolves a different op.
    isa::Instruction *edited = nullptr;
    for (auto &segment : model.stepSegments) {
        for (auto &inst : segment.tilePrograms[0].instructions()) {
            if (inst.op != isa::Opcode::Reduce &&
                inst.op != isa::Opcode::Broadcast &&
                inst.srcA.valid() && inst.srcA.base > 0) {
                edited = &inst;
                break;
            }
        }
        if (edited != nullptr)
            break;
    }
    ASSERT_NE(edited, nullptr);
    edited->srcA.base -= 1;

    try {
        chip.step(x);
        FAIL() << "step 2 ran on a stale tape";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("step 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ChipTiming, StaleTapeFailsInsideAFastForwardedLoop)
{
    const MannConfig mc = makeConfig(64, 16, 1, 1);
    for (const Fidelity fidelity : {Fidelity::Cycle, Fidelity::Fast}) {
        compiler::CompiledModel model =
            compiler::compile(mc, arch::MannaConfig::withTiles(4));
        Chip chip(model, 3, fidelity);
        const FVec x(mc.inputDim, 0.5f);
        chip.step(x); // records the tape

        // The soft write's row loop (its body holds the EwRsubImm) is
        // long enough to be fast-forwarded, so the tape takes most of
        // its ops as one run. Move a source of one of them a word down.
        isa::Instruction *edited = nullptr;
        for (auto &segment : model.stepSegments) {
            if (segment.name != "soft-write")
                continue;
            auto &insts = segment.tilePrograms[0].instructions();
            std::size_t loop = 0;
            for (std::size_t i = 0; i < insts.size(); ++i) {
                if (insts[i].op == isa::Opcode::Loop)
                    loop = i;
                if (insts[i].op == isa::Opcode::EwRsubImm)
                    break;
            }
            ASSERT_GE(insts[loop].count, 3u);
            for (std::size_t j = loop + 1; !edited; ++j)
                if (insts[j].srcA.valid() && insts[j].srcA.base > 0)
                    edited = &insts[j];
        }
        ASSERT_NE(edited, nullptr);
        ASSERT_EQ(edited->op, isa::Opcode::EwMul);
        edited->srcA.base -= 1;

        try {
            chip.step(x);
            FAIL() << "step 2 ran on a stale tape";
        } catch (const SimError &e) {
            EXPECT_NE(std::string(e.what()).find("step 2"),
                      std::string::npos)
                << e.what();
        }
    }
}

// ---------------------------------------------------------------------
// Loop fast-forward oracle. A chip with a zero-capacity TraceLogger
// attached interprets every instruction (a trace lists each one); the
// fast-forwarding chip must match it bit for bit: every report field
// and stats value, and every output, read vector and memory word.
// ---------------------------------------------------------------------

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

void
expectSameBits(const FVec &a, const FVec &b)
{
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)),
              0);
}

void
expectSameBits(const tensor::FMat &a, const tensor::FMat &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    for (std::size_t r = 0; r < a.rows(); ++r)
        expectSameBits(a.row(r), b.row(r));
}

void
expectSameReport(const RunReport &a, const RunReport &b)
{
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(bitsOf(a.totalSeconds), bitsOf(b.totalSeconds));
    EXPECT_EQ(bitsOf(a.dynamicEnergyPj), bitsOf(b.dynamicEnergyPj));
    EXPECT_EQ(bitsOf(a.leakageEnergyPj), bitsOf(b.leakageEnergyPj));
    EXPECT_EQ(bitsOf(a.infrastructureEnergyPj),
              bitsOf(b.infrastructureEnergyPj));
    ASSERT_EQ(a.groups.size(), b.groups.size());
    for (const auto &[group, gs] : a.groups) {
        ASSERT_EQ(b.groups.count(group), 1u);
        EXPECT_EQ(gs.cycles, b.groups.at(group).cycles);
        EXPECT_EQ(bitsOf(gs.energyPj), bitsOf(b.groups.at(group).energyPj));
    }
    ASSERT_EQ(a.resourceUtilization.size(), b.resourceUtilization.size());
    for (const auto &[name, util] : a.resourceUtilization)
        EXPECT_EQ(bitsOf(util), bitsOf(b.resourceUtilization.at(name)))
            << name;
    ASSERT_EQ(a.stats.size(), b.stats.size());
    for (const auto &[key, value] : a.stats.entries()) {
        ASSERT_TRUE(b.stats.has(key)) << key;
        EXPECT_EQ(bitsOf(value), bitsOf(b.stats.get(key))) << key;
    }
}

void
expectSameEndState(const Chip &a, const Chip &b)
{
    expectSameBits(a.gatherMemory(), b.gatherMemory());
}

void
expectSameEndState(const DncChip &a, const DncChip &b)
{
    expectSameBits(a.gatherMemory(), b.gatherMemory());
    expectSameBits(a.gatherLink(), b.gatherLink());
    expectSameBits(a.gatherUsage(), b.gatherUsage());
}

template <typename ChipT, typename ModelT>
void
expectFastForwardExact(const ModelT &model, std::size_t inputDim,
                       Fidelity fidelity)
{
    ChipT fast(model, 9, fidelity);
    ChipT literal(model, 9, fidelity);
    TraceLogger everyInstruction(0);
    literal.attachTrace(&everyInstruction);
    Rng rng(21);
    for (std::size_t t = 0; t < 3; ++t) {
        FVec x(inputDim);
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        expectSameBits(fast.step(x), literal.step(x));
        ASSERT_EQ(fast.readVectors().size(), literal.readVectors().size());
        for (std::size_t h = 0; h < fast.readVectors().size(); ++h)
            expectSameBits(fast.readVectors()[h], literal.readVectors()[h]);
    }
    EXPECT_GT(everyInstruction.dropped(), 0u);
    expectSameEndState(fast, literal);
    expectSameReport(fast.report(), literal.report());
}

class FastForwardOracle : public ::testing::TestWithParam<const char *>
{
};

TEST_P(FastForwardOracle, MatchesLiteralInterpretation)
{
    const std::string name = GetParam();
    for (const std::size_t tiles : {1u, 4u, 16u}) {
        const auto ac = arch::MannaConfig::withTiles(tiles);
        for (const Fidelity fidelity : {Fidelity::Cycle, Fidelity::Fast}) {
            SCOPED_TRACE(name + " x" + std::to_string(tiles) + " " +
                         toString(fidelity));
            if (name == "dnc512") {
                // perfbench's dnc512 shape.
                const auto &stimulus =
                    workloads::benchmarkByName("travers").config;
                mann::DncConfig dc;
                dc.memN = 512;
                dc.memM = 64;
                dc.numReadHeads = 2;
                dc.controllerWidth = 128;
                dc.inputDim = stimulus.inputDim;
                dc.outputDim = stimulus.outputDim;
                expectFastForwardExact<DncChip>(
                    compiler::compileDnc(dc, ac), dc.inputDim, fidelity);
            } else {
                const MannConfig &mc =
                    workloads::benchmarkByName(name).config;
                expectFastForwardExact<Chip>(compiler::compile(mc, ac),
                                             mc.inputDim, fidelity);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Table2AndDnc, FastForwardOracle,
                         ::testing::Values("copy", "rptcopy", "recall",
                                           "ngrams", "sort", "bAbI",
                                           "short", "travers", "inf",
                                           "shrdlu", "dnc512"));

TEST(FastForwardOracle, UnevenRowsOnSixteenTiles)
{
    // memN 50 leaves the 16 tiles unequal row counts.
    const MannConfig mc = makeConfig(50, 16, 2, 1);
    const auto model =
        compiler::compile(mc, arch::MannaConfig::withTiles(16));
    for (const Fidelity fidelity : {Fidelity::Cycle, Fidelity::Fast}) {
        SCOPED_TRACE(toString(fidelity));
        expectFastForwardExact<Chip>(model, mc.inputDim, fidelity);
    }
}

} // namespace
} // namespace manna::sim
