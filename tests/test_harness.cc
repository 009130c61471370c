/**
 * @file
 * Tests for the harness utilities (environment overrides, reporting)
 * and a constrained fuzz of the tile interpreter: random but
 * well-formed element-wise/SFU programs must run to completion
 * deterministically with monotone timing.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>

#include "arch/energy_model.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "harness/experiment.hh"
#include "harness/proto.hh"
#include "harness/report.hh"
#include "harness/sweep.hh"
#include "sim/tile.hh"

namespace manna::harness
{
namespace
{

TEST(Harness, DefaultStepsEnvOverride)
{
    ::setenv("MANNA_STEPS", "7", 1);
    EXPECT_EQ(defaultSteps(), 7u);
    ::setenv("MANNA_STEPS", "bogus", 1);
    EXPECT_EQ(defaultSteps(), 12u); // warns and falls back
    ::unsetenv("MANNA_STEPS");
    EXPECT_EQ(defaultSteps(), 12u);
}

TEST(Harness, PrintTableHonoursCsvEnv)
{
    Table t({"A"});
    t.addRow({"x"});
    // Just exercise both paths; output goes to stdout.
    ::unsetenv("MANNA_CSV");
    printTable(t);
    ::setenv("MANNA_CSV", "1", 1);
    printTable(t);
    ::unsetenv("MANNA_CSV");
    SUCCEED();
}

TEST(Harness, BaselineAccessorsAreSingletons)
{
    EXPECT_EQ(&gpu1080Ti(), &gpu1080Ti());
    EXPECT_EQ(&gpu2080Ti(), &gpu2080Ti());
    EXPECT_EQ(&cpuXeon(), &cpuXeon());
    EXPECT_NE(gpu1080Ti().spec().name, gpu2080Ti().spec().name);
}

// ---------------------------------------------------------------------
// Bad steps= / fidelity= values fail loudly
// ---------------------------------------------------------------------

Config
configOf(const std::string &token)
{
    const char *argv[] = {"bench", token.c_str()};
    return Config::fromArgs(2, argv);
}

TEST(Harness, StepsKnobRejectsNonPositiveCounts)
{
    EXPECT_EQ(stepsFromConfig(Config(), 4), 4u);
    EXPECT_EQ(stepsFromConfig(configOf("steps=3"), 4), 3u);
    // 0 steps printed a table of -nan; -1 wrapped to 2^64 - 1 steps.
    EXPECT_EXIT(stepsFromConfig(configOf("steps=0"), 4),
                ::testing::ExitedWithCode(1), "fatal: .*steps=0");
    EXPECT_EXIT(stepsFromConfig(configOf("steps=-1"), 4),
                ::testing::ExitedWithCode(1), "fatal: .*steps=-1");
}

TEST(Harness, FidelityKnobRejectsUnknownValues)
{
    EXPECT_EQ(fidelityFromConfig(configOf("fidelity=fast")),
              sim::Fidelity::Fast);
    EXPECT_EQ(fidelityFromConfig(configOf("fidelity=CYCLE")),
              sim::Fidelity::Cycle);
    // An unknown value used to warn and run cycle mode.
    EXPECT_EXIT(fidelityFromConfig(configOf("fidelity=bogus")),
                ::testing::ExitedWithCode(1), "fatal: .*fidelity=bogus");
}

TEST(Harness, ServerKnobRejectsMalformedAddresses)
{
    EXPECT_EQ(sweepOptionsFromConfig(configOf("server=tcp:localhost:9"))
                  .server,
              "tcp:localhost:9");
    // A malformed address used to escape main() as an uncaught
    // ConfigError when the sweep first connected (SIGABRT, exit 134).
    EXPECT_EXIT(sweepOptionsFromConfig(configOf("server=x")),
                ::testing::ExitedWithCode(1), "fatal: .*server=x");
    EXPECT_EXIT(sweepOptionsFromConfig(configOf("server=tcp:host:0")),
                ::testing::ExitedWithCode(1), "fatal: .*server=tcp:host:0");
}

TEST(Harness, DaemonRejectsJobsWithoutSteps)
{
    // mannad decodes jobs from clients that may not have checked
    // steps=: zero and wrapped negative counts are refused.
    SweepJob job{workloads::tinyBenchmark(),
                 arch::MannaConfig::withTiles(4), 2, 1};
    std::string err;
    ASSERT_TRUE(proto::decodeJob(proto::encodeJob(job), &err)) << err;
    for (const std::size_t steps : {std::size_t(0), SIZE_MAX}) {
        job.steps = steps;
        EXPECT_FALSE(proto::decodeJob(proto::encodeJob(job), &err));
        EXPECT_NE(err.find("bad step count"), std::string::npos) << err;
    }
}

// ---------------------------------------------------------------------
// Constrained interpreter fuzz
// ---------------------------------------------------------------------

/** Generate a structurally valid program of element-wise/SFU ops over
 * a fixed VecBuf region, with occasional loops. */
isa::Program
fuzzProgram(Rng &rng, std::uint32_t words)
{
    using isa::Opcode;
    isa::Program prog;
    const Opcode pool[] = {
        Opcode::EwAdd,    Opcode::EwSub,     Opcode::EwMul,
        Opcode::EwMac,    Opcode::EwAddImm,  Opcode::EwMulImm,
        Opcode::EwRsubImm,Opcode::Fill,      Opcode::SfuSigmoid,
        Opcode::SfuTanh,  Opcode::SfuSoftplus,
    };
    const int count = 10 + static_cast<int>(rng.below(30));
    int openLoops = 0;
    for (int i = 0; i < count; ++i) {
        if (openLoops < 2 && rng.below(8) == 0) {
            prog.beginLoop(
                1 + static_cast<std::uint32_t>(rng.below(4)));
            ++openLoops;
            continue;
        }
        if (openLoops > 0 && rng.below(6) == 0) {
            prog.endLoop();
            --openLoops;
            continue;
        }
        isa::Instruction inst;
        inst.op = pool[rng.below(std::size(pool))];
        const std::uint32_t len =
            1 + static_cast<std::uint32_t>(rng.below(16));
        auto operand = [&](std::uint32_t l) {
            const std::uint32_t base = static_cast<std::uint32_t>(
                rng.below(words - l - 8));
            auto op = isa::makeOperand(isa::Space::VecBuf, base, l);
            // Small, loop-safe strides.
            op.stride[0] = static_cast<std::int32_t>(rng.below(3));
            return op;
        };
        const bool isSfu = inst.op == isa::Opcode::SfuSigmoid ||
                           inst.op == isa::Opcode::SfuTanh ||
                           inst.op == isa::Opcode::SfuSoftplus;
        inst.dst = operand(len);
        // SFU ops require matching source length; element-wise ops
        // may take a scalar broadcast.
        inst.srcA =
            operand(!isSfu && rng.below(4) == 0 ? 1 : len);
        if (inst.op == isa::Opcode::EwAdd ||
            inst.op == isa::Opcode::EwSub ||
            inst.op == isa::Opcode::EwMul ||
            inst.op == isa::Opcode::EwMac)
            inst.srcB = operand(rng.below(4) == 0 ? 1 : len);
        inst.imm = static_cast<float>(rng.uniform(-2.0, 2.0));
        prog.append(inst);
    }
    while (openLoops-- > 0)
        prog.endLoop();
    return prog;
}

class InterpreterFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(InterpreterFuzz, RandomProgramsRunDeterministically)
{
    Rng rng(GetParam());
    const std::uint32_t words = 256;
    const isa::Program prog = fuzzProgram(rng, words);
    ASSERT_EQ(prog.validate(), "");

    auto runOnce = [&](std::vector<float> &memoryOut) {
        arch::MannaConfig cfg;
        arch::EnergyModel energy(cfg);
        sim::DiffMemTile tile(
            cfg, energy, 0,
            sim::TileLayoutSizes{64, cfg.matrixScratchpadBytes / 4,
                                 words, 64});
        Rng dataRng(GetParam() ^ 0xabcdu);
        std::vector<float> init(words);
        for (auto &v : init)
            v = static_cast<float>(dataRng.uniform(-1.0, 1.0));
        tile.memory().writeRange(isa::Space::VecBuf, 0, init);
        tile.setProgram(&prog);
        EXPECT_EQ(sim::runAndCompute(tile), sim::RunStatus::Done);
        memoryOut =
            tile.memory().readRange(isa::Space::VecBuf, 0, words);
        return tile.quiesceTime();
    };

    std::vector<float> memA, memB;
    const Cycle timeA = runOnce(memA);
    const Cycle timeB = runOnce(memB);
    EXPECT_EQ(timeA, timeB);
    EXPECT_EQ(memA, memB);
    EXPECT_GT(timeA, 0u);
    // All values remain finite: the op pool only contains bounded
    // functions and affine combinations of bounded inputs.
    for (float v : memA)
        EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpreterFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

} // namespace
} // namespace manna::harness
