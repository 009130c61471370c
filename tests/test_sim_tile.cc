/**
 * @file
 * Unit tests for the DiffMem tile model: functional semantics of
 * every instruction class, and the timing behaviour that matters
 * architecturally (double buffering, SFU serialization, bank-conflict
 * and no-eMAC penalties).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>

#include "arch/energy_model.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "isa/assembler.hh"
#include "sim/tile.hh"

namespace manna::sim
{
namespace
{

using isa::Instruction;
using isa::Opcode;
using isa::Operand;
using isa::Space;

struct TileFixture
{
    arch::MannaConfig cfg;
    arch::EnergyModel energy;
    DiffMemTile tile;
    isa::Program program;

    explicit TileFixture(arch::MannaConfig c = arch::MannaConfig{})
        : cfg(std::move(c)), energy(cfg),
          tile(cfg, energy, 0,
               TileLayoutSizes{1 << 16, cfg.matrixScratchpadBytes / 4,
                               1 << 14, cfg.vectorScratchpadBytes / 4})
    {
    }

    /** Run the accumulated program to completion and compute it. */
    void run()
    {
        ASSERT_EQ(program.validate(), "");
        tile.setProgram(&program);
        ASSERT_EQ(runAndCompute(tile), RunStatus::Done);
    }

    void writeVec(Space space, std::uint32_t base,
                  const std::vector<float> &v)
    {
        tile.memory().writeRange(space, base, v);
    }

    std::vector<float> readVec(Space space, std::uint32_t base,
                               std::uint32_t len)
    {
        return tile.memory().readRange(space, base, len);
    }
};

Instruction
inst(Opcode op, Operand dst, Operand a = {}, Operand b = {},
     float imm = 0.0f)
{
    Instruction i;
    i.op = op;
    i.dst = dst;
    i.srcA = a;
    i.srcB = b;
    i.imm = imm;
    return i;
}

Operand
vb(std::uint32_t base, std::uint32_t len)
{
    return isa::makeOperand(Space::VecBuf, base, len);
}

// ---------------------------------------------------------------------
// TileMemory
// ---------------------------------------------------------------------

TEST(TileMemory, ReadWriteRoundTrip)
{
    TileMemory mem(64, 64, 64, 64);
    mem.write(Space::MatBuf, 3, 1.5f);
    EXPECT_FLOAT_EQ(mem.read(Space::MatBuf, 3), 1.5f);
    mem.writeRange(Space::VecBuf, 4, {1.0f, 2.0f});
    EXPECT_EQ(mem.readRange(Space::VecBuf, 4, 2),
              (std::vector<float>{1.0f, 2.0f}));
    EXPECT_EQ(mem.words(Space::MatSpad), 64u);
}

TEST(TileMemoryDeathTest, OutOfBoundsCaught)
{
    TileMemory mem(8, 8, 8, 8);
    EXPECT_DEATH(mem.read(Space::MatBuf, 8), "out of");
    EXPECT_DEATH(mem.readRange(Space::VecBuf, 6, 4), "out of");
}

TEST(OperandDeathTest, AddressBeyond32BitsCaught)
{
    // Cast to uint32, address 2^32 + 2 would wrap to 2 and pass the
    // span bounds check.
    const Operand op =
        isa::makeStridedOperand(Space::VecBuf, 4294967290u, 4, 8);
    const std::int64_t iters[isa::kMaxLoopDepth] = {1, 0, 0};
    EXPECT_EQ(op.effectiveBase(iters, 0), 4294967290u);
    EXPECT_DEATH(op.effectiveBase(iters, 1), "address overflow");
}

// ---------------------------------------------------------------------
// Element-wise semantics
// ---------------------------------------------------------------------

TEST(TileElementwise, AllOpsComputeCorrectly)
{
    TileFixture f;
    f.writeVec(Space::VecBuf, 0, {1.0f, 2.0f, 3.0f, 4.0f});
    f.writeVec(Space::VecBuf, 4, {10.0f, 20.0f, 30.0f, 40.0f});
    f.program.append(
        inst(Opcode::EwAdd, vb(8, 4), vb(0, 4), vb(4, 4)));
    f.program.append(
        inst(Opcode::EwSub, vb(12, 4), vb(4, 4), vb(0, 4)));
    f.program.append(
        inst(Opcode::EwMul, vb(16, 4), vb(0, 4), vb(4, 4)));
    f.program.append(inst(Opcode::Fill, vb(20, 4), {}, {}, 2.0f));
    f.program.append(
        inst(Opcode::EwMac, vb(20, 4), vb(0, 4), vb(4, 4)));
    f.program.append(
        inst(Opcode::EwAddImm, vb(24, 4), vb(0, 4), {}, 0.5f));
    f.program.append(
        inst(Opcode::EwMulImm, vb(28, 4), vb(0, 4), {}, -2.0f));
    f.program.append(
        inst(Opcode::EwRsubImm, vb(32, 4), vb(0, 4), {}, 1.0f));
    f.run();
    EXPECT_EQ(f.readVec(Space::VecBuf, 8, 4),
              (std::vector<float>{11, 22, 33, 44}));
    EXPECT_EQ(f.readVec(Space::VecBuf, 12, 4),
              (std::vector<float>{9, 18, 27, 36}));
    EXPECT_EQ(f.readVec(Space::VecBuf, 16, 4),
              (std::vector<float>{10, 40, 90, 160}));
    EXPECT_EQ(f.readVec(Space::VecBuf, 20, 4),
              (std::vector<float>{12, 42, 92, 162}));
    EXPECT_EQ(f.readVec(Space::VecBuf, 24, 4),
              (std::vector<float>{1.5, 2.5, 3.5, 4.5}));
    EXPECT_EQ(f.readVec(Space::VecBuf, 28, 4),
              (std::vector<float>{-2, -4, -6, -8}));
    EXPECT_EQ(f.readVec(Space::VecBuf, 32, 4),
              (std::vector<float>{0, -1, -2, -3}));
}

TEST(TileElementwise, ScalarBroadcastOperand)
{
    TileFixture f;
    f.writeVec(Space::VecBuf, 0, {1.0f, 2.0f, 3.0f});
    f.writeVec(Space::VecBuf, 8, {10.0f});
    f.program.append(
        inst(Opcode::EwMul, vb(16, 3), vb(0, 3), vb(8, 1)));
    f.run();
    EXPECT_EQ(f.readVec(Space::VecBuf, 16, 3),
              (std::vector<float>{10, 20, 30}));
}

TEST(TileElementwise, LoopStridedAddressing)
{
    TileFixture f;
    f.writeVec(Space::VecBuf, 0, {1.0f, 2.0f, 3.0f, 4.0f});
    // dst[i] = a[i] + 1 for four loop iterations, stride 1.
    f.program.beginLoop(4);
    f.program.append(inst(Opcode::EwAddImm,
                          isa::makeStridedOperand(Space::VecBuf, 8, 1, 1),
                          isa::makeStridedOperand(Space::VecBuf, 0, 1, 1),
                          {}, 1.0f));
    f.program.endLoop();
    f.run();
    EXPECT_EQ(f.readVec(Space::VecBuf, 8, 4),
              (std::vector<float>{2, 3, 4, 5}));
}

// ---------------------------------------------------------------------
// SFU semantics
// ---------------------------------------------------------------------

TEST(TileSfu, FunctionsMatchStdMath)
{
    TileFixture f;
    f.writeVec(Space::VecBuf, 0, {0.5f, -1.0f, 2.0f});
    f.program.append(inst(Opcode::SfuExp, vb(8, 3), vb(0, 3)));
    f.program.append(inst(Opcode::SfuSigmoid, vb(12, 3), vb(0, 3)));
    f.program.append(inst(Opcode::SfuTanh, vb(16, 3), vb(0, 3)));
    f.program.append(inst(Opcode::SfuSoftplus, vb(20, 3), vb(0, 3)));
    f.writeVec(Space::VecBuf, 4, {4.0f, 9.0f, 16.0f});
    f.program.append(inst(Opcode::SfuSqrt, vb(24, 3), vb(4, 3)));
    f.program.append(inst(Opcode::SfuRecip, vb(28, 3), vb(4, 3)));
    f.run();
    for (int i = 0; i < 3; ++i) {
        const float x = f.readVec(Space::VecBuf, 0, 3)[i];
        EXPECT_NEAR(f.readVec(Space::VecBuf, 8, 3)[i], std::exp(x),
                    1e-5f);
        EXPECT_NEAR(f.readVec(Space::VecBuf, 12, 3)[i],
                    1.0f / (1.0f + std::exp(-x)), 1e-5f);
        EXPECT_NEAR(f.readVec(Space::VecBuf, 16, 3)[i], std::tanh(x),
                    1e-5f);
    }
    EXPECT_EQ(f.readVec(Space::VecBuf, 24, 3),
              (std::vector<float>{2, 3, 4}));
    EXPECT_NEAR(f.readVec(Space::VecBuf, 28, 3)[0], 0.25f, 1e-6f);
}

TEST(TileSfu, PowUsesScalarExponent)
{
    TileFixture f;
    f.writeVec(Space::VecBuf, 0, {2.0f, 3.0f, -1.0f});
    f.writeVec(Space::VecBuf, 4, {2.0f}); // gamma
    f.program.append(
        inst(Opcode::SfuPow, vb(8, 3), vb(0, 3), vb(4, 1)));
    f.run();
    const auto out = f.readVec(Space::VecBuf, 8, 3);
    EXPECT_FLOAT_EQ(out[0], 4.0f);
    EXPECT_FLOAT_EQ(out[1], 9.0f);
    EXPECT_FLOAT_EQ(out[2], 0.0f); // negatives clamp to zero
}

TEST(TileSfu, Accumulators)
{
    TileFixture f;
    f.writeVec(Space::VecBuf, 0, {1.0f, 5.0f, -2.0f, 3.0f});
    f.program.append(inst(Opcode::SfuAccSum, vb(8, 1), vb(0, 4)));
    f.program.append(inst(Opcode::SfuAccMax, vb(9, 1), vb(0, 4)));
    f.run();
    EXPECT_FLOAT_EQ(f.readVec(Space::VecBuf, 8, 1)[0], 7.0f);
    EXPECT_FLOAT_EQ(f.readVec(Space::VecBuf, 9, 1)[0], 5.0f);
}

TEST(TileSfu, SerializationDominatesTiming)
{
    // N elements through the SFU must cost ~N * sfuExpCycles, while
    // the same N through the eMACs costs ~N / emacsPerTile.
    TileFixture f;
    const std::uint32_t n = 256;
    f.writeVec(Space::VecBuf, 0, std::vector<float>(n, 0.5f));
    f.program.append(inst(Opcode::SfuExp, vb(512, n), vb(0, n)));
    f.run();
    const Cycle sfuTime = f.tile.quiesceTime();
    EXPECT_GE(sfuTime, n * f.cfg.sfuExpCycles);

    TileFixture g;
    g.writeVec(Space::VecBuf, 0, std::vector<float>(n, 0.5f));
    g.program.append(
        inst(Opcode::EwAddImm, vb(512, n), vb(0, n), {}, 1.0f));
    g.run();
    EXPECT_LT(g.tile.quiesceTime() * 16, sfuTime);
}

// ---------------------------------------------------------------------
// DMA and VMM
// ---------------------------------------------------------------------

/** Build a 2D matrix DMA load instruction. */
Instruction
dmaLoad(bool dmat, std::uint32_t srcBase, std::uint32_t rows,
        std::uint32_t rowWords, std::uint32_t pitch)
{
    Instruction i;
    i.op = dmat ? Opcode::DmatLoadM : Opcode::DmaLoadM;
    i.srcA = isa::makeOperand(Space::MatBuf, srcBase, rows * rowWords);
    i.dst = isa::makeOperand(Space::MatSpad, 0,
                             rows * (rowWords + (dmat ? 1 : 0)));
    i.srcB.base = pitch;
    i.count = rows;
    return i;
}

TEST(TileDma, StridedLoadCopiesBlock)
{
    TileFixture f;
    // A 4x8 matrix in MatBuf; load the 2x3 block at (1, 2).
    std::vector<float> mat(32);
    for (std::size_t i = 0; i < 32; ++i)
        mat[i] = static_cast<float>(i);
    f.writeVec(Space::MatBuf, 0, mat);
    f.program.append(dmaLoad(false, 1 * 8 + 2, 2, 3, 8));
    f.run();
    EXPECT_EQ(f.readVec(Space::MatSpad, 0, 6),
              (std::vector<float>{10, 11, 12, 18, 19, 20}));
}

TEST(TileDma, DmatLoadSkewPads)
{
    TileFixture f;
    std::vector<float> mat(16);
    for (std::size_t i = 0; i < 16; ++i)
        mat[i] = static_cast<float>(i + 1);
    f.writeVec(Space::MatBuf, 0, mat);
    f.program.append(dmaLoad(true, 0, 2, 4, 8));
    f.run();
    // Row 0 at pitch 5, row 1 at offset 5.
    const auto spad = f.readVec(Space::MatSpad, 0, 10);
    EXPECT_EQ(spad[0], 1.0f);
    EXPECT_EQ(spad[3], 4.0f);
    EXPECT_EQ(spad[5], 9.0f);
    EXPECT_EQ(spad[8], 12.0f);
}

TEST(TileDma, StoreWritesBack)
{
    TileFixture f;
    f.writeVec(Space::MatSpad, 0, {1.0f, 2.0f, 3.0f, 4.0f});
    Instruction store;
    store.op = Opcode::DmaStoreM;
    store.srcA = isa::makeOperand(Space::MatSpad, 0, 4);
    store.dst = isa::makeOperand(Space::MatBuf, 16, 4);
    store.srcB.base = 8; // destination pitch
    store.count = 2;
    f.program.append(store);
    f.run();
    EXPECT_EQ(f.readVec(Space::MatBuf, 16, 2),
              (std::vector<float>{1.0f, 2.0f}));
    EXPECT_EQ(f.readVec(Space::MatBuf, 24, 2),
              (std::vector<float>{3.0f, 4.0f}));
}

TEST(TileDma, VectorTransfer)
{
    TileFixture f;
    f.writeVec(Space::VecBuf, 0, {5.0f, 6.0f, 7.0f});
    Instruction load;
    load.op = Opcode::DmaLoadV;
    load.srcA = vb(0, 3);
    load.dst = isa::makeOperand(Space::VecSpad, 1, 3);
    f.program.append(load);
    f.run();
    EXPECT_EQ(f.readVec(Space::VecSpad, 1, 3),
              (std::vector<float>{5.0f, 6.0f, 7.0f}));
}

TEST(TileVmm, ColumnAccumulateMatchesReference)
{
    TileFixture f;
    // 3 rows x 4 cols block in MatSpad; w = [1, 2, 3].
    f.writeVec(Space::MatSpad, 0,
               {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12});
    f.writeVec(Space::VecSpad, 0, {1.0f, 2.0f, 3.0f});
    Instruction vmm;
    vmm.op = Opcode::Vmm;
    vmm.srcA = isa::makeOperand(Space::VecSpad, 0, 3);
    vmm.srcB = isa::makeOperand(Space::MatSpad, 0, 12);
    vmm.dst = vb(0, 4);
    f.program.append(vmm);
    f.run();
    // out[c] = 1*row0 + 2*row1 + 3*row2.
    EXPECT_EQ(f.readVec(Space::VecBuf, 0, 4),
              (std::vector<float>{38, 44, 50, 56}));
}

TEST(TileVmm, RowDotWithNormsMatchesReference)
{
    TileFixture f;
    f.writeVec(Space::MatSpad, 0, {1, 2, 3, 4, 5, 6}); // 2x3, no skew
    f.writeVec(Space::VecSpad, 0, {1.0f, 0.0f, -1.0f});
    Instruction vmm;
    vmm.op = Opcode::Vmm;
    vmm.flags.rowDot = true;
    vmm.flags.withNorms = true;
    vmm.srcA = isa::makeOperand(Space::VecSpad, 0, 3);
    vmm.srcB = isa::makeOperand(Space::MatSpad, 0, 6);
    vmm.dst = vb(0, 2);
    vmm.count = 8; // norms at dst.base + 8
    f.program.append(vmm);
    f.run();
    EXPECT_EQ(f.readVec(Space::VecBuf, 0, 2),
              (std::vector<float>{-2.0f, -2.0f}));
    EXPECT_EQ(f.readVec(Space::VecBuf, 8, 2),
              (std::vector<float>{14.0f, 77.0f}));
}

TEST(TileVmm, AccumulateFlagAccumulates)
{
    TileFixture f;
    f.writeVec(Space::MatSpad, 0, {1, 1, 1, 1});
    f.writeVec(Space::VecSpad, 0, {1.0f, 1.0f});
    f.writeVec(Space::VecBuf, 0, {10.0f, 20.0f});
    Instruction vmm;
    vmm.op = Opcode::Vmm;
    vmm.flags.accumulate = true;
    vmm.srcA = isa::makeOperand(Space::VecSpad, 0, 2);
    vmm.srcB = isa::makeOperand(Space::MatSpad, 0, 4);
    vmm.dst = vb(0, 2);
    f.program.append(vmm);
    f.run();
    EXPECT_EQ(f.readVec(Space::VecBuf, 0, 2),
              (std::vector<float>{12.0f, 22.0f}));
}

// ---------------------------------------------------------------------
// Timing behaviour
// ---------------------------------------------------------------------

/** A streaming loop: load a block, consume it with a vmm. */
void
appendStreamLoop(TileFixture &f, std::uint32_t blocks,
                 std::uint32_t rows, std::uint32_t rowWords, bool skew)
{
    f.program.beginLoop(blocks);
    Instruction load = dmaLoad(skew, 0, rows, rowWords, rowWords);
    load.srcA.stride[0] = 0; // reread the same block; timing only
    f.program.append(load);
    Instruction vmm;
    vmm.op = Opcode::Vmm;
    vmm.srcA = isa::makeOperand(Space::VecSpad, 0, rows);
    vmm.srcB = isa::makeOperand(
        Space::MatSpad, 0, rows * (rowWords + (skew ? 1 : 0)));
    if (skew) {
        vmm.flags.rowDot = true;
        vmm.flags.skewed = true;
        vmm.srcA = isa::makeOperand(Space::VecSpad, 0, rowWords);
        vmm.dst = vb(0, rows);
    } else {
        vmm.dst = vb(0, rowWords);
    }
    f.program.append(vmm);
    f.program.endLoop();
}

TEST(TileTiming, DoubleBufferingOverlapsDmaAndCompute)
{
    // With double buffering, the steady-state cost per block is
    // max(dma, compute), not dma + compute.
    arch::MannaConfig cfg;
    TileFixture f(cfg);
    const std::uint32_t rows = 32, rowWords = 32, blocks = 50;
    f.writeVec(Space::VecSpad, 0, std::vector<float>(rows, 1.0f));
    appendStreamLoop(f, blocks, rows, rowWords, false);
    f.run();
    const Cycle total = f.tile.quiesceTime();

    // Per block: DMA = 32 rows x 1 access = 32 cycles; compute = 32
    // rows x ceil(32/32) = 32 cycles. Overlapped cost ~= 32/block,
    // serial would be ~64/block.
    EXPECT_LT(total, blocks * 48);
    EXPECT_GE(total, blocks * 30);
}

TEST(TileTiming, NoEmacPenaltySlowsElwiseOnly)
{
    arch::MannaConfig withEmac;
    arch::MannaConfig noEmac;
    noEmac.hasEmac = false;

    auto timeElwise = [](arch::MannaConfig cfg) {
        TileFixture f(cfg);
        f.writeVec(Space::VecBuf, 0, std::vector<float>(1024, 1.0f));
        f.program.append(inst(Opcode::EwAddImm, vb(2048, 1024),
                              vb(0, 1024), {}, 1.0f));
        f.run();
        return f.tile.quiesceTime();
    };
    const Cycle fast = timeElwise(withEmac);
    const Cycle slow = timeElwise(noEmac);
    EXPECT_EQ(slow, fast * withEmac.elwisePenaltyNoEmac);

    // MACs are not penalized.
    auto timeMac = [](arch::MannaConfig cfg) {
        TileFixture f(cfg);
        f.writeVec(Space::VecBuf, 0, std::vector<float>(1024, 1.0f));
        f.program.append(inst(Opcode::EwMac, vb(2048, 1024),
                              vb(0, 1024), vb(0, 1024)));
        f.run();
        return f.tile.quiesceTime();
    };
    EXPECT_EQ(timeMac(withEmac), timeMac(noEmac));
}

TEST(TileTiming, UnskewedRowDotPaysConflictFactor)
{
    arch::MannaConfig cfg;
    auto timeRowDot = [&cfg](bool skewed) {
        TileFixture f(cfg);
        const std::uint32_t rows = 32, cols = 32;
        const std::uint32_t pitch = cols + (skewed ? 1 : 0);
        f.writeVec(Space::MatSpad, 0,
                   std::vector<float>(rows * pitch, 1.0f));
        f.writeVec(Space::VecSpad, 0, std::vector<float>(cols, 1.0f));
        Instruction vmm;
        vmm.op = Opcode::Vmm;
        vmm.flags.rowDot = true;
        vmm.flags.skewed = skewed;
        vmm.srcA = isa::makeOperand(Space::VecSpad, 0, cols);
        vmm.srcB = isa::makeOperand(Space::MatSpad, 0, rows * pitch);
        vmm.dst = vb(0, rows);
        f.program.append(vmm);
        f.run();
        return f.tile.quiesceTime();
    };
    const Cycle skewedTime = timeRowDot(true);
    const Cycle conflictTime = timeRowDot(false);
    EXPECT_GT(conflictTime,
              skewedTime * (cfg.noDmatConflictFactor - 1));
}

TEST(TileTiming, EnergyAccumulates)
{
    TileFixture f;
    f.writeVec(Space::VecBuf, 0, std::vector<float>(64, 1.0f));
    const Energy before = f.tile.energyPj();
    f.program.append(
        inst(Opcode::EwAddImm, vb(128, 64), vb(0, 64), {}, 1.0f));
    f.run();
    EXPECT_GT(f.tile.energyPj(), before);
    EXPECT_GT(f.tile.counters().counter(TileCounter::Instructions), 0.0);
}

TEST(TileComm, BlocksAtReduceAndResumes)
{
    TileFixture f;
    f.writeVec(Space::VecBuf, 0, {1.0f});
    Instruction red;
    red.op = Opcode::Reduce;
    red.srcA = vb(0, 1);
    f.program.append(red);
    f.program.append(inst(Opcode::Fill, vb(1, 1), {}, {}, 3.0f));
    ASSERT_EQ(f.program.validate(), "");
    f.tile.setProgram(&f.program);
    ASSERT_EQ(runAndCompute(f.tile), RunStatus::AtComm);
    EXPECT_EQ(f.tile.commInstruction().op, Opcode::Reduce);
    const Cycle resume = f.tile.quiesceTime() + 25;
    f.tile.resumeAfterComm(resume);
    EXPECT_EQ(f.tile.now(), resume);
    ASSERT_EQ(runAndCompute(f.tile), RunStatus::Done);
    EXPECT_FLOAT_EQ(f.readVec(Space::VecBuf, 1, 1)[0], 3.0f);
}

// The hand-written example kernels, run standalone by runAndCompute()
// on asm_runner's seed data: every tile counter, the per-opcode
// profile and the energy bits, and every word they leave in memory.
TEST(TileStandalone, ExampleKernelsPinned)
{
    struct Row
    {
        const char *file;
        Cycle quiesce;
        std::uint64_t energyBits;
        std::uint64_t countersDigest; ///< ctr, then the op profile
        std::uint64_t memoryDigest;
    };
    const Row expected[] = {
        {"copy_kernel.masm", 24,
         0x40ad32d685c6174dull, 0x58357f5115b147fdull, 0xa441fef8876bb494ull},
        {"softread_softmax.masm", 212,
         0x40b20f5d1cca6907ull, 0xbf78743f83fe07baull, 0x6acd158754d05937ull},
    };
    for (const Row &want : expected) {
        SCOPED_TRACE(want.file);
        std::ifstream in(std::string(MANNA_EXAMPLES_DIR "/") + want.file);
        ASSERT_TRUE(in);
        std::ostringstream text;
        text << in.rdbuf();
        const isa::AssembleResult assembled = isa::assemble(text.str());
        ASSERT_TRUE(assembled.ok()) << assembled.error;
        TileFixture f;
        f.program = assembled.program;
        Rng rng(7);
        std::vector<float> mat(8 * 32), w(8);
        for (auto &v : mat)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        for (auto &v : w)
            v = static_cast<float>(rng.uniform(0.0, 1.0));
        f.writeVec(Space::MatBuf, 0, mat);
        f.writeVec(Space::VecBuf, 64, w);
        f.run();

        const TileCounters &c = f.tile.counters();
        std::uint64_t energyBits = 0;
        std::memcpy(&energyBits, &c.energyPj, sizeof energyBits);
        Fnv1a counters;
        counters.bytes(c.ctr, sizeof c.ctr)
            .bytes(c.opCycles, sizeof c.opCycles)
            .bytes(c.opOps, sizeof c.opOps)
            .bytes(c.opWords, sizeof c.opWords);
        Fnv1a memory;
        for (const Space space : {Space::MatBuf, Space::MatSpad,
                                  Space::VecBuf, Space::VecSpad}) {
            const TileMemory &mem = f.tile.memory();
            memory.bytes(mem.span(space, 0, 0),
                         mem.words(space) * sizeof(float));
        }
        EXPECT_EQ(f.tile.quiesceTime(), want.quiesce);
        EXPECT_EQ(energyBits, want.energyBits) << std::hex << energyBits;
        EXPECT_EQ(counters.value(), want.countersDigest)
            << std::hex << counters.value();
        EXPECT_EQ(memory.value(), want.memoryDigest)
            << std::hex << memory.value();
    }
}

TEST(TileCounters, NamesFollowLaneAndReason)
{
    // The stall counters are an index computation over (lane,
    // reason); the name table must agree with it slot by slot.
    const char *const engines[kNumLanes] = {"emac", "sfu", "mat_dma",
                                            "vec_dma"};
    for (std::size_t l = 0; l < kNumLanes; ++l) {
        const auto lane = static_cast<TraceLane>(l);
        EXPECT_EQ(std::string(counterName(busyCounter(lane))),
                  std::string(engines[l]) + ".busy_cycles");
        for (std::size_t r = 0; r < kNumStallReasons; ++r) {
            const auto reason = static_cast<StallReason>(r);
            EXPECT_EQ(std::string(counterName(stallCounter(lane, reason))),
                      std::string(engines[l]) + ".stall." +
                          toString(reason));
        }
    }
}

TEST(TileCounters, ExportWritesEveryCounterAndResetZeroes)
{
    TileFixture f;
    f.program.append(
        inst(Opcode::EwAddImm, vb(128, 64), vb(0, 64), {}, 1.0f));
    f.run();
    StatRegistry reg;
    f.tile.counters().exportStats(reg, "tile.0");
    EXPECT_EQ(reg.size(), kNumTileCounters);
    EXPECT_EQ(reg.get("tile.0.instructions"), 1.0);
    EXPECT_EQ(reg.get("tile.0.emac.elwise_ops"), 64.0);

    f.tile.reset();
    StatRegistry after;
    f.tile.counters().exportStats(after, "tile.0");
    EXPECT_EQ(after.size(), kNumTileCounters);
    for (const auto &[key, value] : after.entries())
        EXPECT_EQ(value, 0.0) << key;
}

// ---------------------------------------------------------------------
// Loop fast-forward. Each program runs twice on one tile: with a
// zero-capacity TraceLogger attached, which keeps every instruction
// literal, and fast-forwarding. Counters, energy, times and the
// emitted op stream must agree exactly.
// ---------------------------------------------------------------------

struct LoopRun
{
    TileCounters acct;
    Cycle quiesce = 0;
    Cycle now = 0;
    std::size_t skips = 0;
    std::size_t comms = 0;
};

/** Run f.program to its end, resuming each communication instruction
 * 7 cycles after the tile quiesces. */
LoopRun
runLoops(TileFixture &f, ReplayTape &tape, bool literal)
{
    TraceLogger everyInstruction(0);
    f.tile.reset();
    f.tile.setTraceLogger(literal ? &everyInstruction : nullptr);
    f.tile.setReplayTape(&tape);
    f.tile.setProgram(&f.program);
    LoopRun run;
    while (f.tile.runUntilComm() == RunStatus::AtComm) {
        ++run.comms;
        f.tile.resumeAfterComm(f.tile.quiesceTime() + 7);
    }
    f.tile.setTraceLogger(nullptr);
    f.tile.setReplayTape(nullptr);
    run.acct = f.tile.counters();
    run.quiesce = f.tile.quiesceTime();
    run.now = f.tile.now();
    run.skips = f.tile.loopSkips();
    return run;
}

/** Check the fast-forwarding run against the literal one; returns
 * the fast run. */
LoopRun
expectFastForwardExact(TileFixture &f)
{
    EXPECT_EQ(f.program.validate(), "");
    ReplayTape tape;
    tape.startRecording();
    const LoopRun literal = runLoops(f, tape, true);
    tape.finishRecording();
    tape.startCheck();
    const LoopRun fast = runLoops(f, tape, false);
    // The same ops, in the same order, with the same pointers.
    EXPECT_NO_THROW(tape.checkStep(2));
    EXPECT_EQ(literal.skips, 0u);
    EXPECT_EQ(fast.comms, literal.comms);
    EXPECT_EQ(fast.quiesce, literal.quiesce);
    EXPECT_EQ(fast.now, literal.now);
    for (std::size_t i = 0; i < kNumTileCounters; ++i)
        EXPECT_EQ(fast.acct.ctr[i], literal.acct.ctr[i])
            << counterName(static_cast<TileCounter>(i));
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
        EXPECT_EQ(fast.acct.opCycles[i], literal.acct.opCycles[i]);
        EXPECT_EQ(fast.acct.opOps[i], literal.acct.opOps[i]);
        EXPECT_EQ(fast.acct.opWords[i], literal.acct.opWords[i]);
    }
    EXPECT_EQ(std::memcmp(&fast.acct.energyPj, &literal.acct.energyPj,
                          sizeof(Energy)),
              0)
        << fast.acct.energyPj << " vs " << literal.acct.energyPj;
    return fast;
}

Operand
strided(Space space, std::uint32_t base, std::uint32_t len,
        std::int32_t s0, std::int32_t s1 = 0, std::int32_t s2 = 0)
{
    return isa::makeStridedOperand(space, base, len, s0, s1, s2);
}

TEST(TileFastForward, PeriodTwoLoadComputeLoop)
{
    // One matrix load per iteration: the scratchpad halves alternate,
    // so the absolute state repeats every two iterations. An odd
    // number of skipped iterations ends on the other half.
    for (const std::uint32_t blocks : {40u, 41u}) {
        for (const bool skew : {false, true}) {
            TileFixture f;
            appendStreamLoop(f, blocks, 32, 32, skew);
            // A load after the loop waits for its half to drain.
            f.program.append(dmaLoad(false, 0, 32, 32, 32));
            EXPECT_EQ(expectFastForwardExact(f).skips, 1u);
        }
    }
}

TEST(TileFastForward, IdleLaneKeepsItsFreeTime)
{
    // A long SFU op before the loop leaves the SFU busy far ahead of
    // the eMAC-only body; the SFU op after it stalls on that time.
    TileFixture f;
    f.program.append(inst(Opcode::SfuExp, isa::makeOperand(
                                              Space::VecSpad, 0, 512),
                          vb(0, 512)));
    f.program.beginLoop(30);
    f.program.append(inst(Opcode::EwAddImm, strided(Space::VecBuf, 1024, 8, 8),
                          strided(Space::VecBuf, 512, 8, 8), {}, 1.0f));
    f.program.endLoop();
    f.program.append(inst(Opcode::SfuTanh, isa::makeOperand(
                                               Space::VecSpad, 600, 16),
                          vb(1024, 16)));
    EXPECT_EQ(expectFastForwardExact(f).skips, 1u);
}

TEST(TileFastForward, LiveDependencyAcrossIterations)
{
    // The serial SFU paces the loop; its VecSpad result is still
    // pending at every iteration boundary, and the eMAC op waits on
    // the previous iteration's result.
    TileFixture f;
    f.program.beginLoop(20);
    f.program.append(inst(Opcode::SfuExp,
                          isa::makeOperand(Space::VecSpad, 0, 64),
                          strided(Space::VecBuf, 0, 64, 64)));
    f.program.append(inst(Opcode::EwMulImm,
                          strided(Space::MatBuf, 0, 32, 32),
                          isa::makeOperand(Space::VecSpad, 0, 32), {},
                          2.0f));
    f.program.endLoop();
    EXPECT_EQ(expectFastForwardExact(f).skips, 1u);
}

TEST(TileFastForward, NestedLoops)
{
    TileFixture f;
    f.program.append(inst(Opcode::Fill, vb(0, 64), {}, {}, 1.0f));
    f.program.beginLoop(5);
    f.program.append(dmaLoad(true, 0, 8, 16, 16));
    f.program.beginLoop(6);
    f.program.append(inst(Opcode::EwMul, strided(Space::VecBuf, 4096, 16, 96, 16),
                          strided(Space::MatBuf, 0, 16, 128, 16),
                          vb(0, 16)));
    f.program.beginLoop(7);
    f.program.append(inst(Opcode::EwMac, strided(Space::VecBuf, 8192, 4, 168, 28, 4),
                          strided(Space::VecBuf, 4096, 4, 96, 16, 0),
                          vb(32, 4)));
    f.program.append(inst(Opcode::SfuSigmoid,
                          strided(Space::VecSpad, 0, 4, 168, 28, 4),
                          strided(Space::VecBuf, 8192, 4, 168, 28, 4)));
    f.program.endLoop();
    f.program.endLoop();
    Instruction vmm;
    vmm.op = Opcode::Vmm;
    vmm.flags.rowDot = true;
    vmm.flags.skewed = true;
    vmm.srcA = isa::makeOperand(Space::VecSpad, 900, 16);
    vmm.srcB = isa::makeOperand(Space::MatSpad, 0, 8 * 17);
    vmm.dst = strided(Space::VecBuf, 12288, 8, 8);
    f.program.append(vmm);
    f.program.endLoop();
    const LoopRun fast = expectFastForwardExact(f);
    EXPECT_GE(fast.skips, 5u);
}

TEST(TileFastForward, DependencyEndingAtTheBoundary)
{
    // A one-word vector load ends exactly at the next iteration's
    // issue time (now_), and that iteration's first op reads the word.
    // The tie wins the start-time election, so the eMAC lane's idle
    // cycle is a DMA stall, not an issue stall, in every iteration
    // after the first, fast-forwarded ones included.
    {
        TileFixture f;
        f.program.beginLoop(12);
        f.program.append(inst(Opcode::EwMul, vb(64, 8),
                              isa::makeOperand(Space::VecSpad, 0, 1),
                              vb(0, 8)));
        f.program.append(inst(Opcode::DmaLoadV,
                              isa::makeOperand(Space::VecSpad, 0, 1),
                              vb(128, 1)));
        f.program.endLoop();
        const LoopRun fast = expectFastForwardExact(f);
        EXPECT_EQ(fast.skips, 1u);
        EXPECT_EQ(fast.acct.counter(stallCounter(TraceLane::Compute,
                                                 StallReason::Dma)),
                  11.0);
        EXPECT_EQ(fast.acct.counter(stallCounter(TraceLane::Compute,
                                                 StallReason::Issue)),
                  0.0);
    }
    // The scratchpad read time a pre-loop SFU op leaves is never
    // waited on in the body; relative to now_ it falls through zero.
    // A time equal to now_ counts as dead, like an earlier one, so
    // the loop is fast-forwarded once it has fallen to now_.
    {
        TileFixture f;
        f.program.append(inst(Opcode::SfuAccSum, vb(448, 1),
                              isa::makeOperand(Space::MatSpad, 24, 12)));
        f.program.beginLoop(6);
        f.program.append(inst(Opcode::EwAddImm,
                              isa::makeOperand(Space::VecSpad, 16, 16),
                              strided(Space::MatSpad, 8, 16, 16), {},
                              1.0f));
        f.program.append(inst(Opcode::EwMul,
                              strided(Space::VecSpad, 24, 33, 33),
                              isa::makeOperand(Space::MatBuf, 256, 33),
                              isa::makeOperand(Space::MatBuf, 832, 33)));
        f.program.endLoop();
        EXPECT_EQ(expectFastForwardExact(f).skips, 1u);
    }
}

TEST(TileFastForward, ShortLoopsRunLiterally)
{
    for (const std::uint32_t trips : {1u, 2u}) {
        TileFixture f;
        f.program.beginLoop(trips);
        f.program.beginLoop(trips);
        f.program.append(inst(Opcode::EwAddImm,
                              strided(Space::VecBuf, 64, 8, 16, 8),
                              strided(Space::VecBuf, 0, 8, 16, 8), {},
                              1.0f));
        f.program.endLoop();
        f.program.endLoop();
        EXPECT_EQ(expectFastForwardExact(f).skips, 0u) << trips;
    }
}

TEST(TileFastForward, LoopReachingReduceIsNeverSkipped)
{
    TileFixture f;
    f.program.beginLoop(6);
    f.program.beginLoop(9); // no reduce inside: skippable
    f.program.append(inst(Opcode::EwAddImm,
                          strided(Space::VecBuf, 64, 8, 0, 8),
                          strided(Space::VecBuf, 0, 8, 0, 8), {}, 1.0f));
    f.program.endLoop();
    Instruction red;
    red.op = Opcode::Reduce;
    red.srcA = vb(64, 8);
    f.program.append(red);
    f.program.endLoop();
    const LoopRun fast = expectFastForwardExact(f);
    EXPECT_EQ(fast.comms, 6u);
    EXPECT_EQ(fast.skips, 6u); // the inner loop, once per outer trip
}

// ---------------------------------------------------------------------
// Loop fast-forward fuzz: random static loop nests (depth 1-3, trip
// counts 1-64) over all five executable classes, each checked by
// expectFastForwardExact. The generator follows InterpreterFuzz's
// (test_harness.cc) and adds matrix loads of both parities per
// iteration, scratchpad-resident operands, and loops whose last op is
// a one-cycle DMA that the next iteration's first op reads, so the
// dependency ends exactly at the loop boundary.
// ---------------------------------------------------------------------

class LoopNestFuzzer
{
  public:
    LoopNestFuzzer(std::uint64_t seed, const TileFixture &f)
        : rng_(seed),
          words_{0, 1u << 16,
                 static_cast<std::uint32_t>(f.cfg.matrixScratchpadBytes / 4),
                 1u << 14,
                 static_cast<std::uint32_t>(f.cfg.vectorScratchpadBytes / 4)}
    {
    }

    /** A top-level sequence of 1-4 items, at least one of them a loop;
     * at most ~2048 iterations of the innermost body. */
    isa::Program program()
    {
        prog_ = isa::Program();
        depth_ = 0;
        iterations_ = 1;
        const std::size_t items = 1 + rng_.below(4);
        const std::size_t loopAt = rng_.below(items);
        for (std::size_t i = 0; i < items; ++i) {
            if (i == loopAt || rng_.below(3) == 0)
                loop();
            else
                op();
        }
        return prog_;
    }

  private:
    std::uint32_t pick(std::uint32_t lo, std::uint32_t hi)
    {
        return lo + static_cast<std::uint32_t>(rng_.below(hi - lo + 1));
    }

    void loop()
    {
        const std::uint32_t cap = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(64, 2048 / iterations_));
        // Mostly long enough to fast-forward, sometimes 1 or 2.
        const std::uint32_t trips =
            rng_.below(6) == 0 ? pick(1, 2) : pick(std::min(3u, cap), cap);
        trips_[depth_++] = trips;
        iterations_ *= trips;
        prog_.beginLoop(trips);
        const bool boundaryDep = rng_.below(3) == 0;
        std::uint32_t word = 0;
        if (boundaryDep) {
            // First op of the body reads the word the body's last op
            // (a one-word vector DMA) wrote one iteration earlier.
            word = static_cast<std::uint32_t>(rng_.below(words_[4]));
            Instruction use;
            use.op = rng_.below(2) ? Opcode::EwMulImm : Opcode::SfuExp;
            use.srcA = isa::makeOperand(Space::VecSpad, word, 1);
            use.dst = place(Space::VecBuf, 1, 1);
            use.imm = 2.0f;
            prog_.append(use);
        }
        // Zero, one or two matrix loads per iteration: both parities.
        const std::size_t loads = rng_.below(3);
        for (std::size_t i = 0; i < loads; ++i)
            prog_.append(matrixDma(true));
        const std::size_t items = 1 + rng_.below(3);
        for (std::size_t i = 0; i < items; ++i) {
            if (depth_ < isa::kMaxLoopDepth && rng_.below(4) == 0)
                loop();
            else
                op();
        }
        if (boundaryDep) {
            Instruction dma;
            dma.op = Opcode::DmaLoadV;
            dma.dst = isa::makeOperand(Space::VecSpad, word, 1);
            dma.srcA = place(Space::VecBuf, 1, 1);
            prog_.append(dma);
        }
        prog_.endLoop();
        iterations_ /= trips;
        --depth_;
    }

    void op()
    {
        switch (rng_.below(6)) {
          case 0:
            prog_.append(matrixDma(rng_.below(3) != 0));
            break;
          case 1:
            prog_.append(vectorDma());
            break;
          case 2:
            prog_.append(vmm());
            break;
          case 3:
            prog_.append(elementwise());
            break;
          case 4:
            prog_.append(sfu());
            break;
          default:
            if (rng_.below(4) == 0) {
                Instruction red;
                red.op = Opcode::Reduce;
                red.srcA = place(Space::VecBuf, 4, 4);
                prog_.append(red);
            } else {
                prog_.append(elementwise());
            }
            break;
        }
    }

    Space anySpace()
    {
        return static_cast<Space>(1 + rng_.below(4));
    }

    /** An operand of @p len words whose accesses reach @p reach words
     * past its base, strided over the open loops where that fits. */
    Operand place(Space space, std::uint32_t len, std::uint32_t reach)
    {
        Operand op = isa::makeOperand(space, 0, len);
        std::uint64_t extent = reach;
        for (std::size_t l = 0; l < depth_; ++l) {
            const std::uint32_t kind =
                static_cast<std::uint32_t>(rng_.below(3));
            op.stride[l] = static_cast<std::int32_t>(
                kind == 0 ? 0 : kind == 1 ? reach : pick(1, 16));
            extent += static_cast<std::uint64_t>(trips_[l] - 1) *
                      static_cast<std::uint64_t>(op.stride[l]);
        }
        const std::uint32_t words = words_[static_cast<std::size_t>(space)];
        if (extent > words) {
            std::fill(std::begin(op.stride), std::end(op.stride), 0);
            extent = reach;
        }
        op.base = static_cast<std::uint32_t>(rng_.below(words - extent + 1));
        return op;
    }

    Instruction matrixDma(bool load)
    {
        Instruction i;
        const bool dmat = load && rng_.below(2) != 0;
        i.op = !load ? Opcode::DmaStoreM
                     : dmat ? Opcode::DmatLoadM : Opcode::DmaLoadM;
        const std::uint32_t rows = pick(1, 8);
        const std::uint32_t rowWords = pick(1, 32);
        const std::uint32_t pitch =
            rng_.below(2) ? 0 : rowWords + pick(0, 8);
        const std::uint32_t bufReach =
            (rows - 1) * (pitch != 0 ? pitch : rowWords) + rowWords;
        const std::uint32_t spadLen = rows * (rowWords + (dmat ? 1 : 0));
        const Space buf = rng_.below(4) == 0 ? Space::VecBuf : Space::MatBuf;
        const Operand bufSide = place(buf, rows * rowWords, bufReach);
        const Operand spadSide = place(Space::MatSpad, spadLen, spadLen);
        i.srcA = load ? bufSide : spadSide;
        i.dst = load ? spadSide : bufSide;
        i.srcB.base = pitch;
        i.count = rows;
        return i;
    }

    Instruction vectorDma()
    {
        Instruction i;
        const std::uint32_t len = pick(1, 48);
        const bool load = rng_.below(2) != 0;
        i.op = load ? Opcode::DmaLoadV : Opcode::DmaStoreV;
        const Space buf = rng_.below(4) == 0 ? Space::MatBuf : Space::VecBuf;
        const Operand bufSide = place(buf, len, len);
        const Operand spadSide = place(Space::VecSpad, len, len);
        i.srcA = load ? bufSide : spadSide;
        i.dst = load ? spadSide : bufSide;
        return i;
    }

    Instruction vmm()
    {
        Instruction i;
        i.op = Opcode::Vmm;
        i.flags.rowDot = rng_.below(2) != 0;
        i.flags.accumulate = rng_.below(2) != 0;
        i.flags.reuseB = rng_.below(3) == 0;
        i.flags.dstResident = rng_.below(3) == 0;
        const std::uint32_t rows = pick(1, 16);
        const std::uint32_t cols = pick(1, 16);
        const Space dstSpace =
            rng_.below(2) ? Space::VecBuf : Space::VecSpad;
        if (i.flags.rowDot) {
            i.flags.skewed = rng_.below(2) != 0;
            i.flags.withNorms = rng_.below(3) == 0;
            const std::uint32_t pitch = cols + (i.flags.skewed ? 1 : 0);
            i.count = i.flags.withNorms ? rows + pick(0, 4) : 0;
            i.srcA = place(Space::VecSpad, cols, cols);
            i.srcB = place(Space::MatSpad, rows * pitch, rows * pitch);
            i.dst = place(dstSpace, rows,
                          i.flags.withNorms ? i.count + rows : rows);
        } else {
            i.srcA = place(Space::VecSpad, rows, rows);
            i.srcB = place(Space::MatSpad, rows * cols, rows * cols);
            i.dst = place(dstSpace, cols, cols);
        }
        return i;
    }

    Instruction elementwise()
    {
        static const Opcode pool[] = {
            Opcode::EwAdd,    Opcode::EwSub,    Opcode::EwMul,
            Opcode::EwMac,    Opcode::EwAddImm, Opcode::EwMulImm,
            Opcode::EwRsubImm, Opcode::Fill,
        };
        Instruction i;
        i.op = pool[rng_.below(std::size(pool))];
        const std::uint32_t len = pick(1, 64);
        i.dst = place(anySpace(), len, len);
        const auto source = [&] {
            const std::uint32_t l = rng_.below(4) == 0 ? 1 : len;
            return place(anySpace(), l, l);
        };
        if (i.op != Opcode::Fill)
            i.srcA = source();
        if (i.op == Opcode::EwAdd || i.op == Opcode::EwSub ||
            i.op == Opcode::EwMul || i.op == Opcode::EwMac)
            i.srcB = source();
        i.imm = 0.5f;
        return i;
    }

    Instruction sfu()
    {
        static const Opcode pool[] = {
            Opcode::SfuExp,     Opcode::SfuPow,     Opcode::SfuRecip,
            Opcode::SfuSqrt,    Opcode::SfuSigmoid, Opcode::SfuTanh,
            Opcode::SfuSoftplus, Opcode::SfuAccSum, Opcode::SfuAccMax,
        };
        Instruction i;
        i.op = pool[rng_.below(std::size(pool))];
        const std::uint32_t len = pick(1, 24);
        const bool acc =
            i.op == Opcode::SfuAccSum || i.op == Opcode::SfuAccMax;
        i.srcA = place(anySpace(), len, len);
        i.dst = place(anySpace(), acc ? 1 : len, acc ? 1 : len);
        if (i.op == Opcode::SfuPow)
            i.srcB = place(anySpace(), 1, 1);
        return i;
    }

    Rng rng_;
    std::uint32_t words_[5]; ///< words per Space
    isa::Program prog_;
    std::size_t depth_ = 0;
    std::uint32_t trips_[isa::kMaxLoopDepth] = {};
    std::uint64_t iterations_ = 1;
};

class TileFastForwardFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TileFastForwardFuzz, MatchesLiteralInterpretation)
{
    std::size_t skipped = 0;
    for (int n = 0; n < 100; ++n) {
        TileFixture f;
        LoopNestFuzzer gen(GetParam() * 1000 + n, f);
        f.program = gen.program();
        ASSERT_EQ(f.program.validate(), "");
        SCOPED_TRACE(f.program.disassemble());
        const LoopRun fast = expectFastForwardExact(f);
        skipped += fast.skips != 0;
        if (HasFailure())
            return;
    }
    // The corpus must exercise the skip, not only literal runs.
    EXPECT_GE(skipped, 25u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TileFastForwardFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace manna::sim
