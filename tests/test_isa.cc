/**
 * @file
 * Tests for the ISA: operand addressing, binary encode/decode,
 * program structural validation, and the textual assembler.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "isa/isa.hh"
#include "isa/program.hh"
#include "sim/trace.hh"

namespace manna::isa
{
namespace
{

Instruction
randomInstruction(Rng &rng)
{
    Instruction inst;
    // Avoid Loop/EndLoop so structural validation stays trivial.
    const Opcode pool[] = {
        Opcode::Nop,      Opcode::DmaLoadM,  Opcode::DmatLoadM,
        Opcode::DmaStoreM,Opcode::DmaLoadV,  Opcode::DmaStoreV,
        Opcode::Vmm,      Opcode::EwAdd,     Opcode::EwSub,
        Opcode::EwMul,    Opcode::EwMac,     Opcode::EwAddImm,
        Opcode::EwMulImm, Opcode::EwRsubImm, Opcode::Fill,
        Opcode::SfuExp,   Opcode::SfuPow,    Opcode::SfuRecip,
        Opcode::SfuSqrt,  Opcode::SfuSigmoid,Opcode::SfuTanh,
        Opcode::SfuSoftplus, Opcode::SfuAccSum, Opcode::SfuAccMax,
        Opcode::Reduce,   Opcode::Broadcast,
    };
    inst.op = pool[rng.below(std::size(pool))];
    auto randomOperand = [&rng]() {
        Operand op;
        op.space = static_cast<Space>(1 + rng.below(4));
        op.base = static_cast<std::uint32_t>(rng.below(1 << 20));
        op.len = static_cast<std::uint32_t>(1 + rng.below(1 << 12));
        for (auto &s : op.stride)
            s = static_cast<std::int32_t>(rng.range(-4096, 4096));
        return op;
    };
    inst.dst = randomOperand();
    inst.srcA = randomOperand();
    inst.srcB = randomOperand();
    inst.imm = static_cast<float>(rng.uniform(-8.0, 8.0));
    inst.count = static_cast<std::uint32_t>(rng.below(1 << 16));
    // Flags are only meaningful (and only carried by the textual
    // format) on the opcodes that define them.
    if (inst.op == Opcode::Vmm) {
        inst.flags.rowDot = rng.below(2);
        inst.flags.accumulate = rng.below(2);
        inst.flags.withNorms = rng.below(2);
        inst.flags.reuseB = rng.below(2);
        inst.flags.skewed = rng.below(2);
        inst.flags.dstResident = rng.below(2);
        if (!inst.flags.withNorms)
            inst.count = 0; // count is only printed as the norms offset
    } else if (inst.op == Opcode::Reduce) {
        inst.flags.reduceOp =
            rng.below(2) ? ReduceOp::Max : ReduceOp::Sum;
    }
    // Matrix DMA: srcB is the pitch carrier, not a real operand.
    if (inst.op == Opcode::DmaLoadM || inst.op == Opcode::DmatLoadM ||
        inst.op == Opcode::DmaStoreM) {
        inst.srcB = Operand{};
        inst.srcB.base =
            static_cast<std::uint32_t>(1 + rng.below(1 << 12));
    }
    return inst;
}

// ---------------------------------------------------------------------
// Operand addressing
// ---------------------------------------------------------------------

TEST(Operand, EffectiveBaseAppliesActiveLoops)
{
    Operand op = makeStridedOperand(Space::VecBuf, 100, 8, 10, -2, 1);
    const std::int64_t iters[kMaxLoopDepth] = {3, 5, 7};
    EXPECT_EQ(op.effectiveBase(iters, 0), 100u);
    EXPECT_EQ(op.effectiveBase(iters, 1), 130u);
    EXPECT_EQ(op.effectiveBase(iters, 2), 120u);
    EXPECT_EQ(op.effectiveBase(iters, 3), 127u);
}

TEST(Operand, ScalarBroadcastDetection)
{
    EXPECT_TRUE(makeOperand(Space::VecBuf, 0, 1).isScalarBroadcast());
    EXPECT_FALSE(makeOperand(Space::VecBuf, 0, 2).isScalarBroadcast());
    EXPECT_FALSE(Operand{}.valid());
}

// ---------------------------------------------------------------------
// Binary encoding
// ---------------------------------------------------------------------

class EncodeRoundTrip : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EncodeRoundTrip, RandomInstructionsSurvive)
{
    Rng rng(GetParam());
    for (int i = 0; i < 200; ++i) {
        const Instruction original = randomInstruction(rng);
        std::string blob;
        encode(original, blob);
        ASSERT_EQ(blob.size(), kEncodedBytes);
        Instruction decoded;
        ASSERT_TRUE(decode(blob, 0, decoded));
        EXPECT_EQ(decoded, original);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncodeRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Encode, RejectsTruncatedInput)
{
    Instruction inst;
    std::string blob;
    encode(inst, blob);
    blob.pop_back();
    Instruction out;
    EXPECT_FALSE(decode(blob, 0, out));
}

TEST(Encode, RejectsBadOpcode)
{
    Instruction inst;
    std::string blob;
    encode(inst, blob);
    blob[0] = '\x7f'; // out-of-range opcode
    Instruction out;
    EXPECT_FALSE(decode(blob, 0, out));
}

// ---------------------------------------------------------------------
// Program validation
// ---------------------------------------------------------------------

TEST(Program, BalancedLoopsValidate)
{
    Program p;
    p.beginLoop(4);
    p.beginLoop(2);
    p.append(Instruction{});
    p.endLoop();
    p.endLoop();
    EXPECT_EQ(p.validate(), "");
}

TEST(Program, UnbalancedLoopsRejected)
{
    Program p;
    p.beginLoop(4);
    EXPECT_NE(p.validate(), "");

    Program q;
    q.endLoop();
    EXPECT_NE(q.validate(), "");
}

TEST(Program, ZeroTripLoopRejected)
{
    Program p;
    p.beginLoop(0);
    p.endLoop();
    EXPECT_NE(p.validate(), "");
}

TEST(Program, TooDeepNestingRejected)
{
    Program p;
    for (std::size_t i = 0; i <= kMaxLoopDepth; ++i)
        p.beginLoop(1);
    for (std::size_t i = 0; i <= kMaxLoopDepth; ++i)
        p.endLoop();
    EXPECT_NE(p.validate(), "");
}

TEST(Program, HaltMustBeLast)
{
    Program p;
    Instruction halt;
    halt.op = Opcode::Halt;
    p.append(halt);
    p.append(Instruction{});
    EXPECT_NE(p.validate(), "");
}

TEST(Program, FlagsOutsideTheOpcodeRowRejected)
{
    Program p;
    Instruction add;
    add.op = Opcode::EwAdd;
    add.flags.rowDot = true;
    p.append(add);
    EXPECT_EQ(p.validate(), "instruction 0: flag not valid for ew.add");
    p.instructions()[0].op = Opcode::Vmm;
    EXPECT_EQ(p.validate(), "");
    p.instructions()[0].flags.reduceOp = ReduceOp::Max;
    EXPECT_EQ(p.validate(), "instruction 0: flag not valid for vmm");
}

TEST(Program, DynamicLengthExpandsLoops)
{
    Program p;
    p.append(Instruction{}); // 1
    p.beginLoop(3);          // 1
    p.append(Instruction{}); // 3
    p.beginLoop(2);          // 3
    p.append(Instruction{}); // 6
    p.endLoop();             // 3
    p.endLoop();             // 1
    EXPECT_EQ(p.dynamicLength(), 1u + 1 + 3 + 3 + 6 + 3 + 1);
}

TEST(Program, SerializeRoundTrip)
{
    Rng rng(71);
    Program p;
    for (int i = 0; i < 20; ++i)
        p.append(randomInstruction(rng));
    Program q;
    ASSERT_TRUE(Program::deserialize(p.serialize(), q));
    ASSERT_EQ(q.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(q.instructions()[i], p.instructions()[i]);
}

TEST(Program, DeserializeRejectsBadLength)
{
    Program q;
    EXPECT_FALSE(Program::deserialize(std::string(13, 'x'), q));
}

// ---------------------------------------------------------------------
// Assembler
// ---------------------------------------------------------------------

TEST(Assembler, ParsesSimpleProgram)
{
    const std::string text = R"(
        # a comment
        loop 4
            ew.mul d=vbuf[0:8] a=vbuf[8:8,2] b=vbuf[16:1]
        endloop
        reduce.max a=vbuf[0:1]
        halt
    )";
    const AssembleResult result = assemble(text);
    ASSERT_TRUE(result.ok()) << result.error;
    ASSERT_EQ(result.program.size(), 5u);
    const auto &insts = result.program.instructions();
    EXPECT_EQ(insts[0].op, Opcode::Loop);
    EXPECT_EQ(insts[0].count, 4u);
    EXPECT_EQ(insts[1].op, Opcode::EwMul);
    EXPECT_EQ(insts[1].srcA.stride[0], 2);
    EXPECT_TRUE(insts[1].srcB.isScalarBroadcast());
    EXPECT_EQ(insts[3].flags.reduceOp, ReduceOp::Max);
}

TEST(Assembler, RoundTripsDisassembly)
{
    Rng rng(5);
    Program p;
    p.beginLoop(7);
    for (int i = 0; i < 30; ++i) {
        Instruction inst = randomInstruction(rng);
        // Fields not carried by the textual format must be zero to
        // round-trip: loop counts only apply to Loop, DMA rows are
        // positive, comm tags are compiler-internal.
        switch (inst.op) {
          case Opcode::DmaLoadM:
          case Opcode::DmatLoadM:
          case Opcode::DmaStoreM:
            inst.count = 1 + inst.count % 64;
            break;
          case Opcode::Vmm:
            if (!inst.flags.withNorms)
                inst.count = 0;
            break;
          default:
            inst.count = 0;
            break;
        }
        p.append(inst);
    }
    p.endLoop();

    const AssembleResult result = assemble(p.disassemble());
    ASSERT_TRUE(result.ok())
        << result.error << " at line " << result.errorLine;
    ASSERT_EQ(result.program.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
        EXPECT_EQ(result.program.instructions()[i], p.instructions()[i])
            << "instruction " << i << ": "
            << p.instructions()[i].toString();
    }
}

TEST(Assembler, ReportsUnknownMnemonic)
{
    const AssembleResult result = assemble("frobnicate d=vbuf[0:1]");
    EXPECT_FALSE(result.ok());
    EXPECT_EQ(result.errorLine, 1u);
}

TEST(Assembler, ReportsBadOperand)
{
    EXPECT_FALSE(assemble("ew.add d=vbuf[0] a=vbuf[0:1]").ok());
    EXPECT_FALSE(assemble("ew.add d=nowhere[0:1]").ok());
    EXPECT_FALSE(assemble("ew.add d=vbuf[x:1]").ok());
}

TEST(Assembler, ReportsStructuralErrors)
{
    const AssembleResult result = assemble("loop 3\n");
    EXPECT_FALSE(result.ok());
}

/** The error assembling @p line, or "" when it assembles. */
std::string
assembleError(const std::string &line)
{
    std::string error;
    return parseInstruction(line, error) ? "" : error;
}

TEST(Assembler, RejectsSuffixesTheOpcodeDoesNotCarry)
{
    EXPECT_EQ(assembleError("ew.add.rowdot d=vbuf[0:4] a=vbuf[0:4]"),
              "unknown suffix '.rowdot' for ew.add");
    EXPECT_EQ(assembleError("reduce.acc a=vbuf[0:4]"),
              "unknown suffix '.acc' for reduce");
    EXPECT_EQ(assembleError("vmm.max d=vbuf[0:4] a=vspad[0:4]"),
              "unknown suffix '.max' for vmm");
    EXPECT_EQ(assembleError("vmm.rowdot.norms.acc.reuse.skew.res"), "");
    EXPECT_EQ(assembleError("reduce.max a=vbuf[0:4]"), "");
}

TEST(Assembler, RejectsFieldsTheOpcodeDoesNotCarry)
{
    EXPECT_EQ(assembleError("ew.add rows=7 d=vbuf[0:4] a=vbuf[0:4]"),
              "field 'rows=' not valid for ew.add");
    EXPECT_EQ(assembleError("vmm off=3 d=vbuf[0:4] a=vspad[0:4]"),
              "field 'off=' not valid for vmm");
    EXPECT_EQ(assembleError("ew.mul pitch=8 d=vbuf[0:4]"),
              "field 'pitch=' not valid for ew.mul");
    EXPECT_EQ(assembleError("vmm.rowdot tag=2 d=vbuf[0:4]"),
              "field 'tag=' not valid for vmm.rowdot");
    EXPECT_EQ(assembleError("dma.load.m rows=1 b=vbuf[0:4]"),
              "field 'b=' not valid for dma.load.m");
    EXPECT_EQ(assembleError("vmm.rowdot.norms off=3 d=vbuf[0:2]"), "");
    EXPECT_EQ(assembleError("broadcast tag=2 d=vbuf[0:4]"), "");
}

/** A field at the edge of its range, and one past it. */
struct RangeCase
{
    const char *field;
    const char *fits;
    const char *overflows;
    const char *error;
};

class AssemblerRange : public ::testing::TestWithParam<RangeCase>
{
};

TEST_P(AssemblerRange, RejectsValuesThatDoNotFit)
{
    const RangeCase &c = GetParam();
    EXPECT_EQ(assembleError(c.fits), "") << c.fits;
    EXPECT_EQ(assembleError(c.overflows), c.error) << c.overflows;
}

INSTANTIATE_TEST_SUITE_P(
    Fields, AssemblerRange,
    ::testing::Values(
        RangeCase{"count", "loop 4294967295", "loop 4294967297",
                  "loop count '4294967297' out of range"},
        RangeCase{"base", "fill d=vspad[4294967295:8]",
                  "fill d=vspad[4294967296:8]",
                  "operand 'vspad[4294967296:8]': base '4294967296' "
                  "out of range"},
        RangeCase{"len", "fill d=vbuf[0:4294967295]",
                  "fill d=vbuf[0:-1]",
                  "operand 'vbuf[0:-1]': len '-1' out of range"},
        RangeCase{"rows", "dma.load.m rows=4294967295",
                  "dma.load.m rows=4294967296",
                  "rows '4294967296' out of range"},
        RangeCase{"pitch", "dma.store.m pitch=4294967295",
                  "dma.store.m pitch=4294967296",
                  "pitch '4294967296' out of range"},
        RangeCase{"off", "vmm.norms off=4294967295",
                  "vmm.norms off=8589934592",
                  "off '8589934592' out of range"},
        RangeCase{"tag", "reduce tag=4294967295", "reduce tag=-2",
                  "tag '-2' out of range"},
        RangeCase{"stride", "fill d=vbuf[0:1,-2147483648,2147483647]",
                  "fill d=vbuf[0:1,3000000000]",
                  "operand 'vbuf[0:1,3000000000]': stride '3000000000' "
                  "out of range"}),
    [](const ::testing::TestParamInfo<RangeCase> &info) {
        return std::string(info.param.field);
    });

TEST(Assembler, IgnoresCommentsAndBlankLines)
{
    const AssembleResult result =
        assemble("\n; semicolon comment\n# hash comment\n\nnop\n");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.program.size(), 1u);
}

// ---------------------------------------------------------------------
// Per-opcode facts: mnemonic (and that it parses back), profile key,
// and the engine lane of every executable opcode.
// ---------------------------------------------------------------------

TEST(OpcodeFacts, PinnedForEveryOpcode)
{
    using sim::TraceLane;
    constexpr int kNoLane = -1; // control and communication
    constexpr int C = static_cast<int>(TraceLane::Compute);
    constexpr int S = static_cast<int>(TraceLane::Sfu);
    constexpr int M = static_cast<int>(TraceLane::MatDma);
    constexpr int V = static_cast<int>(TraceLane::VecDma);
    struct Pin
    {
        Opcode op;
        const char *mnemonic;
        const char *profileKey;
        int lane;
    };
    const Pin pins[] = {
        {Opcode::Nop, "nop", "nop", kNoLane},
        {Opcode::Halt, "halt", "halt", kNoLane},
        {Opcode::Loop, "loop", "loop", kNoLane},
        {Opcode::EndLoop, "endloop", "endloop", kNoLane},
        {Opcode::DmaLoadM, "dma.load.m", "dma_load_m", M},
        {Opcode::DmatLoadM, "dmat.load.m", "dmat_load_m", M},
        {Opcode::DmaStoreM, "dma.store.m", "dma_store_m", M},
        {Opcode::DmaLoadV, "dma.load.v", "dma_load_v", V},
        {Opcode::DmaStoreV, "dma.store.v", "dma_store_v", V},
        {Opcode::Vmm, "vmm", "vmm", C},
        {Opcode::EwAdd, "ew.add", "ew_add", C},
        {Opcode::EwSub, "ew.sub", "ew_sub", C},
        {Opcode::EwMul, "ew.mul", "ew_mul", C},
        {Opcode::EwMac, "ew.mac", "ew_mac", C},
        {Opcode::EwAddImm, "ew.addi", "ew_addi", C},
        {Opcode::EwMulImm, "ew.muli", "ew_muli", C},
        {Opcode::EwRsubImm, "ew.rsubi", "ew_rsubi", C},
        {Opcode::Fill, "fill", "fill", C},
        {Opcode::SfuExp, "sfu.exp", "sfu_exp", S},
        {Opcode::SfuPow, "sfu.pow", "sfu_pow", S},
        {Opcode::SfuRecip, "sfu.recip", "sfu_recip", S},
        {Opcode::SfuSqrt, "sfu.sqrt", "sfu_sqrt", S},
        {Opcode::SfuSigmoid, "sfu.sigmoid", "sfu_sigmoid", S},
        {Opcode::SfuTanh, "sfu.tanh", "sfu_tanh", S},
        {Opcode::SfuSoftplus, "sfu.softplus", "sfu_softplus", S},
        {Opcode::SfuAccSum, "sfu.accsum", "sfu_accsum", S},
        {Opcode::SfuAccMax, "sfu.accmax", "sfu_accmax", S},
        {Opcode::Reduce, "reduce", "reduce", kNoLane},
        {Opcode::Broadcast, "broadcast", "broadcast", kNoLane},
    };
    ASSERT_EQ(std::size(pins),
              static_cast<std::size_t>(Opcode::NumOpcodes));
    for (std::size_t i = 0; i < std::size(pins); ++i) {
        const Pin &pin = pins[i];
        EXPECT_EQ(static_cast<std::size_t>(pin.op), i);
        EXPECT_STREQ(toString(pin.op), pin.mnemonic);
        EXPECT_EQ(profileKey(pin.op), pin.profileKey);
        std::string error;
        const auto parsed = parseInstruction(pin.mnemonic, error);
        ASSERT_TRUE(parsed.has_value()) << pin.mnemonic << ": " << error;
        EXPECT_EQ(parsed->op, pin.op) << pin.mnemonic;
        if (pin.lane != kNoLane) {
            EXPECT_EQ(static_cast<int>(sim::laneOf(pin.op)), pin.lane)
                << pin.mnemonic;
        }
    }
}

} // namespace
} // namespace manna::isa
