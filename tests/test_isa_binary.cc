/**
 * @file
 * Tier-1 tests for the versioned binary program container
 * (docs/ISA.md "Binary encoding", docs/FORMATS.md).
 *
 * The contracts under test:
 *  - decode(encode(p)) is structurally identical to p and encoding is
 *    byte-deterministic, for randomized programs covering every
 *    opcode, stride shape, and loop depth — and for every program the
 *    compiler emits (NTM and DNC);
 *  - assemble(disassemble(p)) == p for the same corpus;
 *  - any truncation or single bit flip of a container is rejected.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/hash.hh"
#include "compiler/compiler.hh"
#include "compiler/dnc_codegen.hh"
#include "isa/assembler.hh"
#include "isa/binary.hh"
#include "workloads/benchmarks.hh"

namespace manna
{
namespace
{

using isa::Instruction;
using isa::makeOperand;
using isa::makeStridedOperand;
using isa::Opcode;
using isa::Operand;
using isa::Program;
using isa::Space;

// ---------------------------------------------------------------------
// Randomized program generator. Field discipline matters: only fields
// the textual form round-trips are populated (e.g. `count` is only
// meaningful for Loop, the matrix DMAs, vmm.norms, and the comm ops),
// so the same corpus exercises both the binary and textual identities.
// ---------------------------------------------------------------------

Operand
randomOperand(std::mt19937 &rng, Space space, std::uint32_t maxLen)
{
    std::uniform_int_distribution<std::uint32_t> baseDist(0, 512);
    std::uniform_int_distribution<std::uint32_t> lenDist(1, maxLen);
    std::uniform_int_distribution<int> strideDist(-64, 64);
    std::uniform_int_distribution<int> shapeDist(0, 3);
    Operand op = makeOperand(space, baseDist(rng), lenDist(rng));
    // Stride shapes: none, innermost only, two levels, all three.
    const int shape = shapeDist(rng);
    for (int level = 0; level < shape; ++level)
        op.stride[level] = strideDist(rng);
    return op;
}

Instruction
randomInstruction(std::mt19937 &rng, Opcode op)
{
    std::uniform_int_distribution<std::uint32_t> smallDist(1, 8);
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<int> immDist(-40, 40);

    Instruction inst;
    inst.op = op;
    switch (op) {
      case Opcode::Nop:
      case Opcode::Halt:
      case Opcode::EndLoop:
        break;
      case Opcode::Loop:
        inst.count = smallDist(rng);
        break;
      case Opcode::DmaLoadM:
      case Opcode::DmatLoadM:
      case Opcode::DmaStoreM: {
        const bool load = op != Opcode::DmaStoreM;
        inst.count = smallDist(rng); // rows=
        inst.dst = randomOperand(
            rng, load ? Space::MatSpad : Space::MatBuf, 256);
        inst.srcA = randomOperand(
            rng, load ? Space::MatBuf : Space::MatSpad, 256);
        inst.srcB.base = smallDist(rng) * 8; // pitch=
        break;
      }
      case Opcode::DmaLoadV:
        inst.dst = randomOperand(rng, Space::VecSpad, 64);
        inst.srcA = randomOperand(rng, Space::VecBuf, 64);
        break;
      case Opcode::DmaStoreV:
        inst.dst = randomOperand(rng, Space::VecBuf, 64);
        inst.srcA = randomOperand(rng, Space::VecSpad, 64);
        break;
      case Opcode::Vmm:
        inst.dst = randomOperand(rng, Space::VecBuf, 64);
        inst.srcA = randomOperand(rng, Space::VecSpad, 64);
        inst.srcB = randomOperand(rng, Space::MatSpad, 256);
        inst.flags.rowDot = coin(rng);
        inst.flags.accumulate = coin(rng);
        inst.flags.reuseB = coin(rng);
        inst.flags.dstResident = coin(rng);
        if (inst.flags.rowDot) {
            inst.flags.skewed = coin(rng);
            if (coin(rng)) {
                inst.flags.withNorms = true;
                inst.count = smallDist(rng) * 4; // off=
            }
        }
        break;
      case Opcode::EwAdd:
      case Opcode::EwSub:
      case Opcode::EwMul:
      case Opcode::EwMac:
        inst.dst = randomOperand(rng, Space::VecBuf, 64);
        inst.srcA = randomOperand(rng, Space::VecBuf, 64);
        inst.srcB = randomOperand(rng, Space::VecBuf, 64);
        break;
      case Opcode::EwAddImm:
      case Opcode::EwMulImm:
      case Opcode::EwRsubImm:
        inst.dst = randomOperand(rng, Space::VecBuf, 64);
        inst.srcA = randomOperand(rng, Space::VecBuf, 64);
        inst.imm = static_cast<float>(immDist(rng)) / 8.0f;
        break;
      case Opcode::Fill:
        inst.dst = randomOperand(rng, Space::VecBuf, 64);
        inst.imm = static_cast<float>(immDist(rng)) / 8.0f;
        break;
      case Opcode::SfuExp:
      case Opcode::SfuRecip:
      case Opcode::SfuSqrt:
      case Opcode::SfuSigmoid:
      case Opcode::SfuTanh:
      case Opcode::SfuSoftplus:
        inst.dst = randomOperand(rng, Space::VecBuf, 64);
        inst.srcA = randomOperand(rng, Space::VecBuf, 64);
        break;
      case Opcode::SfuPow:
        inst.dst = randomOperand(rng, Space::VecBuf, 64);
        inst.srcA = randomOperand(rng, Space::VecBuf, 64);
        inst.srcB = makeOperand(Space::VecBuf, 40, 1);
        break;
      case Opcode::SfuAccSum:
      case Opcode::SfuAccMax:
        inst.dst = makeOperand(Space::VecBuf, 41, 1);
        inst.srcA = randomOperand(rng, Space::VecBuf, 64);
        break;
      case Opcode::Reduce:
        inst.dst = randomOperand(rng, Space::VecBuf, 64);
        inst.srcA = randomOperand(rng, Space::VecBuf, 64);
        inst.flags.reduceOp =
            coin(rng) ? isa::ReduceOp::Max : isa::ReduceOp::Sum;
        if (coin(rng))
            inst.count = smallDist(rng); // tag=
        break;
      case Opcode::Broadcast:
        inst.dst = randomOperand(rng, Space::VecBuf, 64);
        inst.srcA = randomOperand(rng, Space::VecBuf, 64);
        if (coin(rng))
            inst.count = smallDist(rng); // tag=
        break;
      case Opcode::NumOpcodes:
        break;
    }
    return inst;
}

/** A random structurally-valid program: random body opcodes inside a
 * random loop nest of depth <= kMaxLoopDepth, Halt last. */
Program
randomProgram(std::mt19937 &rng, std::size_t bodyLen)
{
    // Opcodes legal inside a program body (control handled separately).
    static const Opcode kBody[] = {
        Opcode::Nop,        Opcode::DmaLoadM,   Opcode::DmatLoadM,
        Opcode::DmaStoreM,  Opcode::DmaLoadV,   Opcode::DmaStoreV,
        Opcode::Vmm,        Opcode::EwAdd,      Opcode::EwSub,
        Opcode::EwMul,      Opcode::EwMac,      Opcode::EwAddImm,
        Opcode::EwMulImm,   Opcode::EwRsubImm,  Opcode::Fill,
        Opcode::SfuExp,     Opcode::SfuPow,     Opcode::SfuRecip,
        Opcode::SfuSqrt,    Opcode::SfuSigmoid, Opcode::SfuTanh,
        Opcode::SfuSoftplus,Opcode::SfuAccSum,  Opcode::SfuAccMax,
        Opcode::Reduce,     Opcode::Broadcast,
    };
    std::uniform_int_distribution<std::size_t> pick(
        0, std::size(kBody) - 1);
    std::uniform_int_distribution<int> event(0, 5);
    std::uniform_int_distribution<std::uint32_t> tripDist(1, 4);

    Program p;
    std::size_t depth = 0;
    for (std::size_t i = 0; i < bodyLen; ++i) {
        const int e = event(rng);
        if (e == 0 && depth < isa::kMaxLoopDepth) {
            p.beginLoop(tripDist(rng));
            ++depth;
        } else if (e == 1 && depth > 0) {
            p.endLoop();
            --depth;
        } else {
            p.append(randomInstruction(rng, kBody[pick(rng)]));
        }
    }
    while (depth-- > 0)
        p.endLoop();
    p.append(randomInstruction(rng, Opcode::Halt));
    return p;
}

/** The three identities every program must satisfy. */
void
expectProgramIdentities(const Program &p)
{
    ASSERT_TRUE(p.validate().empty()) << p.validate();

    // Binary: decode(encode(p)) == p, and encoding is deterministic.
    const std::string blob = isa::encodeProgram(p);
    Program decoded;
    std::string error;
    ASSERT_TRUE(isa::decodeProgram(blob, decoded, &error)) << error;
    ASSERT_EQ(decoded.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(decoded.instructions()[i], p.instructions()[i])
            << "instruction " << i << ": "
            << p.instructions()[i].toString();
    EXPECT_EQ(isa::encodeProgram(decoded), blob);

    // Textual: assemble(disassemble(p)) == p.
    const isa::AssembleResult result = isa::assemble(p.disassemble());
    ASSERT_TRUE(result.ok())
        << "line " << result.errorLine << ": " << result.error << "\n"
        << p.disassemble();
    ASSERT_EQ(result.program.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(result.program.instructions()[i],
                  p.instructions()[i])
            << "instruction " << i << ": "
            << p.instructions()[i].toString();
}

TEST(IsaBinary, RandomProgramsRoundTripBinaryAndText)
{
    std::mt19937 rng(20260808);
    std::array<std::uint64_t,
               static_cast<std::size_t>(Opcode::NumOpcodes)>
        seen{};
    for (int trial = 0; trial < 200; ++trial) {
        const Program p = randomProgram(rng, 1 + trial % 24);
        expectProgramIdentities(p);
        const auto hist = isa::opcodeHistogram(p);
        for (std::size_t i = 0; i < hist.size(); ++i)
            seen[i] += hist[i];
    }
    // The corpus must exercise every opcode.
    for (std::size_t i = 0; i < seen.size(); ++i)
        EXPECT_GT(seen[i], 0u)
            << "opcode never generated: "
            << isa::toString(static_cast<Opcode>(i));
}

TEST(IsaBinary, EmptyProgramRoundTrips)
{
    Program p;
    const std::string blob = isa::encodeProgram(p);
    EXPECT_EQ(blob.size(), isa::kProgramHeaderBytes);
    Program decoded;
    ASSERT_TRUE(isa::decodeProgram(blob, decoded, nullptr));
    EXPECT_TRUE(decoded.empty());
}

TEST(IsaBinary, TruncationAndBitFlipsAreRejected)
{
    std::mt19937 rng(7);
    const Program p = randomProgram(rng, 3);
    const std::string blob = isa::encodeProgram(p);

    for (std::size_t n = 0; n < blob.size(); ++n) {
        Program out;
        EXPECT_FALSE(
            isa::decodeProgram(blob.substr(0, n), out, nullptr))
            << "accepted a " << n << "-byte truncation";
    }
    for (std::size_t byte = 0; byte < blob.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = blob;
            flipped[byte] = static_cast<char>(
                static_cast<unsigned char>(flipped[byte]) ^
                (1u << bit));
            Program out;
            EXPECT_FALSE(isa::decodeProgram(flipped, out, nullptr))
                << "accepted flip of byte " << byte << " bit " << bit;
        }
    }
}

TEST(IsaBinary, AppendedBytesAreRejected)
{
    const std::string blob = isa::encodeProgram(Program());
    Program out;
    EXPECT_FALSE(isa::decodeProgram(blob + '\0', out, nullptr));
}

// ---------------------------------------------------------------------
// Reserved record bits: flag bits the opcode does not carry and the
// padding bytes. The payload checksum is recomputed after each edit,
// so the record decoder itself must reject them.
// ---------------------------------------------------------------------

/** A one-instruction container whose record has @p edit applied,
 * with a matching payload checksum. */
template <typename Edit>
std::string
editedContainer(const Instruction &inst, Edit edit)
{
    Program p;
    p.append(inst);
    std::string blob = isa::encodeProgram(p);
    edit(blob, isa::kProgramHeaderBytes);
    std::uint64_t sum =
        Fnv1a()
            .bytes(blob.data() + isa::kProgramHeaderBytes,
                   blob.size() - isa::kProgramHeaderBytes)
            .value();
    for (std::size_t i = 0; i < 8; ++i, sum >>= 8)
        blob[32 + i] = static_cast<char>(sum & 0xff);
    return blob;
}

/** Set the record's 32-bit little-endian flag word to @p bits. */
auto
withFlagBits(std::uint32_t bits)
{
    return [bits](std::string &blob, std::size_t record) {
        for (std::size_t i = 0; i < 4; ++i)
            blob[record + 4 + i] =
                static_cast<char>((bits >> (8 * i)) & 0xff);
    };
}

TEST(IsaBinary, FlagBitsOutsideTheOpcodeRowAreRejected)
{
    for (std::size_t i = 0; i < isa::kNumOpcodes; ++i) {
        Instruction inst;
        inst.op = static_cast<Opcode>(i);
        if (inst.op == Opcode::Loop || inst.op == Opcode::EndLoop)
            continue; // a lone bracket is structurally invalid
        const std::uint32_t allowed = isa::opInfo(inst.op).flags;
        for (int bit = 0; bit < 32; ++bit) {
            const std::uint32_t bits = 1u << bit;
            const std::string blob =
                editedContainer(inst, withFlagBits(bits));
            Program out;
            std::string error;
            const bool ok = isa::decodeProgram(blob, out, &error);
            EXPECT_EQ(ok, (bits & allowed) != 0)
                << isa::toString(inst.op) << " bit " << bit;
            if (ok) // what is accepted re-encodes to the same bytes
                EXPECT_EQ(isa::encodeProgram(out), blob);
            else
                EXPECT_EQ(error, "malformed instruction record 0");
        }
    }
}

TEST(IsaBinary, NonZeroPaddingIsRejected)
{
    Instruction inst;
    inst.op = Opcode::Fill;
    inst.dst = makeOperand(Space::VecBuf, 0, 4);
    inst.imm = 1.0f;
    for (std::size_t byte = 88; byte < isa::kEncodedBytes; ++byte) {
        const std::string blob = editedContainer(
            inst, [byte](std::string &b, std::size_t record) {
                b[record + byte] = '\x01';
            });
        Program out;
        std::string error;
        EXPECT_FALSE(isa::decodeProgram(blob, out, &error))
            << "accepted padding byte " << byte;
        EXPECT_EQ(error, "malformed instruction record 0");
    }
}

// ---------------------------------------------------------------------
// Every compiler-emitted program (NTM and DNC) satisfies the same
// identities — this is the acceptance criterion for the container.
// ---------------------------------------------------------------------

void
expectSegmentsRoundTrip(
    const std::vector<compiler::CompiledSegment> &segments)
{
    std::size_t checked = 0;
    for (const auto &segment : segments)
        for (const Program &p : segment.tilePrograms) {
            SCOPED_TRACE(segment.name);
            expectProgramIdentities(p);
            ++checked;
        }
    EXPECT_GT(checked, 0u);
}

TEST(IsaBinary, CompilerNtmProgramsRoundTrip)
{
    for (const auto &bench : workloads::table2Suite()) {
        if (bench.config.memN * bench.config.memM > 1024 * 128)
            continue; // keep tier-1 runtime small
        SCOPED_TRACE(bench.name);
        const auto model = compiler::compile(
            bench.config, arch::MannaConfig::withTiles(4));
        expectSegmentsRoundTrip(model.stepSegments);
    }
}

TEST(IsaBinary, CompilerDncProgramsRoundTrip)
{
    mann::DncConfig dnc;
    dnc.memN = 24;
    dnc.memM = 12;
    dnc.numReadHeads = 2;
    dnc.controllerWidth = 32;
    dnc.inputDim = 6;
    dnc.outputDim = 6;
    const auto model =
        compiler::compileDnc(dnc, arch::MannaConfig::withTiles(4));
    expectSegmentsRoundTrip(model.stepSegments);
}

} // namespace
} // namespace manna
