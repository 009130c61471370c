#include "isa.hh"

#include <cstring>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna::isa
{

const char *
toString(Space s)
{
    switch (s) {
      case Space::None:
        return "none";
      case Space::MatBuf:
        return "mbuf";
      case Space::MatSpad:
        return "mspad";
      case Space::VecBuf:
        return "vbuf";
      case Space::VecSpad:
        return "vspad";
    }
    return "?";
}

const char *
toString(Opcode op)
{
    switch (op) {
      case Opcode::Nop:
        return "nop";
      case Opcode::Halt:
        return "halt";
      case Opcode::Loop:
        return "loop";
      case Opcode::EndLoop:
        return "endloop";
      case Opcode::DmaLoadM:
        return "dma.load.m";
      case Opcode::DmatLoadM:
        return "dmat.load.m";
      case Opcode::DmaStoreM:
        return "dma.store.m";
      case Opcode::DmaLoadV:
        return "dma.load.v";
      case Opcode::DmaStoreV:
        return "dma.store.v";
      case Opcode::Vmm:
        return "vmm";
      case Opcode::EwAdd:
        return "ew.add";
      case Opcode::EwSub:
        return "ew.sub";
      case Opcode::EwMul:
        return "ew.mul";
      case Opcode::EwMac:
        return "ew.mac";
      case Opcode::EwAddImm:
        return "ew.addi";
      case Opcode::EwMulImm:
        return "ew.muli";
      case Opcode::EwRsubImm:
        return "ew.rsubi";
      case Opcode::Fill:
        return "fill";
      case Opcode::SfuExp:
        return "sfu.exp";
      case Opcode::SfuPow:
        return "sfu.pow";
      case Opcode::SfuRecip:
        return "sfu.recip";
      case Opcode::SfuSqrt:
        return "sfu.sqrt";
      case Opcode::SfuSigmoid:
        return "sfu.sigmoid";
      case Opcode::SfuTanh:
        return "sfu.tanh";
      case Opcode::SfuSoftplus:
        return "sfu.softplus";
      case Opcode::SfuAccSum:
        return "sfu.accsum";
      case Opcode::SfuAccMax:
        return "sfu.accmax";
      case Opcode::Reduce:
        return "reduce";
      case Opcode::Broadcast:
        return "broadcast";
      case Opcode::NumOpcodes:
        break;
    }
    return "?";
}

std::string
profileKey(Opcode op)
{
    std::string key = toString(op);
    for (char &c : key)
        if (c == '.')
            c = '_';
    return key;
}

const char *
toString(ReduceOp op)
{
    switch (op) {
      case ReduceOp::Sum:
        return "sum";
      case ReduceOp::Max:
        return "max";
    }
    return "?";
}

std::string
Operand::toString() const
{
    if (!valid())
        return "-";
    std::string s = strformat("%s[%u:%u", manna::isa::toString(space),
                              base, len);
    if (stride[0] != 0 || stride[1] != 0 || stride[2] != 0)
        s += strformat(",%d,%d,%d", stride[0], stride[1], stride[2]);
    s += "]";
    return s;
}

Operand
makeOperand(Space space, std::uint32_t base, std::uint32_t len)
{
    Operand op;
    op.space = space;
    op.base = base;
    op.len = len;
    return op;
}

Operand
makeStridedOperand(Space space, std::uint32_t base, std::uint32_t len,
                   std::int32_t stride0, std::int32_t stride1,
                   std::int32_t stride2)
{
    Operand op = makeOperand(space, base, len);
    op.stride[0] = stride0;
    op.stride[1] = stride1;
    op.stride[2] = stride2;
    return op;
}

std::string
Instruction::toString() const
{
    std::string s = manna::isa::toString(op);
    if (op == Opcode::Loop) {
        s += strformat(" %u", count);
        return s;
    }
    if (op == Opcode::Vmm) {
        if (flags.rowDot)
            s += ".rowdot";
        if (flags.withNorms)
            s += ".norms";
        if (flags.accumulate)
            s += ".acc";
        if (flags.reuseB)
            s += ".reuse";
        if (flags.skewed)
            s += ".skew";
        if (flags.dstResident)
            s += ".res";
    }
    if (op == Opcode::Reduce)
        s += strformat(".%s", manna::isa::toString(flags.reduceOp));
    const bool isMatrixDma = op == Opcode::DmaLoadM ||
                             op == Opcode::DmatLoadM ||
                             op == Opcode::DmaStoreM;
    if (isMatrixDma) {
        // srcB.base carries the buffer-side row pitch for the 2D
        // transfers; it is not a real operand.
        s += strformat(" rows=%u pitch=%u", count, srcB.base);
    }
    if (op == Opcode::Vmm && flags.withNorms)
        s += strformat(" off=%u", count);
    // Communication instructions carry a compiler-internal tag in
    // `count` (compiler/compiled_model.hh); emitting it keeps
    // assemble(disassemble(p)) == p for compiler-emitted programs.
    if ((op == Opcode::Reduce || op == Opcode::Broadcast) && count != 0)
        s += strformat(" tag=%u", count);
    if (dst.valid())
        s += " d=" + dst.toString();
    if (srcA.valid())
        s += " a=" + srcA.toString();
    if (srcB.valid() && !isMatrixDma)
        s += " b=" + srcB.toString();
    if (imm != 0.0f)
        s += strformat(" imm=%.9g", static_cast<double>(imm));
    return s;
}

namespace
{

// Explicit little-endian byte order, so encoded programs are
// byte-identical across hosts (docs/ISA.md "Binary encoding").
void
put32(std::string &out, std::uint32_t v)
{
    out.push_back(static_cast<char>(v & 0xff));
    out.push_back(static_cast<char>((v >> 8) & 0xff));
    out.push_back(static_cast<char>((v >> 16) & 0xff));
    out.push_back(static_cast<char>((v >> 24) & 0xff));
}

std::uint32_t
get32(const std::string &data, std::size_t off)
{
    const auto b = [&](std::size_t i) {
        return static_cast<std::uint32_t>(
            static_cast<unsigned char>(data[off + i]));
    };
    return b(0) | (b(1) << 8) | (b(2) << 16) | (b(3) << 24);
}

void
encodeOperand(const Operand &op, std::string &out)
{
    put32(out, static_cast<std::uint32_t>(op.space));
    put32(out, op.base);
    for (std::size_t i = 0; i < kMaxLoopDepth; ++i)
        put32(out, static_cast<std::uint32_t>(op.stride[i]));
    put32(out, op.len);
}

bool
decodeOperand(const std::string &data, std::size_t off, Operand &op)
{
    const std::uint32_t space = get32(data, off);
    if (space > static_cast<std::uint32_t>(Space::VecSpad))
        return false;
    op.space = static_cast<Space>(space);
    op.base = get32(data, off + 4);
    for (std::size_t i = 0; i < kMaxLoopDepth; ++i)
        op.stride[i] =
            static_cast<std::int32_t>(get32(data, off + 8 + 4 * i));
    op.len = get32(data, off + 8 + 4 * kMaxLoopDepth);
    return true;
}

constexpr std::size_t kOperandBytes = 4 * (3 + kMaxLoopDepth);

} // namespace

void
encode(const Instruction &inst, std::string &out)
{
    const std::size_t start = out.size();
    std::uint32_t head = static_cast<std::uint32_t>(inst.op);
    std::uint32_t flagBits = 0;
    if (inst.flags.rowDot)
        flagBits |= 1u;
    if (inst.flags.accumulate)
        flagBits |= 2u;
    if (inst.flags.withNorms)
        flagBits |= 4u;
    if (inst.flags.reduceOp == ReduceOp::Max)
        flagBits |= 8u;
    if (inst.flags.reuseB)
        flagBits |= 16u;
    if (inst.flags.skewed)
        flagBits |= 32u;
    if (inst.flags.dstResident)
        flagBits |= 64u;
    put32(out, head);
    put32(out, flagBits);
    put32(out, inst.count);
    std::uint32_t immBits;
    std::memcpy(&immBits, &inst.imm, 4);
    put32(out, immBits);
    encodeOperand(inst.dst, out);
    encodeOperand(inst.srcA, out);
    encodeOperand(inst.srcB, out);
    // Pad to the fixed size.
    while (out.size() - start < kEncodedBytes)
        out.push_back('\0');
    MANNA_ASSERT(out.size() - start == kEncodedBytes,
                 "encoding overflowed the fixed size: %zu",
                 out.size() - start);
}

bool
decode(const std::string &data, std::size_t offset, Instruction &inst)
{
    if (offset + kEncodedBytes > data.size())
        return false;
    const std::uint32_t head = get32(data, offset);
    if (head >= static_cast<std::uint32_t>(Opcode::NumOpcodes))
        return false;
    inst.op = static_cast<Opcode>(head);
    const std::uint32_t flagBits = get32(data, offset + 4);
    inst.flags.rowDot = flagBits & 1u;
    inst.flags.accumulate = flagBits & 2u;
    inst.flags.withNorms = flagBits & 4u;
    inst.flags.reduceOp =
        (flagBits & 8u) ? ReduceOp::Max : ReduceOp::Sum;
    inst.flags.reuseB = flagBits & 16u;
    inst.flags.skewed = flagBits & 32u;
    inst.flags.dstResident = flagBits & 64u;
    inst.count = get32(data, offset + 8);
    const std::uint32_t immBits = get32(data, offset + 12);
    std::memcpy(&inst.imm, &immBits, 4);
    std::size_t off = offset + 16;
    if (!decodeOperand(data, off, inst.dst))
        return false;
    off += kOperandBytes;
    if (!decodeOperand(data, off, inst.srcA))
        return false;
    off += kOperandBytes;
    if (!decodeOperand(data, off, inst.srcB))
        return false;
    return true;
}

} // namespace manna::isa
