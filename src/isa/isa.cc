#include "isa.hh"

#include <cstring>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna::isa
{

std::string
profileKey(Opcode op)
{
    std::string key = toString(op);
    for (char &c : key)
        if (c == '.')
            c = '_';
    return key;
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

std::uint32_t
flagBits(const Flags &flags)
{
    std::uint32_t bits = 0;
    for (const FlagInfo &f : kFlagTable)
        if (f.member ? flags.*f.member
                     : flags.reduceOp == ReduceOp::Max)
            bits |= f.bit;
    return bits;
}

Flags
flagsFromBits(std::uint32_t bits)
{
    Flags flags;
    for (const FlagInfo &f : kFlagTable) {
        const bool set = bits & f.bit;
        if (f.member)
            flags.*f.member = set;
        else
            flags.reduceOp = set ? ReduceOp::Max : ReduceOp::Sum;
    }
    return flags;
}

std::string
Instruction::toString() const
{
    const OpInfo &info = opInfo(op);
    std::string s = info.mnemonic;
    if (info.count == CountRole::LoopTrip)
        return s + strformat(" %u", count);
    const std::uint32_t bits = flagBits(flags);
    for (const FlagInfo &f : kFlagTable) {
        if (!(info.flags & f.bit))
            continue;
        const char *suffix = bits & f.bit ? f.suffix : f.clearSuffix;
        if (suffix != nullptr)
            s += strformat(".%s", suffix);
    }
    switch (info.count) {
      case CountRole::Rows:
        // srcB.base carries the buffer-side row pitch for the 2D
        // transfers; it is not a real operand.
        s += strformat(" rows=%u pitch=%u", count, srcB.base);
        break;
      case CountRole::NormsOffset:
        if (flags.withNorms)
            s += strformat(" off=%u", count);
        break;
      case CountRole::Tag:
        // A compiler-internal tag (compiler/compiled_model.hh);
        // emitting it keeps assemble(disassemble(p)) == p for
        // compiler-emitted programs.
        if (count != 0)
            s += strformat(" tag=%u", count);
        break;
      case CountRole::Unused:
      case CountRole::LoopTrip:
        break;
    }
    if (dst.valid())
        s += " d=" + dst.toString();
    if (srcA.valid())
        s += " a=" + srcA.toString();
    if (srcB.valid() && info.count != CountRole::Rows)
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
    if (space >= std::size(kSpaceNames))
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
    put32(out, static_cast<std::uint32_t>(inst.op));
    put32(out, flagBits(inst.flags));
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
    if (head >= kNumOpcodes)
        return false;
    inst.op = static_cast<Opcode>(head);
    // Flag bits the opcode does not carry, and non-zero padding, would
    // not survive encode(decode(b)).
    const std::uint32_t bits = get32(data, offset + 4);
    if (bits & ~opInfo(inst.op).flags)
        return false;
    for (std::size_t i = 16 + 3 * kOperandBytes; i < kEncodedBytes; ++i)
        if (data[offset + i] != '\0')
            return false;
    inst.flags = flagsFromBits(bits);
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
