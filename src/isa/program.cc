#include "program.hh"

#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna::isa
{

void
Program::beginLoop(std::uint32_t count)
{
    Instruction inst;
    inst.op = Opcode::Loop;
    inst.count = count;
    insts_.push_back(inst);
}

void
Program::endLoop()
{
    Instruction inst;
    inst.op = Opcode::EndLoop;
    insts_.push_back(inst);
}

std::string
Program::validate() const
{
    std::size_t depth = 0;
    for (std::size_t i = 0; i < insts_.size(); ++i) {
        const Instruction &inst = insts_[i];
        // The record decoder rejects such flags (isa::decode).
        if (flagBits(inst.flags) & ~opInfo(inst.op).flags)
            return strformat("instruction %zu: flag not valid for %s", i,
                             toString(inst.op));
        switch (inst.op) {
          case Opcode::Loop:
            if (inst.count == 0)
                return strformat("instruction %zu: loop count is zero",
                                 i);
            ++depth;
            if (depth > kMaxLoopDepth)
                return strformat(
                    "instruction %zu: loop nesting %zu exceeds max %zu",
                    i, depth, kMaxLoopDepth);
            break;
          case Opcode::EndLoop:
            if (depth == 0)
                return strformat(
                    "instruction %zu: endloop without matching loop", i);
            --depth;
            break;
          case Opcode::Halt:
            if (i + 1 != insts_.size())
                return strformat(
                    "instruction %zu: halt must be the last instruction",
                    i);
            break;
          default:
            break;
        }
    }
    if (depth != 0)
        return strformat("%zu unclosed loop(s) at end of program", depth);
    return "";
}

std::uint64_t
Program::dynamicLength() const
{
    // Walk with a multiplier stack.
    std::uint64_t total = 0;
    std::vector<std::uint64_t> multipliers = {1};
    for (const Instruction &inst : insts_) {
        switch (inst.op) {
          case Opcode::Loop:
            total += multipliers.back();
            multipliers.push_back(multipliers.back() * inst.count);
            break;
          case Opcode::EndLoop:
            MANNA_ASSERT(multipliers.size() > 1,
                         "unbalanced loop in dynamicLength");
            total += multipliers[multipliers.size() - 2];
            multipliers.pop_back();
            break;
          default:
            total += multipliers.back();
            break;
        }
    }
    return total;
}

std::string
Program::disassemble() const
{
    std::string out;
    std::size_t depth = 0;
    for (const Instruction &inst : insts_) {
        if (inst.op == Opcode::EndLoop && depth > 0)
            --depth;
        out += std::string(4 * depth, ' ');
        out += inst.toString();
        out += "\n";
        if (inst.op == Opcode::Loop)
            ++depth;
    }
    return out;
}

std::string
Program::serialize() const
{
    std::string out;
    out.reserve(insts_.size() * kEncodedBytes);
    for (const Instruction &inst : insts_)
        encode(inst, out);
    return out;
}

bool
Program::deserialize(const std::string &data, Program &out)
{
    if (data.size() % kEncodedBytes != 0)
        return false;
    Program prog;
    for (std::size_t off = 0; off < data.size(); off += kEncodedBytes) {
        Instruction inst;
        if (!decode(data, off, inst))
            return false;
        prog.append(inst);
    }
    out = std::move(prog);
    return true;
}

} // namespace manna::isa
