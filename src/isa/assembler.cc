#include "assembler.hh"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace manna::isa
{

namespace
{

/** Parse @p text as an integer that fits T; the error names
 * @p field. */
template <typename T>
bool
parseNumber(const std::string &text, const std::string &field, T &out,
            std::string &error)
{
    const auto v = parseInt(text);
    if (!v) {
        error = "bad " + field + " '" + text + "'";
        return false;
    }
    if (!std::in_range<T>(*v)) {
        error = field + " '" + text + "' out of range";
        return false;
    }
    out = static_cast<T>(*v);
    return true;
}

/** Parse "space[base:len]" or "space[base:len,s0,s1,s2]". */
bool
parseOperand(const std::string &text, Operand &out, std::string &error)
{
    const auto bracket = text.find('[');
    if (bracket == std::string::npos || text.back() != ']') {
        error = "operand '" + text + "' missing [base:len]";
        return false;
    }
    const std::string spaceName = text.substr(0, bracket);
    std::size_t space = 1; // "none" names no operand
    while (space < std::size(kSpaceNames) &&
           spaceName != kSpaceNames[space])
        ++space;
    if (space == std::size(kSpaceNames)) {
        error = "unknown memory space '" + spaceName + "'";
        return false;
    }
    const std::string inner =
        text.substr(bracket + 1, text.size() - bracket - 2);
    const auto parts = split(inner, ',');
    if (parts.empty() || parts.size() > 1 + kMaxLoopDepth) {
        error = "operand '" + text + "' has bad field count";
        return false;
    }
    const auto baseLen = split(parts[0], ':');
    if (baseLen.size() != 2) {
        error = "operand '" + text + "' missing base:len";
        return false;
    }
    Operand op;
    op.space = static_cast<Space>(space);
    bool ok = parseNumber(baseLen[0], "base", op.base, error) &&
              parseNumber(baseLen[1], "len", op.len, error);
    for (std::size_t i = 1; ok && i < parts.size(); ++i)
        ok = parseNumber(parts[i], "stride", op.stride[i - 1], error);
    if (!ok) {
        error = "operand '" + text + "': " + error;
        return false;
    }
    out = op;
    return true;
}

} // namespace

std::optional<Instruction>
parseInstruction(const std::string &line, std::string &error)
{
    const auto tokens = splitWhitespace(line);
    if (tokens.empty()) {
        error = "empty instruction";
        return std::nullopt;
    }

    // Mnemonic with optional dot-suffixes (vmm.rowdot.acc,
    // reduce.sum, ...). Match the longest known prefix.
    std::string mnemonic = tokens[0];
    Instruction inst;
    std::vector<std::string> suffixes;
    while (true) {
        std::size_t op = 0;
        while (op < kNumOpcodes &&
               mnemonic != opInfo(static_cast<Opcode>(op)).mnemonic)
            ++op;
        if (op < kNumOpcodes) {
            inst.op = static_cast<Opcode>(op);
            break;
        }
        const auto dot = mnemonic.rfind('.');
        if (dot == std::string::npos) {
            error = "unknown mnemonic '" + tokens[0] + "'";
            return std::nullopt;
        }
        suffixes.push_back(mnemonic.substr(dot + 1));
        mnemonic = mnemonic.substr(0, dot);
    }
    const OpInfo &info = opInfo(inst.op);
    std::uint32_t bits = 0;
    for (const auto &sfx : suffixes) {
        const auto named = [&](const FlagInfo &f) {
            return (info.flags & f.bit) &&
                   (sfx == f.suffix ||
                    (f.clearSuffix != nullptr && sfx == f.clearSuffix));
        };
        const auto f = std::find_if(std::begin(kFlagTable),
                                    std::end(kFlagTable), named);
        if (f == std::end(kFlagTable)) {
            error = "unknown suffix '." + sfx + "' for " + info.mnemonic;
            return std::nullopt;
        }
        bits = sfx == f->suffix ? bits | f->bit : bits & ~f->bit;
    }
    inst.flags = flagsFromBits(bits);

    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        if (info.count == CountRole::LoopTrip && i == 1) {
            if (!parseNumber(tok, "loop count", inst.count, error))
                return std::nullopt;
            if (inst.count == 0) {
                error = "loop needs a positive count";
                return std::nullopt;
            }
            continue;
        }
        const auto eq = tok.find('=');
        if (eq == std::string::npos) {
            error = "unexpected token '" + tok + "'";
            return std::nullopt;
        }
        const std::string key = tok.substr(0, eq);
        const std::string value = tok.substr(eq + 1);
        // Accept only what the disassembler prints for this opcode:
        // the field of its CountRole, and a matrix DMA's srcB only as
        // pitch=.
        const bool isRows = info.count == CountRole::Rows;
        bool valid = true;
        if (key == "rows" || key == "pitch")
            valid = isRows;
        else if (key == "off")
            valid = info.count == CountRole::NormsOffset &&
                    inst.flags.withNorms;
        else if (key == "tag")
            valid = info.count == CountRole::Tag;
        else if (key == "b")
            valid = !isRows;
        if (!valid) {
            error = "field '" + key + "=' not valid for " + tokens[0];
            return std::nullopt;
        }
        if (key == "rows" || key == "off" || key == "tag") {
            if (!parseNumber(value, key, inst.count, error))
                return std::nullopt;
        } else if (key == "pitch") {
            if (!parseNumber(value, key, inst.srcB.base, error))
                return std::nullopt;
        } else if (key == "imm") {
            const auto v = parseDouble(value);
            if (!v) {
                error = "bad immediate '" + value + "'";
                return std::nullopt;
            }
            inst.imm = static_cast<float>(*v);
        } else if (key == "d" || key == "a" || key == "b") {
            Operand op;
            if (!parseOperand(value, op, error))
                return std::nullopt;
            if (key == "d")
                inst.dst = op;
            else if (key == "a")
                inst.srcA = op;
            else
                inst.srcB = op;
        } else {
            error = "unknown field '" + key + "'";
            return std::nullopt;
        }
    }
    return inst;
}

AssembleResult
assemble(const std::string &text)
{
    AssembleResult result;
    const auto lines = split(text, '\n');
    for (std::size_t n = 0; n < lines.size(); ++n) {
        const std::string line = trim(lines[n]);
        if (line.empty() || line[0] == '#' || line[0] == ';')
            continue;
        std::string error;
        auto inst = parseInstruction(line, error);
        if (!inst) {
            result.error = error;
            result.errorLine = n + 1;
            return result;
        }
        result.program.append(*inst);
    }
    const std::string structural = result.program.validate();
    if (!structural.empty()) {
        result.error = structural;
        result.errorLine = 0;
    }
    return result;
}

} // namespace manna::isa
