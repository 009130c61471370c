/**
 * @file
 * Container for one tile's instruction stream, with structural
 * validation (balanced loops, nesting depth, instruction-memory
 * capacity) and (dis)assembly entry points.
 */

#ifndef MANNA_ISA_PROGRAM_HH
#define MANNA_ISA_PROGRAM_HH

#include <string>
#include <vector>

#include "isa/isa.hh"

namespace manna::isa
{

/**
 * A per-tile program: a flat instruction vector executed top to
 * bottom, with Loop/EndLoop brackets interpreted by the tile.
 */
class Program
{
  public:
    Program() = default;

    void append(Instruction inst) { insts_.push_back(std::move(inst)); }

    /** Append a Loop header with the given trip count. */
    void beginLoop(std::uint32_t count);

    /** Append the matching EndLoop. */
    void endLoop();

    const std::vector<Instruction> &instructions() const
    {
        return insts_;
    }
    std::vector<Instruction> &instructions() { return insts_; }

    std::size_t size() const { return insts_.size(); }
    bool empty() const { return insts_.empty(); }

    /**
     * Structural validation: loops balanced, nesting within
     * kMaxLoopDepth, loop counts nonzero, Halt (if present) last,
     * flags only those of each opcode's descriptor row.
     * Returns an empty string when valid, else a diagnostic.
     */
    std::string validate() const;

    /** Total dynamic instruction count after loop expansion. */
    std::uint64_t dynamicLength() const;

    /** Disassemble to text, one instruction per line, loops indented. */
    std::string disassemble() const;

    /** Binary serialization (concatenated fixed-size encodings). */
    std::string serialize() const;

    /** Parse a binary serialization; returns false on malformed
     * input. */
    static bool deserialize(const std::string &data, Program &out);

  private:
    std::vector<Instruction> insts_;
};

} // namespace manna::isa

#endif // MANNA_ISA_PROGRAM_HH
