/**
 * @file
 * Textual assembler/disassembler for the Manna ISA. The text format
 * is exactly what Instruction::toString() and Program::disassemble()
 * emit; the assembler rejects any suffix or count field the opcode's
 * descriptor row does not carry, and any number that does not fit its
 * field, so assemble(disassemble(p)) == p (conditions in docs/ISA.md).
 * Useful for tests, the compiler-explorer example, and debugging
 * compiled kernels.
 */

#ifndef MANNA_ISA_ASSEMBLER_HH
#define MANNA_ISA_ASSEMBLER_HH

#include <optional>
#include <string>

#include "isa/program.hh"

namespace manna::isa
{

/** Result of an assembly attempt. */
struct AssembleResult
{
    Program program;
    std::string error; ///< empty on success
    std::size_t errorLine = 0;

    bool ok() const { return error.empty(); }
};

/**
 * Parse assembly text into a Program. Blank lines and lines starting
 * with '#' or ';' are ignored; leading indentation is ignored.
 */
AssembleResult assemble(const std::string &text);

/** Parse a single instruction line (no comments/blank allowed). */
std::optional<Instruction> parseInstruction(const std::string &line,
                                            std::string &error);

} // namespace manna::isa

#endif // MANNA_ISA_ASSEMBLER_HH
