/**
 * @file
 * Versioned binary container for an isa::Program — the on-disk
 * "Manna program" format (docs/FORMATS.md, docs/ISA.md "Binary
 * encoding"). A 40-byte header (magic, version, geometry, FNV-1a
 * payload checksum) is followed by the fixed-size per-instruction
 * records of isa::encode(). The encoding is byte-deterministic
 * (explicit little-endian field order, zero padding) and
 * decodeProgram(encodeProgram(p)) is structurally identical to p for
 * every valid program; any single-bit corruption of a container is
 * rejected (header fields are validated exactly and the checksum
 * covers the whole payload).
 */

#ifndef MANNA_ISA_BINARY_HH
#define MANNA_ISA_BINARY_HH

#include <array>
#include <cstdint>
#include <string>

#include "isa/program.hh"

namespace manna::isa
{

/** Container magic: the first four bytes of every encoded program. */
constexpr char kProgramMagic[4] = {'M', 'N', 'P', 'R'};

/** Current container version (header field 1). */
constexpr std::uint32_t kProgramVersion = 1;

/** Header size in bytes (fixed for version 1). */
constexpr std::size_t kProgramHeaderBytes = 40;

/** Encode @p program into a self-contained binary container. */
std::string encodeProgram(const Program &program);

/**
 * Decode a binary container produced by encodeProgram(). Returns
 * true and fills @p out on success; on failure returns false and, if
 * @p error is non-null, stores a one-line diagnostic (bad magic,
 * unsupported version, truncation, checksum mismatch, malformed
 * instruction record, or structural invalidity per
 * Program::validate()).
 */
bool decodeProgram(const std::string &data, Program &out,
                   std::string *error = nullptr);

/** True when @p data begins with the program-container magic. */
bool looksLikeProgram(const std::string &data);

/** Per-opcode static instruction counts of a program (indexed by
 * Opcode value; used by manna-objdump's histogram). */
std::array<std::uint64_t, kNumOpcodes>
opcodeHistogram(const Program &program);

/**
 * Canonical hexdump of a byte range: 16 bytes per line as
 * "OFFSET  XX XX .. XX  |ascii|" (non-printable bytes render as
 * '.'). Used by manna-objdump and the docs' worked example.
 */
std::string hexdump(const std::string &data, std::size_t offset = 0,
                    std::size_t length = std::string::npos);

} // namespace manna::isa

#endif // MANNA_ISA_BINARY_HH
