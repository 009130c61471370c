/**
 * @file
 * Output of the Manna compiler (Section 5.2): per-tile programs for
 * one time step, the memory layout needed to load model state onto
 * the tiles, and (for the NTM) the mapping decisions that produced
 * them. CompiledDnc (dnc_codegen.hh) shares CompiledProgram.
 */

#ifndef MANNA_COMPILER_COMPILED_MODEL_HH
#define MANNA_COMPILER_COMPILED_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "arch/manna_config.hh"
#include "compiler/mapping.hh"
#include "isa/program.hh"
#include "mann/mann_config.hh"
#include "mann/op_counter.hh"

namespace manna::compiler
{

/**
 * Tags carried in the `count` field of communication instructions so
 * the chip knows which exchanges interact with the Controller tile.
 */
enum class CommTag : std::uint32_t
{
    None = 0,
    /** Broadcast whose payload is the controller's hidden state; the
     * chip injects it at the tree root. */
    HiddenIn = 1,
    /** Reduce whose result is a final read vector r_h; the chip
     * captures it for the next controller input. The read-head index
     * is packed in the upper bits. */
    ReadVectorOut = 2,
    /** DNC only: reduce of the scattered usage vector; the root
     * (Controller tile) transforms it into the allocation weighting
     * (free-list scan) before the following broadcast. */
    UsageToAllocation = 3,
};

/** Pack/unpack comm tags into the instruction `count` field. */
std::uint32_t packCommTag(CommTag tag, std::uint32_t index = 0);
CommTag commTagOf(std::uint32_t count);
std::uint32_t commIndexOf(std::uint32_t count);

/** One vector a matrix sweep multiplies (`src`) and the vector its
 * products accumulate into (`dst`). */
struct SweepVec
{
    isa::Space srcSpace;
    std::uint32_t src;
    isa::Space dstSpace;
    std::uint32_t dst;
};

/** What a blocked memory sweep does with each row of its matrix. */
enum class SweepKind : std::uint8_t
{
    RowDot,    ///< each vector's dst[r] += dot(row r, src)
    Column,    ///< each vector's dst[0..cols) += src[r] * row r
    RowUpdate, ///< the row is updated in place
};

/** How a blocked sweep walks its rows x cols matrix (rows `pitch`
 * words apart): blocks of blockN rows and blockM columns, the last
 * row and column block narrower when they do not divide, row blocks
 * outside column blocks (outerRows) or the other way round. */
struct SweepGrid
{
    SweepKind kind = SweepKind::RowDot;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint32_t pitch = 0;
    std::uint32_t blockN = 0;
    std::uint32_t blockM = 0;
    bool outerRows = true;
};

/**
 * One blocked memory sweep of a tile program, as the KernelRoutines
 * routine that emitted it knows it: each block is loaded from the
 * matrix into the Matrix-Scratchpad, then served (per vector, a copy
 * of its slice into the stage words and a Vmm; or a row update of
 * every staged row through the stage words, then a store back). It
 * lives in memory only (program bytes, MNPR and .masm do not carry
 * it), and the replay tape merges exactly the sweeps it names
 * (sim/replay.hh).
 */
struct SweepDesc : SweepGrid
{
    std::uint32_t matBase = 0;  ///< MatBuf address of the matrix
    std::vector<SweepVec> vecs; ///< RowDot and Column
    bool withNorms = false;     ///< RowDot: row norms into `norms`,
    std::uint32_t norms = 0;    ///< in the first vector's dst space
    std::uint32_t stage = 0;    ///< VecSpad address of the stage words
    std::size_t begin = 0;      ///< its loop nest's instructions,
    std::size_t end = 0;        ///< [begin, end) of the tile program
};

/**
 * One bulk-synchronous program segment: all tiles run their program,
 * synchronizing at the embedded Reduce/Broadcast instructions. Each
 * segment is attributed to one paper kernel group (Figures 2/10).
 */
struct CompiledSegment
{
    mann::KernelGroup group;
    std::string name;
    std::vector<isa::Program> tilePrograms; ///< one per DiffMem tile
    /** Per tile program, its memory sweeps in program order. */
    std::vector<std::vector<SweepDesc>> tileSweeps;
};

/** Placement of a row-partitioned matrix across the tiles. */
struct RowPartition
{
    std::uint32_t base = 0; ///< MatBuf word address (same on all tiles)
    std::uint32_t cols = 0; ///< words per row
    std::vector<std::uint32_t> rowStart; ///< first global row, per tile
    std::vector<std::uint32_t> rowCount; ///< rows held, per tile
};

/** Per-space functional storage sizes (uniform across tiles). */
struct BufferWords
{
    std::size_t matBufWords = 0;
    std::size_t matSpadWords = 0;
    std::size_t vecBufWords = 0;
    std::size_t vecSpadWords = 0;
};

/** Addresses the chip needs to load model state onto the tiles. */
struct ChipLayout : BufferWords
{
    /** Differentiable memory slice (rows of M). */
    RowPartition memory;

    /** Head weight matrices, read heads then write heads, partitioned
     * across tiles by output (parameter) rows. */
    std::vector<RowPartition> headWeights;

    /** VecBuf address of the persistent previous weighting w_{h}^{t-1}
     * slice (length = local memory row count), one entry per head
     * (read heads first). */
    std::vector<std::uint32_t> wPrevBase;
};

/** What every compiled model carries: the per-tile programs of one
 * time step and the compile diagnostics. */
struct CompiledProgram
{
    arch::MannaConfig archCfg;

    /** Segments executed in order for every time step. */
    std::vector<CompiledSegment> stepSegments;

    /** Human-readable capacity/diagnostic warnings. */
    std::vector<std::string> warnings;

    /** Longest per-tile static program across segments. */
    std::size_t maxProgramLength() const;

    /** Disassembly of every segment for one tile. */
    std::string disassembleTile(std::size_t tile) const;
};

/** The complete compiled NTM artifact. */
struct CompiledModel : CompiledProgram
{
    mann::MannConfig mannCfg;
    Mapping mapping;
    ChipLayout layout;
};

} // namespace manna::compiler

#endif // MANNA_COMPILER_COMPILED_MODEL_HH
