/**
 * @file
 * The kernel-routine library both code generators (codegen.cc for the
 * NTM, dnc_codegen.cc for the DNC) emit their per-tile programs with:
 * row partitioning across tiles, the blocked two-level loop-nest
 * emitter, and KernelRoutines — one parameterized routine per memory
 * kernel (hidden-state projection, key similarity, content softmax,
 * soft read, erase/add soft write), the small replicated softmax,
 * segment assembly and the capacity check. A routine takes every
 * address, scalar slot, blocking factor and loop order from its
 * caller; none knows which model it emits for.
 */

#ifndef MANNA_COMPILER_CODEGEN_UTIL_HH
#define MANNA_COMPILER_CODEGEN_UTIL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "compiler/compiled_model.hh"
#include "isa/program.hh"

namespace manna::compiler
{

/** Ceil-division assignment of `total` rows to tiles; earlier tiles
 * get the larger share. */
std::vector<std::uint32_t> partitionRows(std::uint32_t total,
                                         std::size_t tiles);

/** Running starts of a partition. */
std::vector<std::uint32_t>
startsOf(const std::vector<std::uint32_t> &counts);

/** Bump allocator for one address space's layout. */
struct RegionAlloc
{
    std::uint32_t cursor = 0;
    std::uint32_t operator()(std::uint32_t words)
    {
        const std::uint32_t at = cursor;
        cursor += words;
        return at;
    }
};

/**
 * Loop context for the blocked sweeps: each of the three symbolic
 * axes (row block `rb`, column group `cg`, row-within-block `row`)
 * is either bound to a loop nesting level or fixed to a constant
 * index (for peeled remainder sections).
 */
struct SweepCtx
{
    int rbLevel = -1;
    int cgLevel = -1;
    int rowLevel = -1;
    std::uint32_t rbFixed = 0;
    std::uint32_t cgFixed = 0;
    int depth = 0; ///< current loop nesting depth
};

/** Build an operand whose address advances along the sweep axes. */
isa::Operand mk(isa::Space space, std::uint64_t base,
                std::uint32_t len, const SweepCtx &c,
                std::int64_t strideRb = 0, std::int64_t strideCg = 0,
                std::int64_t strideRow = 0);

/** Per-block emission callback: (program, ctx, rowsB, colsB). */
using SweepBody = std::function<void(isa::Program &, SweepCtx &,
                                     std::uint32_t, std::uint32_t)>;

/**
 * Emit the blocked two-level loop nest over a rows x cols matrix,
 * peeling row/column remainders. @p outerRows selects row-major
 * (outer row blocks) vs column-major (outer column groups) order.
 */
void emitBlockedSweep(isa::Program &prog, std::uint32_t rows,
                      std::uint32_t cols, std::uint32_t blockN,
                      std::uint32_t blockM, bool outerRows,
                      const SweepBody &body);

/** Instruction construction shorthand. */
isa::Instruction makeInst(isa::Opcode op, isa::Operand dst,
                          isa::Operand a = {}, isa::Operand b = {},
                          float imm = 0.0f);

/** A VecBuf operand, and a one-word one (a scalar slot). */
isa::Operand vecOp(std::uint32_t base, std::uint32_t len);
isa::Operand scalarOp(std::uint32_t addr);

/**
 * The memory row partition, the scratch regions every generated step
 * has, and the kernel routines that use them. A generator derives
 * from it, allocates these regions among its own in its layout
 * order, and calls the routines per tile.
 */
struct KernelRoutines
{
    /** Per-row update inside emitRowUpdateSweep: (program, row-loop
     * context, the scratchpad row, colsB). */
    using RowUpdate =
        std::function<void(isa::Program &, const SweepCtx &,
                           const isa::Operand &, std::uint32_t)>;

    KernelRoutines(const arch::MannaConfig &arch, std::size_t rows,
                   std::size_t rowWords, std::size_t hiddenDim,
                   float similarityEpsilon);

    const arch::MannaConfig &ac;
    std::size_t tiles;
    std::uint32_t memN, memM;
    std::vector<std::uint32_t> memRows, memStarts; ///< per tile
    std::uint32_t nLocalMax;
    std::uint32_t hiddenCols; ///< hidden state + constant-one lane
    float simEpsilon;

    // MatBuf.
    std::uint32_t mem = 0; ///< local memory rows, memM words each
    std::uint32_t raw = 0; ///< assembled projection output
    std::uint32_t tmpM = 0;
    std::uint32_t matBufWords = 0;
    // VecBuf.
    std::uint32_t hidden = 0; ///< hiddenCols words
    std::uint32_t simNorms = 0, tmpN = 0, tmpN2 = 0; ///< nLocalMax each
    std::uint32_t vecBufWords = 0;
    // VecSpad (allocated by the constructor).
    std::uint32_t stageVec = 0; ///< vector chunks for vmm srcA
    std::uint32_t stageRow = 0; ///< row-update temporary
    std::uint32_t vecSpadWords = 0;

    /** While addSegment() emits a tile program: where the emit*Sweep
     * routines describe the sweeps they emit. */
    mutable std::vector<SweepDesc> *sweeps = nullptr;

    std::uint32_t nLocal(std::size_t tile) const { return memRows[tile]; }

    /** Receive the controller's hidden state at every tile. */
    void emitHiddenIn(isa::Program &prog) const;

    /** Reduce @p op across the tiles and broadcast the result. */
    void emitReduceBroadcast(isa::Program &prog, isa::Operand op,
                             isa::ReduceOp reduce = isa::ReduceOp::Sum)
        const;

    /**
     * Row-dot sweep over the rows x cols matrix at MatBuf @p matBase:
     * each vector's dst[r] += dot(row r, src). Every block streams
     * through the scratchpad once (DMAT-skewed when present) and is
     * reused by every vector; @p withNorms also accumulates the row
     * norms into simNorms alongside the first.
     */
    void emitRowDotSweep(isa::Program &prog, std::uint32_t matBase,
                         std::uint32_t rows, std::uint32_t cols,
                         std::uint32_t blockN, std::uint32_t blockM,
                         const std::vector<SweepVec> &vecs,
                         bool withNorms) const;

    /**
     * Column-accumulate sweep over the rows x cols matrix at MatBuf
     * @p matBase: each vector's dst[c] += sum_r src[r] * M[r][c],
     * every block reused by every vector.
     */
    void emitColumnSweep(isa::Program &prog, std::uint32_t matBase,
                         std::uint32_t rows, std::uint32_t cols,
                         std::uint32_t blockN, std::uint32_t blockM,
                         bool outerRows,
                         const std::vector<SweepVec> &vecs) const;

    /**
     * Read-modify-write sweep over the rows x cols matrix at MatBuf
     * @p matBase: load each block, run @p update on each of its rows
     * in the scratchpad, store it back.
     */
    void emitRowUpdateSweep(isa::Program &prog, std::uint32_t matBase,
                            std::uint32_t rows, std::uint32_t cols,
                            std::uint32_t blockN, std::uint32_t blockM,
                            const RowUpdate &update) const;

    /** Emit the blocked loop nest over @p desc's grid, @p body per
     * block, and describe it in `sweeps` (its begin and end set
     * here). */
    void emitSweep(isa::Program &prog, SweepDesc desc,
                   const SweepBody &body) const;

    /**
     * Hidden-state projection: this tile's @p rowsT rows (from global
     * row @p rowStart) of the weights at @p weights, dotted with the
     * hidden state into raw, then assembled (reduce + broadcast)
     * into the full @p dim-word raw vector on every tile.
     */
    void emitProjection(isa::Program &prog, std::uint32_t weights,
                        std::uint32_t dim, std::uint32_t rowsT,
                        std::uint32_t rowStart, std::uint32_t blockN,
                        std::uint32_t blockM) const;

    /**
     * Key similarity: the norm of each key (MatBuf, memM words) into
     * its scalar slot, one DMAT sweep over the local memory slice
     * computing every key's row dots into its VecBuf dots vector plus
     * the row norms, then the cosine normalization
     * dots = dot / (keyNorm * rowNorm + eps).
     */
    void emitKeySimilarity(isa::Program &prog, std::size_t tile,
                           const std::vector<std::uint32_t> &keys,
                           const std::vector<std::uint32_t> &dots,
                           const std::vector<std::uint32_t> &normSlots,
                           std::uint32_t blockN,
                           std::uint32_t blockM) const;

    /**
     * Numerically stable softmax with inverse temperature over the
     * distributed similarity vector at @p sim: dst = softmax(strength
     * * sim), through tmpN; max and sum are reduced across the tiles.
     * The slots are offsets into the scalar block at @p scalars.
     */
    void emitContentSoftmax(isa::Program &prog, std::size_t tile,
                            std::uint32_t sim, std::uint32_t scalars,
                            std::uint32_t strengthSlot,
                            std::uint32_t maxSlot, std::uint32_t sumSlot,
                            std::uint32_t recipSlot,
                            std::uint32_t dst) const;

    /** Replicated stable softmax of a few words: dst = softmax(src),
     * through @p work, with three scalar temporaries. */
    void emitSmallSoftmax(isa::Program &prog, isa::Operand src,
                          isa::Operand work, isa::Operand dst,
                          isa::Operand max, isa::Operand sum,
                          isa::Operand recip) const;

    /**
     * Soft read: for each weighting (VecBuf, local slice) the weighted
     * sum of the local memory rows into its MatBuf partial, then one
     * ReadVectorOut reduce per partial to the Controller tile.
     */
    void emitSoftRead(isa::Program &prog, std::size_t tile,
                      const std::vector<std::uint32_t> &weights,
                      const std::vector<std::uint32_t> &partials,
                      std::uint32_t blockN, std::uint32_t blockM,
                      bool outerRows) const;

    /** Soft write of one head: M(i) = M(i) o (1 - w(i) e) + w(i) a
     * over the local rows (w in VecBuf, e and a in MatBuf). */
    void emitSoftWrite(isa::Program &prog, std::size_t tile,
                       std::uint32_t weights, std::uint32_t erase,
                       std::uint32_t add, std::uint32_t blockN,
                       std::uint32_t blockM) const;

    /** Scatter the local slice at @p local into a zeroed memN-word
     * vector at @p full, reduce (count = @p reduceTag) and broadcast
     * the assembled vector back. */
    void emitVectorAssembly(isa::Program &prog, std::size_t tile,
                            std::uint32_t local, std::uint32_t full,
                            std::uint32_t reduceTag = 0) const;

    /** Throw AssemblyError when there are more tiles than memory
     * rows. */
    void rejectMoreTilesThanRows() const;

    /** Append a segment: @p emit's program for every tile, each
     * checked by Program::validate(). */
    void addSegment(CompiledProgram &model, mann::KernelGroup group,
                    const char *name,
                    const std::function<isa::Program(std::size_t)> &emit)
        const;

    /** Fill the per-space storage sizes of a chip layout. */
    void fillBufferWords(BufferWords &out) const;

    /**
     * Warn when the layout overflows the Matrix or Vector Buffer
     * (each message starts with @p label; @p matBufNote ends the
     * Matrix-Buffer one) or a program overflows the instruction
     * memory. With strictCapacity the first warning throws an
     * AssemblyError naming the configuration.
     */
    void checkCapacity(CompiledProgram &model, const char *label,
                       const std::string &matBufNote) const;
};

} // namespace manna::compiler

#endif // MANNA_COMPILER_CODEGEN_UTIL_HH
