/**
 * @file
 * Manna instruction set architecture (Section 5.1).
 *
 * The ISA has three instruction classes:
 *  - control: loop / end-loop bracket the block loop; operand address
 *    generation is expressed through per-loop-level strides attached
 *    to every operand (the paper's addr-gen);
 *  - compute: coarse-grained kernels primitives (DMA transfers, the
 *    two vector-matrix directions, element-wise ops, SFU ops);
 *  - communication: reduce and broadcast across all tiles, which
 *    double as synchronization fences.
 *
 * Every fact about an opcode but its semantics is one row of the
 * descriptor table (opInfo()): the assembler, disassembler, codec,
 * tracer and tile read it instead of switching on the opcode.
 *
 * An operand names a region of one of the tile's memory spaces. The
 * effective base address of an operand inside nested loops is
 *   base + sum_over_active_loops(iter[l] * stride[l])
 * where level 0 is the outermost active loop. Operands of length 1
 * are treated as scalar broadcasts by the element-wise ops.
 */

#ifndef MANNA_ISA_ISA_HH
#define MANNA_ISA_ISA_HH

#include <cstdint>
#include <iterator>
#include <limits>
#include <string>

#include "common/logging.hh"

namespace manna::isa
{

/** Maximum loop nesting depth supported by operand address
 * generation. */
constexpr std::size_t kMaxLoopDepth = 3;

/** Tile-local memory spaces an operand can name. */
enum class Space : std::uint8_t
{
    None = 0, ///< operand unused
    MatBuf,   ///< Matrix-Buffer (large, per-tile)
    MatSpad,  ///< Matrix-Scratchpad (double buffered, banked)
    VecBuf,   ///< Vector-Buffer
    VecSpad,  ///< Vector-Scratchpad (double buffered)
};

/** Assembly name of each Space, indexed by its value. */
inline constexpr const char *kSpaceNames[] = {"none", "mbuf", "mspad",
                                              "vbuf", "vspad"};

inline const char *
toString(Space s)
{
    return kSpaceNames[static_cast<std::size_t>(s)];
}

/** Opcodes. */
enum class Opcode : std::uint8_t
{
    Nop = 0,
    Halt,

    // Control.
    Loop,    ///< begin a loop of `count` iterations
    EndLoop, ///< close the innermost loop

    // Data movement (DMA / DMAT engines). The matrix transfers are
    // two-dimensional: `count` rows of (dst.len / count) words each
    // (for DmatLoadM the destination pitch is one word wider than the
    // row, i.e. dst.len = count * (rowWords + 1)); srcA.base is the
    // source start and srcB.base carries the source row pitch in
    // words.
    DmaLoadM,   ///< Matrix-Buffer -> Matrix-Scratchpad, row order
    DmatLoadM,  ///< same transfer, skew-padded for transposed access
    DmaStoreM,  ///< Matrix-Scratchpad -> Matrix-Buffer (2D, as above)
    DmaLoadV,   ///< Vector-Buffer -> Vector-Scratchpad (1D)
    DmaStoreV,  ///< Vector-Scratchpad -> Vector-Buffer (1D)

    // eMAC compute.
    Vmm,      ///< vector-matrix multiply over a scratchpad block
    EwAdd,    ///< dst = a + b
    EwSub,    ///< dst = a - b
    EwMul,    ///< dst = a * b
    EwMac,    ///< dst += a * b
    EwAddImm, ///< dst = a + imm
    EwMulImm, ///< dst = a * imm
    EwRsubImm,///< dst = imm - a
    Fill,     ///< dst = imm

    // SFU compute (serial).
    SfuExp,      ///< dst = exp(a)
    SfuPow,      ///< dst = a ^ b[0] (b is a scalar operand)
    SfuRecip,    ///< dst = 1 / a
    SfuSqrt,     ///< dst = sqrt(a)
    SfuSigmoid,  ///< dst = sigmoid(a)
    SfuTanh,     ///< dst = tanh(a)
    SfuSoftplus, ///< dst = log(1 + exp(a))
    SfuAccSum,   ///< dst[0] = sum(a)
    SfuAccMax,   ///< dst[0] = max(a)

    // Communication (also fences).
    Reduce,    ///< element-wise reduce of src across all tiles
    Broadcast, ///< broadcast root's src to every tile's dst

    NumOpcodes,
};

constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(Opcode::NumOpcodes);

/**
 * Opcode name as a single counter-key component: the dotted mnemonic
 * with dots replaced by underscores ("dma.load.m" -> "dma_load_m").
 * Used for the per-opcode `profile.<tile>.<opcode>.*` registry keys
 * (docs/OBSERVABILITY.md).
 */
std::string profileKey(Opcode op);

/** Reduction operators for Reduce. */
enum class ReduceOp : std::uint8_t
{
    Sum = 0,
    Max,
};

/** One operand: a (possibly loop-strided) region of a memory space. */
struct Operand
{
    Space space = Space::None;
    std::uint32_t base = 0; ///< word address within the space
    std::int32_t stride[kMaxLoopDepth] = {0, 0, 0}; ///< words/iter
    std::uint32_t len = 0;  ///< element count

    bool valid() const { return space != Space::None; }

    /** A scalar operand broadcasts its single element. */
    bool isScalarBroadcast() const { return len == 1; }

    /** Effective base for the given loop iteration counters (inline:
     * the tile resolves every operand of every instruction). */
    std::uint32_t effectiveBase(const std::int64_t iters[kMaxLoopDepth],
                                std::size_t depth) const
    {
        std::int64_t addr = base;
        for (std::size_t l = 0; l < depth && l < kMaxLoopDepth; ++l)
            addr += iters[l] * stride[l];
        MANNA_ASSERT(addr >= 0, "operand address underflow: %lld",
                     static_cast<long long>(addr));
        // A wrapped address could pass the span bounds check.
        MANNA_ASSERT(addr <= std::numeric_limits<std::uint32_t>::max(),
                     "operand address overflow: %lld",
                     static_cast<long long>(addr));
        return static_cast<std::uint32_t>(addr);
    }

    std::string toString() const;

    bool operator==(const Operand &) const = default;
};

/** Convenience constructors. */
Operand makeOperand(Space space, std::uint32_t base, std::uint32_t len);
Operand makeStridedOperand(Space space, std::uint32_t base,
                           std::uint32_t len, std::int32_t stride0,
                           std::int32_t stride1 = 0,
                           std::int32_t stride2 = 0);

/** Instruction flags. */
struct Flags
{
    /**
     * Vmm: row-dot mode (key-similarity direction, each lane owns a
     * matrix *row*; requires a DMAT-loaded block for conflict-free
     * banking). When false, Vmm runs in column-accumulate mode (the
     * soft-read direction).
     */
    bool rowDot = false;

    /** Vmm: accumulate into dst instead of overwriting. */
    bool accumulate = false;

    /** Vmm row-dot: also accumulate per-row squared norms into the
     * second half of dst (used by key similarity). */
    bool withNorms = false;

    /**
     * Vmm: the matrix block (srcB) is already resident from a prior
     * Vmm over the same block (multi-head reuse); no scratchpad read
     * energy is charged for it.
     */
    bool reuseB = false;

    /**
     * Vmm row-dot: the block was loaded via DmatLoadM and is skew
     * padded (row pitch = rowWords + 1), so banked access is
     * conflict-free.
     */
    bool skewed = false;

    /**
     * Vmm: the destination partial sums stay resident in the eMAC
     * register files across this instruction (output-stationary block
     * loop); no destination traffic is charged. The compiler sets
     * this on all but the final block of an output-stationary group.
     */
    bool dstResident = false;

    /** Reduce: combining operator. */
    ReduceOp reduceOp = ReduceOp::Sum;

    bool operator==(const Flags &) const = default;
};

/** Flag bits of the binary instruction record (docs/ISA.md). */
enum FlagBit : std::uint32_t
{
    kRowDot = 1u << 0,
    kAccumulate = 1u << 1,
    kWithNorms = 1u << 2,
    kReduceMax = 1u << 3,
    kReuseB = 1u << 4,
    kSkewed = 1u << 5,
    kDstResident = 1u << 6,
};

/** One instruction flag: its mnemonic suffix, record bit and member. */
struct FlagInfo
{
    const char *suffix;      ///< ".suffix" when set
    const char *clearSuffix; ///< ".suffix" printed when clear, or null
    std::uint32_t bit;
    bool Flags::*member;     ///< null: reduceOp == ReduceOp::Max
};

/** Every flag, in the order the disassembler prints the suffixes. */
inline constexpr FlagInfo kFlagTable[] = {
    {"rowdot", nullptr, kRowDot, &Flags::rowDot},
    {"norms", nullptr, kWithNorms, &Flags::withNorms},
    {"acc", nullptr, kAccumulate, &Flags::accumulate},
    {"reuse", nullptr, kReuseB, &Flags::reuseB},
    {"skew", nullptr, kSkewed, &Flags::skewed},
    {"res", nullptr, kDstResident, &Flags::dstResident},
    {"max", "sum", kReduceMax, nullptr},
};

/** Flags as record bits, and back (bits outside kFlagTable ignored). */
std::uint32_t flagBits(const Flags &flags);
Flags flagsFromBits(std::uint32_t bits);

/** What executes an opcode; the Class column of docs/ISA.md. */
enum class OpClass : std::uint8_t
{
    Control,     ///< nop, halt, loop, endloop (the tile's sequencer)
    MatrixDma,   ///< 2-D buffer <-> scratchpad transfers (DMA/DMAT)
    VectorDma,   ///< 1-D vector transfers
    Vmm,         ///< vector-matrix multiply on the eMAC array
    Elementwise, ///< element-wise ops on the eMAC array
    Sfu,         ///< serial special-function unit
    Comm,        ///< reduce / broadcast across tiles (also fences)
    NumClasses,
};

/** Operands an opcode reads (OpInfo::reads bits). Vmm also reads
 * its destination when it carries `.acc`. */
enum OperandRead : std::uint8_t
{
    kSrcA = 1,
    kSrcB = 2,
    kDst = 4,
};

/** Per-element SFU initiation interval an opcode pays
 * (arch::MannaConfig::sfu*Cycles). */
enum class SfuCost : std::uint8_t
{
    NotSfu,
    Exp,
    Pow,
    Div,
    Sqrt,
    Acc, ///< scalar reduction of srcA into dst[0]
};

/** What the `count` field means, and its assembly spelling. */
enum class CountRole : std::uint8_t
{
    Unused,
    LoopTrip,    ///< `loop N`
    Rows,        ///< `rows=` (and srcB.base is `pitch=`)
    NormsOffset, ///< `off=`, with `.norms` only
    Tag,         ///< `tag=`, a compiler-internal comm tag
};

/** Everything the ISA tooling and the tile need to know about one
 * opcode, apart from its semantics. */
struct OpInfo
{
    const char *mnemonic;
    OpClass cls;
    std::uint8_t reads; ///< OperandRead bits
    SfuCost sfuCost;
    CountRole count;
    std::uint32_t flags; ///< FlagBits the opcode may carry
};

namespace detail
{
using enum OpClass;
using enum SfuCost;
using enum CountRole;

constexpr std::uint32_t kVmmFlags =
    kRowDot | kAccumulate | kWithNorms | kReuseB | kSkewed | kDstResident;

/** One row per Opcode, in enumerator order (docs/ISA.md "Opcode
 * table"). */
inline constexpr OpInfo kOpTable[] = {
    // mnemonic      class        reads                 SFU     count, flags
    {"nop",          Control,     0,                    NotSfu, Unused, 0},
    {"halt",         Control,     0,                    NotSfu, Unused, 0},
    {"loop",         Control,     0,                    NotSfu, LoopTrip, 0},
    {"endloop",      Control,     0,                    NotSfu, Unused, 0},
    {"dma.load.m",   MatrixDma,   kSrcA,                NotSfu, Rows, 0},
    {"dmat.load.m",  MatrixDma,   kSrcA,                NotSfu, Rows, 0},
    {"dma.store.m",  MatrixDma,   kSrcA,                NotSfu, Rows, 0},
    {"dma.load.v",   VectorDma,   kSrcA,                NotSfu, Unused, 0},
    {"dma.store.v",  VectorDma,   kSrcA,                NotSfu, Unused, 0},
    {"vmm",          Vmm,         kSrcA | kSrcB,        NotSfu, NormsOffset,
     kVmmFlags},
    {"ew.add",       Elementwise, kSrcA | kSrcB,        NotSfu, Unused, 0},
    {"ew.sub",       Elementwise, kSrcA | kSrcB,        NotSfu, Unused, 0},
    {"ew.mul",       Elementwise, kSrcA | kSrcB,        NotSfu, Unused, 0},
    {"ew.mac",       Elementwise, kSrcA | kSrcB | kDst, NotSfu, Unused, 0},
    {"ew.addi",      Elementwise, kSrcA,                NotSfu, Unused, 0},
    {"ew.muli",      Elementwise, kSrcA,                NotSfu, Unused, 0},
    {"ew.rsubi",     Elementwise, kSrcA,                NotSfu, Unused, 0},
    {"fill",         Elementwise, 0,                    NotSfu, Unused, 0},
    {"sfu.exp",      Sfu,         kSrcA,                Exp,    Unused, 0},
    {"sfu.pow",      Sfu,         kSrcA | kSrcB,        Pow,    Unused, 0},
    {"sfu.recip",    Sfu,         kSrcA,                Div,    Unused, 0},
    {"sfu.sqrt",     Sfu,         kSrcA,                Sqrt,   Unused, 0},
    {"sfu.sigmoid",  Sfu,         kSrcA,                Exp,    Unused, 0},
    {"sfu.tanh",     Sfu,         kSrcA,                Exp,    Unused, 0},
    {"sfu.softplus", Sfu,         kSrcA,                Exp,    Unused, 0},
    {"sfu.accsum",   Sfu,         kSrcA,                Acc,    Unused, 0},
    {"sfu.accmax",   Sfu,         kSrcA,                Acc,    Unused, 0},
    {"reduce",       Comm,        kSrcA,                NotSfu, Tag,
     kReduceMax},
    {"broadcast",    Comm,        0,                    NotSfu, Tag, 0},
};
static_assert(std::size(kOpTable) == kNumOpcodes,
              "one descriptor row per Opcode");
} // namespace detail

constexpr const OpInfo &
opInfo(Opcode op)
{
    return detail::kOpTable[static_cast<std::size_t>(op)];
}

inline const char *
toString(Opcode op)
{
    return opInfo(op).mnemonic;
}

/**
 * One Manna instruction.
 *
 * `dst`, `srcA`, `srcB` usage varies by opcode; see the simulator's
 * interpreter for the definitive semantics of each.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    Operand dst;
    Operand srcA;
    Operand srcB;
    float imm = 0.0f;
    std::uint32_t count = 0; ///< Loop iteration count
    Flags flags;

    std::string toString() const;

    bool operator==(const Instruction &) const = default;
};

/** Fixed-size binary encoding (96 bytes per instruction: a 16-byte
 * header plus three 24-byte operands, padded). */
constexpr std::size_t kEncodedBytes = 96;

/** Encode to exactly kEncodedBytes bytes appended to @p out. */
void encode(const Instruction &inst, std::string &out);

/**
 * Decode one instruction from @p data at @p offset. Returns false on
 * truncated input or malformed fields, including flag bits outside
 * the opcode's row and non-zero padding, so encode(decode(b)) == b.
 */
bool decode(const std::string &data, std::size_t offset,
            Instruction &inst);

} // namespace manna::isa

#endif // MANNA_ISA_ISA_HH
