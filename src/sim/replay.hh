/**
 * @file
 * Step-replay tape for fidelity=fast runs (sim/fidelity.hh).
 *
 * A compiled Manna program has no data-dependent control flow: loop
 * trip counts are static and operand addresses depend only on the loop
 * iteration vector, so every MANN time step executes the exact same
 * sequence of resolved functional operations on the exact same tile
 * memory spans. Fast mode exploits that: the first post-calibration
 * step runs through the normal interpreter while appending each
 * resolved operation (raw span pointers + lengths) to a ReplayTape;
 * every later step replays the flat tape with none of the fetch /
 * decode / operand-resolution overhead. Replay executes the same
 * shared execTileOp() routine the interpreter itself uses, so a
 * replayed step is bit-identical to an interpreted one by
 * construction.
 *
 * The recorded pointers stay valid because tile memories and the
 * chip-level staging vectors are allocated once per reset(); the tape
 * is cleared on reset() along with everything else.
 */

#ifndef MANNA_SIM_REPLAY_HH
#define MANNA_SIM_REPLAY_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"
#include "tensor/vector_ops.hh"

namespace manna::sim
{

/** Discriminator for one recorded operation. */
enum class ReplayKind : std::uint8_t
{
    // Tile-local functional ops (executed by execTileOp()).
    Copy2d,      ///< pitched row copies (matrix/vector DMA)
    Vmm,         ///< vector-matrix multiply block
    Elementwise, ///< EwAdd..Fill, including len-1 broadcast sources
    Sfu,         ///< special-function unit map / accumulate
    // Chip-level communication ops (executed by the owning chip).
    Reduce,        ///< combine per-tile spans into the NoC buffer
    ReadVectorOut, ///< latch the NoC buffer as read vector `rows`
    Broadcast,     ///< write the NoC buffer to every tile span
    UsageToAlloc,  ///< DNC free-list scan on the NoC buffer
    // Synthetic ops produced by the tape's peephole passes (never
    // recorded by a tile directly). Each updates `rows` matrix rows
    // in place, one scalar w per row.
    FusedRowUpdate,  ///< soft-write quad: row = row*(c - e*w) + a*w
    FusedLinkUpdate, ///< DNC link triple: row = row*(o - w) + p*w
};

/** ReplayOp::flags bits. */
inline constexpr std::uint8_t kReplayAccumulate = 1; ///< Vmm +=
inline constexpr std::uint8_t kReplayWithNorms = 2;  ///< Vmm norms
inline constexpr std::uint8_t kReplayRowDot = 4;     ///< Vmm mode
inline constexpr std::uint8_t kReplayReduceMax = 8;  ///< else sum
inline constexpr std::uint8_t kReplayHiddenIn = 16;  ///< Broadcast src

/**
 * One recorded functional operation. Field meaning is per kind:
 *
 *  Copy2d:       a=src, d=dst, n=rowWords, rows, pitchA=src pitch,
 *                pitchD=dst pitch.
 *  Vmm:          a=vector, b=matrix block, d=dst, dn=norms dst,
 *                n=numCols, rows=numRows, pitchA=block pitch, flags.
 *  Elementwise:  op, a/b=sources (null when unused), d=dst, n=len,
 *                pitchA=srcA len (1 = broadcast), pitchD=srcB len,
 *                imm.
 *  Sfu:          op, a=src, b=pow exponent span (read at exec time),
 *                d=dst, n=len.
 *  Reduce:       n=words, rows=tile count, pitchA=offset into the
 *                tape's src-pointer pool, flags (kReplayReduceMax).
 *  ReadVectorOut: rows=head index, n=words.
 *  Broadcast:    n=words, rows=tile count, pitchA=offset into the
 *                dst-pointer pool, flags (kReplayHiddenIn).
 *  UsageToAlloc: no operands (chip rewrites its NoC buffer).
 *  FusedRowUpdate: a=erase row, b=w scalars (one per row), d=first
 *                memory row, dn=stage, n=len, imm=the EwRsubImm
 *                constant, pitchA=offset of the add-vector row in the
 *                src-pointer pool, rows=row count, pitchD=row pitch.
 *                Row r updates d + r*pitchD with w = b[r]; stage ends
 *                holding the last row's values.
 *  FusedLinkUpdate: a=o (the 1 - w row), b=w scalars, d=first link
 *                row, dn=stage, n=len, pitchA=offset of the
 *                precedence row p in the src-pointer pool, rows and
 *                pitchD as for FusedRowUpdate.
 */
struct ReplayOp
{
    ReplayKind kind = ReplayKind::Copy2d;
    isa::Opcode op = isa::Opcode::Nop;
    std::uint8_t flags = 0;
    std::uint32_t n = 0;
    std::uint32_t rows = 0;
    std::uint32_t pitchA = 0;
    std::uint32_t pitchD = 0;
    float imm = 0.0f;
    const float *a = nullptr;
    const float *b = nullptr;
    float *d = nullptr;
    float *dn = nullptr;
};

/**
 * The recorded operation list plus pointer pools for the comm ops
 * (whose operand count — one span per tile — doesn't fit a fixed
 * struct). Lifecycle: Idle -> startRecording() -> Recording ->
 * finishRecording() -> Ready; clear() returns to Idle from any state.
 */
class ReplayTape
{
public:
    bool recording() const { return state_ == State::Recording; }
    bool ready() const { return state_ == State::Ready; }

    void startRecording()
    {
        clear();
        state_ = State::Recording;
    }

    /** Seal the tape and run the peephole optimisation passes. */
    void finishRecording()
    {
        fuseRowUpdates();
        elideStaging();
        state_ = State::Ready;
    }

    void clear()
    {
        ops_.clear();
        srcPool_.clear();
        dstPool_.clear();
        state_ = State::Idle;
    }

    void append(const ReplayOp &op) { ops_.push_back(op); }

    /** Pool @p ptrs; returns the offset to store in ReplayOp::pitchA. */
    std::uint32_t appendSrcPtrs(const std::vector<const float *> &ptrs)
    {
        const auto ofs = static_cast<std::uint32_t>(srcPool_.size());
        srcPool_.insert(srcPool_.end(), ptrs.begin(), ptrs.end());
        return ofs;
    }

    std::uint32_t appendDstPtrs(const std::vector<float *> &ptrs)
    {
        const auto ofs = static_cast<std::uint32_t>(dstPool_.size());
        dstPool_.insert(dstPool_.end(), ptrs.begin(), ptrs.end());
        return ofs;
    }

    const float *const *srcPtrs(std::uint32_t ofs) const
    {
        return srcPool_.data() + ofs;
    }

    float *const *dstPtrs(std::uint32_t ofs) const
    {
        return dstPool_.data() + ofs;
    }

    const std::vector<ReplayOp> &ops() const { return ops_; }

private:
    /**
     * Peephole pass: collapse the compiler's two in-place row-update
     * idioms into one op each — the soft-write quad [EwMul(stage, e,
     * w), EwRsubImm(stage, c), EwMul(row, row, stage), EwMac(row, a,
     * w)] into FusedRowUpdate, and the DNC link triple [EwSub(stage,
     * o, w), EwMul(row, row, stage), EwMac(row, p, w)] into
     * FusedLinkUpdate. The fused kernels perform the identical
     * per-element operation sequence (every op is an element-
     * independent map), including the final stage values, so replay
     * stays bit-exact; they exist to cut per-op dispatch overhead on
     * the dominant tape patterns.
     */
    void fuseRowUpdates();

    /**
     * Staging-elision pass: the compiler's blocked sweeps stage every
     * matrix block from its home rows in the matrix buffer through a
     * scratchpad copy (DmaLoadM -> compute -> DmaStoreM), which on the
     * big workloads is about half of the replayed memory traffic. This
     * pass detects the two block shapes the codegen emits —
     * [load][fused row update x rows][store] (either fused kind) and
     * [load][Vmm reads...] — retargets the compute ops at the home
     * rows directly (same values, same FP ops, just no round-trip
     * through the scratchpad) and drops the dead copies. A staging
     * region is only elided when every tape op touching it belongs to
     * one of its matched groups, so any unexpected consumer of staged
     * data keeps the copies intact. The R row ops of a [load][rows]
     * [store] group become one op with rows = R (over the staged rows
     * if the copies stay) when they share every operand but a per-row
     * w that steps by one word and lies outside the updated rows.
     */
    void elideStaging();

    enum class State : std::uint8_t
    {
        Idle,
        Recording,
        Ready,
    };

    State state_ = State::Idle;
    std::vector<ReplayOp> ops_;
    std::vector<const float *> srcPool_;
    std::vector<float *> dstPool_;
};

/**
 * Execute one tile-local op (Copy2d/Vmm/Elementwise/Sfu). This is the
 * single functional implementation: the tile interpreter builds a
 * ReplayOp per instruction and calls this in BOTH fidelities, so a
 * replayed fast step cannot diverge from a cycle-accurate one.
 * @p tape is required only for the fused kinds (src-pointer pool).
 */
void execTileOp(const ReplayOp &op, const ReplayTape *tape = nullptr);

/**
 * Execute one chip-level comm op (Reduce/ReadVectorOut/Broadcast)
 * against the owning chip's staging state. UsageToAlloc is
 * chip-specific (DNC only) and is handled by the caller before
 * delegating here.
 */
void execCommOp(const ReplayOp &op, const ReplayTape &tape,
                std::vector<float> &nocBuffer,
                std::vector<tensor::FVec> &readVectors,
                const tensor::FVec &pendingHidden);

} // namespace manna::sim

#endif // MANNA_SIM_REPLAY_HH
