/**
 * @file
 * Step-replay tape: the one place a chip step's tensor math runs.
 *
 * A compiled Manna program has no data-dependent control flow: loop
 * trip counts are static and operand addresses depend only on the loop
 * iteration vector, so every MANN time step executes the exact same
 * sequence of resolved functional operations on the exact same tile
 * memory spans. The simulator splits timing from function on that
 * fact. The tile interpreter (sim/tile.hh) and the chip's comm handler
 * only time, count and trace instructions; each resolved operation
 * (raw span pointers + lengths) goes to the ReplayTape. Step 1 records
 * the tape and runs its peephole passes, and execTileOp() and
 * execCommOp() then compute every step from it, step 1 included.
 *
 * Every later timed step (fast mode's second calibration step, every
 * cycle-mode step) folds the ops it would record into a running digest
 * instead, and checkStep() throws SimError unless that digest equals
 * the one of the raw, pre-pass recording, so a stale tape fails
 * loudly instead of computing the wrong step.
 *
 * A loop the tile fast-forwards reaches the tape as a run
 * (appendRun()): one iteration's ops, each pointer's per-iteration
 * step and an iteration count. The digest folds a run's implied ops
 * exactly as if each had been appended, without building them, and
 * a recording compiles the iteration once (fusion and row blocking)
 * and stamps it per iteration. The tape thus holds whole row blocks
 * before its passes run.
 *
 * The compiler names every blocked memory sweep it emits
 * (compiler::SweepDesc), and the tile marks the window of ops each
 * sweep's loop nest records (openSweep(), closeSweep()). At seal the
 * tape checks each window against its descriptor and merges it into
 * one op that walks whole rows (elideStaging()); it searches the ops
 * for nothing, so a program without descriptors replays unmerged.
 *
 * Every tile decodes the head parameters from the same broadcast
 * vectors, so the SFU maps of that decode compute the same bits on
 * every tile. At seal a last pass (shareTileWork()) finds such ops and
 * lets tiles 1..T-1 copy tile 0's result instead; the timed tiles
 * still charge every op, only the functional replay shares it. So a
 * sealed tape's tile ops no longer touch only their own tile between
 * comm ops: such a copy in tile t reads tile 0's memory, and must run
 * after tile 0's slice of that interval, as the tape order has it.
 *
 * The recorded pointers stay valid because tile memories and the
 * chip-level staging vectors are allocated once per reset(); the tape
 * is cleared on reset() along with everything else.
 */

#ifndef MANNA_SIM_REPLAY_HH
#define MANNA_SIM_REPLAY_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "compiler/compiled_model.hh"
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
    // Chip-level communication ops (executed by execCommOp()).
    Reduce,        ///< combine per-tile spans into the NoC buffer
    ReadVectorOut, ///< latch the NoC buffer as read vector `rows`
    Broadcast,     ///< write the NoC buffer to every tile span
    UsageToAlloc,  ///< DNC free-list scan on the NoC buffer
    // Synthetic ops produced by the tape's peephole passes (never
    // recorded by a tile directly). Each updates `rows` matrix rows
    // in place, one scalar w per row.
    FusedRowUpdate,  ///< soft-write quad: row = row*(c - e*w) + a*w
    FusedLinkUpdate, ///< DNC link triple: row = row*(o - w) + p*w
    // A column-blocked Vmm sweep merged into one op that walks whole
    // rows and serves all of its vectors in one pass over each row.
    RowDotSweep, ///< per row and vector: d[r] += blocked row dot
    ColumnSweep, ///< per row and vector: d[0..n) += v[r] * row
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
 *  UsageToAlloc: n=words; rewrites the NoC buffer in place.
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
 *                Either fused kind with block > 0 is a merged sweep
 *                whose rows span column blocks of that many words:
 *                the rows stage through the tape's scratch, and stage
 *                ends holding what the per-block ops left in it (the
 *                last row's values, block by block).
 *  RowDotSweep:  b=first matrix row, pitchA=row pitch, rows, n=row
 *                words, block=column block words, pitchD=offset of
 *                its vecs (vector, destination) pairs in the sweep
 *                pool, flags (kReplayWithNorms: pair 0 also adds each
 *                row's a·a to dn[r]). Row r adds the blocked dot of
 *                the row and each vector to that pair's d[r].
 *  ColumnSweep:  b, pitchA, rows, n, pitchD and vecs as RowDotSweep;
 *                row r adds v[r] * row to each pair's d[0..n).
 */
struct ReplayOp
{
    ReplayKind kind = ReplayKind::Copy2d;
    isa::Opcode op = isa::Opcode::Nop;
    std::uint8_t flags = 0;
    std::uint8_t vecs = 0;
    std::uint32_t n = 0;
    std::uint32_t rows = 0;
    std::uint32_t pitchA = 0;
    std::uint32_t pitchD = 0;
    float imm = 0.0f;
    std::uint32_t block = 0;
    const float *a = nullptr;
    const float *b = nullptr;
    float *d = nullptr;
    float *dn = nullptr;
};

/** One vector of a merged sweep and the destination it accumulates
 * into (ReplayOp kinds RowDotSweep and ColumnSweep). */
struct SweepPair
{
    const float *v = nullptr;
    float *d = nullptr;
};

/**
 * A memory sweep the compiler named (compiler::SweepDesc), resolved
 * against one tile's memory, and the window [begin, end) of tape ops
 * its loop nest recorded (set by ReplayTape::openSweep() and
 * closeSweep()).
 */
struct SweepWindow : compiler::SweepGrid
{
    float *home = nullptr;        ///< the matrix's first row
    std::vector<SweepPair> pairs; ///< RowDot, Column: vector, dst
    float *norms = nullptr;       ///< RowDot with norms
    float *stage = nullptr;       ///< the stage words
    std::size_t begin = 0;
    std::size_t end = 0;
};

/** How an op touches a span (ReplayTape::forEachSpan()). */
enum class SpanAccess : std::uint8_t
{
    Read,   ///< read only
    Write,  ///< every word written, none read first
    Update, ///< read and written: an accumulating destination, or a
            ///< strided destination whose gaps keep their values
};

/** One tile memory space as ChipEngine hands it to the tape's tile
 * sharing pass (ReplayTape::finishRecording()). */
struct TileSpace
{
    const float *base = nullptr;
    std::size_t words = 0;
    std::uint32_t tile = 0;
    isa::Space space = isa::Space::None;
};

/** An op the tile sharing pass replaced, and its index on the tape. */
struct ReplacedOp
{
    std::size_t at = 0;
    ReplayOp op;
};

/** True when MANNA_REPLAY_DEBUG is set (read once per process): each
 * recording is then described on stderr. */
bool replayDebug();

/** Per-iteration byte steps of a ReplayOp's a, b, d and dn pointers
 * (a pointer that does not move, or is null, steps by 0). */
using ReplayStep = std::array<std::uintptr_t, 4>;

/** @p p advanced by @p k steps of @p step bytes. */
template <typename T>
T *
advanced(T *p, std::uintptr_t step, std::uint64_t k)
{
    return reinterpret_cast<T *>(reinterpret_cast<std::uintptr_t>(p) +
                                 k * step);
}

/** @p op with every pointer advanced by @p k times its step. */
inline ReplayOp
advanced(ReplayOp op, const ReplayStep &step, std::uint64_t k)
{
    op.a = advanced(op.a, step[0], k);
    op.b = advanced(op.b, step[1], k);
    op.d = advanced(op.d, step[2], k);
    op.dn = advanced(op.dn, step[3], k);
    return op;
}

/**
 * The recorded operation list plus pointer pools for the comm ops
 * (whose operand count — one span per tile — doesn't fit a fixed
 * struct). Lifecycle: Idle -> startRecording() -> Recording ->
 * finishRecording() -> Ready; clear() returns to Idle from any state.
 * A Ready tape is checked against each later timed step with
 * startCheck(), the step's append()s, then checkStep().
 */
class ReplayTape
{
public:
    bool recording() const { return state_ == State::Recording; }
    bool ready() const { return state_ == State::Ready; }

    /** Start recording. A @p raw tape keeps every op as appended: no
     * fusion, row blocking or elision (the reference the passes are
     * tested against). */
    void startRecording(bool raw = false)
    {
        clear();
        raw_ = raw;
        state_ = State::Recording;
    }

    /** Seal the tape, remember the digest of the raw recording, and
     * run the staging-elision pass (fusion and row blocking ran while
     * recording), then the tile sharing pass over @p spaces, every
     * tile's memory spaces (none: no sharing). */
    void finishRecording(const std::vector<TileSpace> &spaces = {});

    /** While recording: the ops appended until closeSweep() are the
     * loop nest of @p sweep. */
    void openSweep(SweepWindow sweep)
    {
        sweep.begin = sweep.end = ops_.size();
        windows_.push_back(std::move(sweep));
    }

    void closeSweep() { windows_.back().end = ops_.size(); }

    /** Start folding a timed step's ops into a fresh digest. */
    void startCheck()
    {
        digest_ = 0;
        appended_ = 0;
    }

    /**
     * Throw SimError naming time step @p step (1-based) unless the ops
     * appended since startCheck() are exactly the raw recording.
     */
    void checkStep(std::size_t step) const;

    void clear()
    {
        ops_.clear();
        srcPool_.clear();
        dstPool_.clear();
        sweepPool_.clear();
        stageScratch_.clear();
        windows_.clear();
        replaced_.clear();
        startCheck();
        recordedDigest_ = 0;
        recordedOps_ = 0;
        runs_ = runOps_ = runFallbacks_ = 0;
        lastCopy_ = RunOp{};
        state_ = State::Idle;
    }

    /** Fold @p op into the step digest; keep it while recording. */
    void append(const ReplayOp &op)
    {
        note(op);
        if (recording())
            record(op);
    }

    /**
     * Append @p iterations more iterations of a loop body: iteration
     * k (from 1) is @p body with every pointer advanced by k times its
     * step in @p steps. Equivalent to append()ing each of those ops in
     * order: the same digest and op count, and while recording the
     * same computation.
     */
    void appendRun(const std::vector<ReplayOp> &body,
                   const std::vector<ReplayStep> &steps,
                   std::uint64_t iterations);

    /** Append a Reduce whose per-tile source spans are @p srcs: they
     * go to the src-pointer pool, and op.pitchA to their offset. */
    void append(const ReplayOp &op, const std::vector<const float *> &srcs)
    {
        appendPooled(op, srcs, srcPool_);
    }

    /** Append a Broadcast whose per-tile destinations are @p dsts. */
    void append(const ReplayOp &op, const std::vector<float *> &dsts)
    {
        appendPooled(op, dsts, dstPool_);
    }

    const float *const *srcPtrs(std::uint32_t ofs) const
    {
        return srcPool_.data() + ofs;
    }

    float *const *dstPtrs(std::uint32_t ofs) const
    {
        return dstPool_.data() + ofs;
    }

    const SweepPair *sweepPairs(std::uint32_t ofs) const
    {
        return sweepPool_.data() + ofs;
    }

    /** The rows of a merged row-update sweep stage through this. */
    float *stageScratch() const { return stageScratch_.data(); }

    const std::vector<ReplayOp> &ops() const { return ops_; }

    /** The ops shareTileWork() replaced by copies, in tape order. */
    const std::vector<ReplacedOp> &replaced() const { return replaced_; }

    /** Call fn(p, words, access) on every tile memory span @p op reads
     * or writes (SpanAccess): exactly the words a written span
     * writes, at least the words a read span reads. The chip-level
     * ops name only their per-tile spans. */
    template <typename Fn>
    void forEachSpan(const ReplayOp &op, Fn &&fn) const;

private:
    /**
     * Keep @p op, fusing it with the ops before it when they end one
     * of the compiler's two in-place row-update idioms: the soft-write
     * quad [EwMul(stage, e, w), EwRsubImm(stage, c), EwMul(row, row,
     * stage), EwMac(row, a, w)] becomes FusedRowUpdate and the DNC
     * link triple [EwSub(stage, o, w), EwMul(row, row, stage),
     * EwMac(row, p, w)] FusedLinkUpdate. The fused kernels perform the
     * identical per-element operation sequence (every op is an
     * element-independent map), including the final stage values, so
     * replay stays bit-exact; they exist to cut per-op dispatch
     * overhead on the dominant tape patterns. A fused row that
     * continues the tape's last fused op joins it (see keep()), so
     * the R rows of a blocked sweep are one op with rows = R by the
     * time the passes run.
     */
    void record(const ReplayOp &op);

    /**
     * Push @p op (compiled: fused or blocked already) onto the tape,
     * or, for a fused op that continues the last one as more rows of
     * one block, grow that op instead. A block holds rows of one kind
     * sharing a, dn, imm and the add vector @p add, one w per row
     * stepping by one word, at a fixed pitch of at least n, with
     * every w outside the rows and outside the source of the tape's
     * last copy (staging elision may move the block there). Rows run
     * in tape order, so a block computes exactly its rows.
     */
    void keep(ReplayOp op, const float *add);

    /**
     * Staging-elision pass. The compiler's blocked sweeps stage every
     * matrix block from its home rows in the Matrix Buffer through a
     * scratchpad copy, and every vector slice through the stage words
     * (on the big workloads about half of the replayed memory
     * traffic). The compiler names each sweep it emits, and the tile
     * marks the window of ops its loop nest recorded. Each window is
     * taken on its own: checkSweep() checks that its ops are exactly
     * the blocks its descriptor names and that the merge is legal
     * within it; then the staged blocks must be touched by no op
     * outside a checked window, and a Vmm sweep's stage words must be
     * dead after it. A window that passes becomes one RowDotSweep,
     * ColumnSweep or full-width fused op over the home rows (with one
     * column block, each block's fused op at its home rows); any
     * other stays raw. Per destination word the merged op adds the
     * same terms in the same order, so replay stays bit for bit.
     */
    void elideStaging();

    /** A window as elideStaging() checks and merges it. */
    struct Sweep;

    /**
     * Tile sharing pass. One walk keeps the set of tile-relative
     * ranges (space, word offset) that hold the same bits in every
     * tile. Each step's tape starts it empty; a Broadcast to one
     * offset in every tile adds its destination. An interval is a run
     * of n ops in tile 0 and the (T - 1) * n ops after it, before the
     * next comm op: op k of tile t is the interval's op t * n + k, and
     * a twin of op k of tile 0 when every field and every relative
     * span agree. Every other op must lie in the tile its place
     * names, or the interval (ragged tiles, say) shares nothing and
     * the set empties. Op k is uniform when all T tiles have twins and every span it reads
     * is in the set; its writes then enter the set, and any other
     * write leaves it. A uniform SFU op in tiles 1..T-1 becomes a copy
     * of tile 0's destination, unless a later op of tile 0's slice
     * writes that destination (the copies run after the whole slice).
     * Identical inputs through the same scalar kernel give the same
     * bits, so replay stays bit for bit.
     */
    void shareTileWork(const std::vector<TileSpace> &spaces);

    /**
     * Check @p sw's window: its ops are the blocks its descriptor
     * names, in order (per block the load, then per vector the copy of
     * its slice into the stage words and the Vmm, or the block's
     * fused row update and the store), and its merged op's
     * destinations are disjoint from each other and from everything it
     * reads. Fills in the merged op, the staged and stage spans and
     * the spans the window reads and writes.
     */
    void checkSweep(Sweep &sw) const;

    /** One op of a compiled run body, at the run's first iteration,
     * with its pointer steps (a fused op's add vector too). */
    struct RunOp
    {
        ReplayOp op;
        ReplayStep step{};
        const float *add = nullptr;
        std::uintptr_t addStep = 0;
    };

    /** Fold a run's implied ops into the step digest. */
    void foldRun(const std::vector<ReplayOp> &body,
                 const std::vector<ReplayStep> &steps,
                 std::uint64_t iterations);

    /**
     * Compile one iteration of a run into run_: fuse its idioms and
     * join its fused rows into blocks, each only where the rule holds
     * at every one of the @p iterations. False where an idiom is not
     * proven to match at every iteration or at none (one whose first
     * ops would precede the iteration, say), and the run is then
     * recorded op by op.
     */
    bool compileRun(const std::vector<ReplayOp> &body,
                    const std::vector<ReplayStep> &steps,
                    std::uint64_t iterations);

    /** Grow @p block by @p next where keep() would at each of
     * @p iterations; @p copy is the last copy before @p next. */
    static bool absorb(RunOp &block, const RunOp &next,
                       const RunOp &copy, std::uint64_t iterations);

    enum class State : std::uint8_t
    {
        Idle,
        Recording,
        Ready,
    };

    static std::uint64_t wordOf(const void *p)
    {
        return static_cast<std::uint64_t>(
            reinterpret_cast<std::uintptr_t>(p));
    }

    /**
     * Every field of @p op, each spread by its own odd multiplier and
     * combined by xor: the products are independent of each other and
     * of the running digest, so fold() carries the only dependent
     * multiply per op. A change to any single field changes the hash
     * (multiplying by an odd constant is a bijection mod 2^64).
     */
    static std::uint64_t opHash(const ReplayOp &op)
    {
        return fieldHash(op) ^ wordOf(op.a) * kPtrMul[0] ^
               wordOf(op.b) * kPtrMul[1] ^ wordOf(op.d) * kPtrMul[2] ^
               wordOf(op.dn) * kPtrMul[3];
    }

    /** opHash()'s multipliers of the a, b, d and dn words. */
    static constexpr std::uint64_t kPtrMul[4] = {
        0xd6e8feb86659fd93ull, 0xff51afd7ed558ccdull,
        0xc4ceb9fe1a85ec53ull, 0x94d049bb133111ebull};

    /** opHash() of every field but the pointers. */
    static std::uint64_t fieldHash(const ReplayOp &op)
    {
        std::uint32_t imm;
        std::memcpy(&imm, &op.imm, sizeof imm);
        const std::uint64_t head =
            static_cast<std::uint64_t>(op.kind) |
            static_cast<std::uint64_t>(op.op) << 8 |
            static_cast<std::uint64_t>(op.flags) << 16 |
            static_cast<std::uint64_t>(op.n) << 32;
        const std::uint64_t shape =
            op.rows | static_cast<std::uint64_t>(op.pitchA) << 32;
        const std::uint64_t tail =
            op.pitchD | static_cast<std::uint64_t>(imm) << 32;
        return head * 0x9e3779b97f4a7c15ull ^
               shape * 0xc2b2ae3d27d4eb4full ^
               tail * 0x165667b19e3779f9ull;
    }

    /** Chain one value into a digest: a bijection of the running
     * digest for every @p h, so one differing op cannot cancel out. */
    static std::uint64_t folded(std::uint64_t digest, std::uint64_t h)
    {
        return ((digest << 23 | digest >> 41) ^ h) * 0xbf58476d1ce4e5b9ull;
    }

    void fold(std::uint64_t h) { digest_ = folded(digest_, h); }

    void note(const ReplayOp &op)
    {
        fold(opHash(op));
        ++appended_;
    }

    template <typename Ptr>
    void appendPooled(ReplayOp op, const std::vector<Ptr> &ptrs,
                      std::vector<Ptr> &pool)
    {
        for (const float *p : ptrs)
            fold(wordOf(p));
        note(op);
        if (recording()) {
            op.pitchA = static_cast<std::uint32_t>(pool.size());
            pool.insert(pool.end(), ptrs.begin(), ptrs.end());
            ops_.push_back(op);
        }
    }

    State state_ = State::Idle;
    bool raw_ = false;
    std::vector<ReplayOp> ops_;
    std::vector<const float *> srcPool_;
    std::vector<float *> dstPool_;
    std::vector<SweepPair> sweepPool_;
    mutable std::vector<float> stageScratch_;
    std::vector<SweepWindow> windows_;
    std::vector<ReplacedOp> replaced_;
    // The running digest of the current step and its op count, and
    // the raw recording's digest and op count.
    std::uint64_t digest_ = 0;
    std::size_t appended_ = 0;
    std::uint64_t recordedDigest_ = 0;
    std::size_t recordedOps_ = 0;
    // The recording's runs, the raw ops they stood for, and the runs
    // recorded op by op (MANNA_REPLAY_DEBUG).
    std::size_t runs_ = 0;
    std::size_t runOps_ = 0;
    std::size_t runFallbacks_ = 0;
    // Scratch of appendRun(): per body op, its field hash and its
    // pointer terms and their steps; the compiled body.
    struct RunHash
    {
        std::uint64_t fields;
        std::uint64_t ptr[4];
        std::uint64_t step[4];
    };
    std::vector<RunHash> runHash_;
    std::vector<RunOp> run_;
    // The last Copy2d recorded (0 rows before the first).
    RunOp lastCopy_;
};

template <typename Fn>
void
ReplayTape::forEachSpan(const ReplayOp &op, Fn &&fn) const
{
    using A = SpanAccess;
    // A strided destination's hull keeps the words between its rows.
    auto rows = [](std::uint32_t n, std::uint32_t count, std::uint32_t pitch) {
        return count <= 1 || pitch == n ? A::Write : A::Update;
    };
    switch (op.kind) {
      case ReplayKind::Copy2d:
        fn(op.a, std::size_t(op.rows - 1) * op.pitchA + op.n, A::Read);
        fn(op.d, std::size_t(op.rows - 1) * op.pitchD + op.n,
           rows(op.n, op.rows, op.pitchD));
        break;
      case ReplayKind::Vmm: {
        const bool rowDot = (op.flags & kReplayRowDot) != 0;
        const A dst =
            (op.flags & kReplayAccumulate) != 0 ? A::Update : A::Write;
        fn(op.b, std::size_t(op.rows - 1) * op.pitchA + op.n, A::Read);
        fn(op.a, std::size_t(rowDot ? op.n : op.rows), A::Read);
        fn(op.d, std::size_t(rowDot ? op.rows : op.n), dst);
        if (op.dn != nullptr)
            fn(op.dn, std::size_t(op.rows), dst);
        break;
      }
      case ReplayKind::Elementwise:
        if (op.a != nullptr)
            fn(op.a, std::size_t(op.pitchA), A::Read);
        if (op.b != nullptr)
            fn(op.b, std::size_t(op.pitchD), A::Read);
        fn(op.d, std::size_t(op.n),
           op.op == isa::Opcode::EwMac ? A::Update : A::Write);
        break;
      case ReplayKind::Sfu:
        fn(op.a, std::size_t(op.n), A::Read);
        if (op.b != nullptr)
            fn(op.b, std::size_t(1), A::Read);
        // The accumulating SFU forms reduce to a scalar dst.
        fn(op.d,
           isa::opInfo(op.op).sfuCost == isa::SfuCost::Acc
               ? std::size_t(1)
               : std::size_t(op.n),
           A::Write);
        break;
      case ReplayKind::FusedRowUpdate:
      case ReplayKind::FusedLinkUpdate:
        fn(op.a, std::size_t(op.n), A::Read);
        fn(op.b, std::size_t(op.rows), A::Read);
        fn(srcPool_[op.pitchA], std::size_t(op.n), A::Read);
        fn(op.d, std::size_t(op.rows - 1) * op.pitchD + op.n, A::Update);
        // A merged sweep's stage ends holding one column block.
        fn(op.dn, std::size_t(op.block == 0 ? op.n : std::min(op.block, op.n)),
           A::Write);
        break;
      case ReplayKind::RowDotSweep:
      case ReplayKind::ColumnSweep: {
        const bool rowDot = op.kind == ReplayKind::RowDotSweep;
        fn(op.b, std::size_t(op.rows - 1) * op.pitchA + op.n, A::Read);
        for (std::uint32_t v = 0; v < op.vecs; ++v) {
            const SweepPair &p = sweepPool_[op.pitchD + v];
            fn(p.v, std::size_t(rowDot ? op.n : op.rows), A::Read);
            fn(p.d, std::size_t(rowDot ? op.rows : op.n), A::Update);
        }
        if ((op.flags & kReplayWithNorms) != 0)
            fn(op.dn, std::size_t(op.rows), A::Update);
        break;
      }
      case ReplayKind::Reduce:
        for (std::uint32_t t = 0; t < op.rows; ++t)
            fn(srcPool_[op.pitchA + t], std::size_t(op.n), A::Read);
        break;
      case ReplayKind::Broadcast:
        for (std::uint32_t t = 0; t < op.rows; ++t)
            fn(dstPool_[op.pitchA + t], std::size_t(op.n), A::Write);
        break;
      case ReplayKind::ReadVectorOut: // the NoC buffer only
      case ReplayKind::UsageToAlloc:
        break;
    }
}

/**
 * Execute one tile-local op (Copy2d/Vmm/Elementwise/Sfu and the fused
 * kinds). This is the single functional implementation of a tile
 * instruction: the interpreter only records the resolved op.
 * @p tape is required only for the kinds the tape's passes make
 * (fused updates and merged sweeps: their pointer pools and scratch).
 */
void execTileOp(const ReplayOp &op, const ReplayTape *tape = nullptr);

/**
 * Execute one chip-level comm op (Reduce/ReadVectorOut/Broadcast/
 * UsageToAlloc) against the owning chip's staging state.
 */
void execCommOp(const ReplayOp &op, const ReplayTape &tape,
                std::vector<float> &nocBuffer,
                std::vector<tensor::FVec> &readVectors,
                const tensor::FVec &pendingHidden);

} // namespace manna::sim

#endif // MANNA_SIM_REPLAY_HH
