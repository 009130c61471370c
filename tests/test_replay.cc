/**
 * @file
 * Tape-pass tests on synthetic ReplayTapes: the row-update fusion
 * (soft-write quad, DNC link triple), the merge of described sweep
 * windows, block ops and strided runs (appendRun()), and a
 * differential fuzzer over programs the compiler's sweep routines emit.
 * Every case builds the same op list over two copies of one arena,
 * replays the optimised tape on one copy and the unfused ops on the
 * other, and requires the two to agree bit for bit everywhere but the
 * scratch rows (which an elided tape no longer writes).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "arch/energy_model.hh"
#include "common/error.hh"
#include "common/rng.hh"
#include "compiler/codegen_util.hh"
#include "compiler/mapping.hh"
#include "sim/replay.hh"
#include "sim/tile.hh"

namespace manna::sim
{
namespace
{

using isa::Opcode;

// Arena layout (words): a kR x kN block stored at pitch kHomePitch,
// the row-update source vectors, 2*kR w scalars, the stage row, an
// output row and, last, the kR x kN scratch rows the block is staged
// through.
constexpr std::uint32_t kN = 24;
constexpr std::uint32_t kR = 4;
constexpr std::uint32_t kHomePitch = 40;
constexpr std::size_t kHome = 0;
constexpr std::size_t kSrc = kHome + kR * kHomePitch; // e / o row
constexpr std::size_t kAdd = kSrc + kN;               // add / p row
constexpr std::size_t kW = kAdd + kN;
constexpr std::size_t kStage = kW + 2 * kR;
constexpr std::size_t kOut = kStage + kN;
constexpr std::size_t kStaged = kOut + kN;
constexpr std::size_t kArena = kStaged + kR * kN;

using Ops = std::vector<ReplayOp>;
using Builder = std::function<Ops(float *)>;

ReplayOp
ew(Opcode code, float *d, const float *a, std::uint32_t aLen,
   const float *b = nullptr, std::uint32_t bLen = 0, float imm = 0.0f)
{
    ReplayOp op;
    op.kind = ReplayKind::Elementwise;
    op.op = code;
    op.n = kN;
    op.a = a;
    op.pitchA = aLen;
    op.b = b;
    op.pitchD = bLen;
    op.d = d;
    op.imm = imm;
    return op;
}

ReplayOp
copyRows(const float *src, std::uint32_t srcPitch, float *dst,
         std::uint32_t dstPitch)
{
    ReplayOp op;
    op.kind = ReplayKind::Copy2d;
    op.n = kN;
    op.rows = kR;
    op.a = src;
    op.pitchA = srcPitch;
    op.d = dst;
    op.pitchD = dstPitch;
    return op;
}

/** The soft-write quad: row = row * (1 - e*w) + add*w. */
void
rowQuad(Ops &ops, float *m, float *row, const float *w)
{
    float *stage = m + kStage;
    ops.push_back(ew(Opcode::EwMul, stage, m + kSrc, kN, w, 1));
    ops.push_back(ew(Opcode::EwRsubImm, stage, stage, kN, nullptr, 0,
                     1.0f));
    ops.push_back(ew(Opcode::EwMul, row, row, kN, stage, kN));
    ops.push_back(ew(Opcode::EwMac, row, m + kAdd, kN, w, 1));
}

/** The DNC link triple: row = row * (o - w) + p*w. */
void
linkTriple(Ops &ops, float *m, float *row, const float *w,
           const float *p)
{
    float *stage = m + kStage;
    ops.push_back(ew(Opcode::EwSub, stage, m + kSrc, kN, w, 1));
    ops.push_back(ew(Opcode::EwMul, row, row, kN, stage, kN));
    ops.push_back(ew(Opcode::EwMac, row, p, kN, w, 1));
}

/** [load][kR row updates on the staged rows][store], with row k's w
 * at @p w + k * wStride. */
Ops
stagedGroup(float *m, bool link, const float *w, std::size_t wStride)
{
    Ops ops;
    ops.push_back(copyRows(m + kHome, kHomePitch, m + kStaged, kN));
    for (std::size_t k = 0; k < kR; ++k) {
        float *row = m + kStaged + k * kN;
        if (link)
            linkTriple(ops, m, row, w + k * wStride, m + kAdd);
        else
            rowQuad(ops, m, row, w + k * wStride);
    }
    ops.push_back(copyRows(m + kStaged, kN, m + kHome, kHomePitch));
    return ops;
}

/** The descriptor of stagedGroup(): a soft write or link update of
 * one block, kR rows of kN words. */
SweepWindow
groupWindow(float *m)
{
    SweepWindow w;
    w.kind = compiler::SweepKind::RowUpdate;
    w.rows = w.blockN = kR;
    w.cols = w.blockM = kN;
    w.pitch = kHomePitch;
    w.home = m + kHome;
    w.stage = m + kStage;
    return w;
}

/**
 * Record @p build's ops over one arena copy into @p tape, the first
 * @p windowOps of them as the window of groupWindow(), run the
 * optimised tape there and the recorded ops unfused on a second copy,
 * two steps each, and compare everything up to the scratch rows.
 */
void
expectSameAsUnfused(const Builder &build, ReplayTape &tape,
                    std::size_t windowOps = 0)
{
    std::vector<float> init(kArena);
    Rng rng(17);
    for (auto &v : init)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> fused = init;
    std::vector<float> plain = init;

    tape.startRecording();
    const Ops ops = build(fused.data());
    for (std::size_t i = 0; i < ops.size(); ++i) {
        if (i == 0 && windowOps > 0)
            tape.openSweep(groupWindow(fused.data()));
        tape.append(ops[i]);
        if (i + 1 == windowOps)
            tape.closeSweep();
    }
    tape.finishRecording();
    const Ops reference = build(plain.data());
    for (int step = 0; step < 2; ++step) {
        for (const ReplayOp &op : tape.ops())
            execTileOp(op, &tape);
        for (const ReplayOp &op : reference)
            execTileOp(op);
    }
    for (std::size_t i = 0; i < kStaged; ++i) {
        std::uint32_t bf = 0;
        std::uint32_t bp = 0;
        std::memcpy(&bf, &fused[i], 4);
        std::memcpy(&bp, &plain[i], 4);
        ASSERT_EQ(bf, bp) << "arena word " << i;
    }
}

std::size_t
countKind(const ReplayTape &tape, ReplayKind kind)
{
    std::size_t count = 0;
    for (const ReplayOp &op : tape.ops())
        count += op.kind == kind ? 1 : 0;
    return count;
}

TEST(ReplayTape, LinkTripleFusesToOneOp)
{
    ReplayTape tape;
    expectSameAsUnfused(
        [](float *m) {
            Ops ops;
            linkTriple(ops, m, m + kHome, m + kW, m + kAdd);
            return ops;
        },
        tape);
    ASSERT_EQ(tape.ops().size(), 1u);
    EXPECT_EQ(tape.ops()[0].kind, ReplayKind::FusedLinkUpdate);
    EXPECT_EQ(tape.ops()[0].rows, 1u);
}

TEST(ReplayTape, LinkTripleWhosePAliasesStageStaysUnfused)
{
    ReplayTape tape;
    expectSameAsUnfused(
        [](float *m) {
            Ops ops;
            linkTriple(ops, m, m + kHome, m + kW, m + kStage);
            return ops;
        },
        tape);
    EXPECT_EQ(tape.ops().size(), 3u);
    EXPECT_EQ(countKind(tape, ReplayKind::FusedLinkUpdate), 0u);
}

TEST(ReplayTape, SoftWriteGroupCollapsesToOneBlockOp)
{
    ReplayTape tape;
    expectSameAsUnfused(
        [](float *m) { return stagedGroup(m, false, m + kW, 1); }, tape,
        2 + 4 * kR);
    ASSERT_EQ(tape.ops().size(), 1u);
    const ReplayOp &op = tape.ops()[0];
    EXPECT_EQ(op.kind, ReplayKind::FusedRowUpdate);
    EXPECT_EQ(op.rows, kR);
    EXPECT_EQ(op.pitchD, kHomePitch);
}

TEST(ReplayTape, LinkGroupCollapsesToOneBlockOp)
{
    ReplayTape tape;
    expectSameAsUnfused(
        [](float *m) { return stagedGroup(m, true, m + kW, 1); }, tape,
        2 + 3 * kR);
    ASSERT_EQ(tape.ops().size(), 1u);
    const ReplayOp &op = tape.ops()[0];
    EXPECT_EQ(op.kind, ReplayKind::FusedLinkUpdate);
    EXPECT_EQ(op.rows, kR);
    EXPECT_EQ(op.pitchD, kHomePitch);
}

TEST(ReplayTape, GroupWithNonConsecutiveWStaysRowByRow)
{
    ReplayTape tape;
    expectSameAsUnfused(
        [](float *m) { return stagedGroup(m, true, m + kW, 2); }, tape,
        2 + 3 * kR);
    // One op per row, so not the one block op the descriptor names:
    // the window stays raw.
    EXPECT_EQ(countKind(tape, ReplayKind::Copy2d), 2u);
    EXPECT_EQ(countKind(tape, ReplayKind::FusedLinkUpdate), kR);
    for (const ReplayOp &op : tape.ops())
        EXPECT_TRUE(op.kind == ReplayKind::Copy2d || op.rows == 1);
}

TEST(ReplayTape, GroupWhoseWOverlapsTheRowsStaysRowByRow)
{
    ReplayTape tape;
    // w lives in the first home row: updated in place, that row would
    // change before the later rows read their w.
    expectSameAsUnfused(
        [](float *m) { return stagedGroup(m, false, m + kHome, 1); },
        tape, 2 + 4 * kR);
    EXPECT_EQ(countKind(tape, ReplayKind::Copy2d), 2u);
    EXPECT_EQ(countKind(tape, ReplayKind::FusedRowUpdate), kR);
    for (const ReplayOp &op : tape.ops()) {
        if (op.kind == ReplayKind::FusedRowUpdate) {
            EXPECT_EQ(op.rows, 1u);
        }
    }
}

TEST(ReplayTape, ClusterTouchedByForeignOpKeepsItsCopies)
{
    ReplayTape tape;
    expectSameAsUnfused(
        [](float *m) {
            Ops ops = stagedGroup(m, false, m + kW, 1);
            // Reads the staged copy after the group: the copies must
            // stay for this op to see the updated rows.
            ops.push_back(ew(Opcode::EwAdd, m + kOut, m + kStaged, kN,
                             m + kSrc, kN));
            return ops;
        },
        tape, 2 + 4 * kR);
    EXPECT_EQ(countKind(tape, ReplayKind::Copy2d), 2u);
    // The row updates still become one block op over the staged rows.
    EXPECT_EQ(countKind(tape, ReplayKind::FusedRowUpdate), 1u);
    EXPECT_EQ(tape.ops().size(), 4u);
}

// ---------------------------------------------------------------------
// Column-blocked sweeps. The compiler blocks a memory sweep at the
// 32-word Matrix-Buffer width: per block a load, then per vector a copy
// staging its slice and a Vmm (or a row update of the staged rows and
// a store), and describes the sweep. The sealed tape checks the window
// of ops against the descriptor and merges it into one op that walks
// whole rows, which must compute what the per-block ops do.

// Sweep arena (words): a matrix of up to 8 rows of 101 words at pitch
// 104, by default 6 rows swept in row blocks of 4 and 2 rows and
// column blocks of 32, 32, 32 and 5 words; up to six vectors (keys of
// 101 words, or column weights, one per row); their destinations; the
// row norms; a row update's source vectors and w; the stage row; an
// output row; and last the staged block.
constexpr std::uint32_t kSweepCols = 101;
constexpr std::uint32_t kSweepPitch = 104;
constexpr std::uint32_t kBlockCols = 32;
constexpr std::uint32_t kMaxSweepRows = 8;
constexpr std::uint32_t kMaxSweepVecs = 6;
constexpr std::size_t kSwMat = 0;
constexpr std::size_t kSwVec = kSwMat + kMaxSweepRows * kSweepPitch;
constexpr std::size_t kSwDst = kSwVec + kMaxSweepVecs * kSweepCols;
constexpr std::size_t kSwNorms = kSwDst + kMaxSweepVecs * kSweepCols;
constexpr std::size_t kSwErase = kSwNorms + kMaxSweepRows;
constexpr std::size_t kSwAdd = kSwErase + kSweepCols;
constexpr std::size_t kSwW = kSwAdd + kSweepCols;
constexpr std::size_t kSwStage = kSwW + kMaxSweepRows;
constexpr std::size_t kSwOut = kSwStage + kSweepCols;
constexpr std::size_t kSwStaged = kSwOut + kBlockCols;
constexpr std::size_t kSwArena = kSwStaged + kMaxSweepRows * kSweepCols;

enum class Sweep
{
    RowDot,          ///< keys, norms on the first
    ColumnRowsOuter, ///< column weightings, row blocks outside
    ColumnColsOuter, ///< the same, column blocks outside
    RowUpdate,       ///< a soft write
    LinkUpdate,      ///< a DNC link update
};

/** How a sweep blocks its matrix of kSweepCols-word rows (the last
 * row and column blocks narrower), and how many vectors it serves. */
struct SweepShape
{
    std::uint32_t rows = 6;
    std::uint32_t blockN = 4;
    std::uint32_t blockM = kBlockCols;
    std::uint32_t vecs = 2;
};

/** A hand-built sweep: its shape, an edit of its descriptor (which its
 * ops follow), an edit of its ops alone, and ops after its window. */
struct SweepCase
{
    SweepShape shape;
    std::function<void(SweepWindow &, float *)> window;
    std::function<void(Ops &, float *)> ops;
    std::function<void(Ops &, float *)> after;
};

/** The descriptor of @p kind's sweep of @p shape over the arena at
 * @p m. */
SweepWindow
sweepWindow(float *m, Sweep kind, const SweepShape &shape)
{
    using compiler::SweepKind;
    const bool update = kind == Sweep::RowUpdate || kind == Sweep::LinkUpdate;
    SweepWindow w;
    w.kind = update                  ? SweepKind::RowUpdate
             : kind == Sweep::RowDot ? SweepKind::RowDot
                                     : SweepKind::Column;
    w.rows = shape.rows;
    w.cols = kSweepCols;
    w.pitch = kSweepPitch;
    w.blockN = shape.blockN;
    w.blockM = shape.blockM;
    w.outerRows = kind != Sweep::ColumnColsOuter;
    w.home = m + kSwMat;
    w.stage = m + kSwStage;
    for (std::uint32_t k = 0; !update && k < shape.vecs; ++k)
        w.pairs.push_back(
            {m + kSwVec + k * kSweepCols, m + kSwDst + k * kSweepCols});
    if (kind == Sweep::RowDot)
        w.norms = m + kSwNorms;
    return w;
}

/** The ops the compiler's loop nest for @p w records over the arena at
 * @p m (@p link: a row update is the DNC link update). */
Ops
sweepOps(const SweepWindow &w, bool link, float *m)
{
    const bool rowDot = w.kind == compiler::SweepKind::RowDot;
    Ops ops;
    auto block = [&](std::uint32_t r0, std::uint32_t rows, std::uint32_t c0,
                     std::uint32_t cols) {
        float *home = w.home + r0 * w.pitch + c0;
        float *staged = m + kSwStaged;
        ReplayOp load;
        load.kind = ReplayKind::Copy2d;
        load.n = cols;
        load.rows = rows;
        load.a = home;
        load.pitchA = w.pitch;
        load.d = staged;
        load.pitchD = cols;
        ops.push_back(load);
        if (w.kind == compiler::SweepKind::RowUpdate) {
            for (std::uint32_t r = 0; r < rows; ++r) {
                float *row = staged + r * cols;
                const float *wr = m + kSwW + r0 + r;
                const float *src = m + kSwErase + c0;
                Ops rowOps;
                if (!link) {
                    rowOps = {ew(Opcode::EwMul, w.stage, src, cols, wr, 1),
                              ew(Opcode::EwRsubImm, w.stage, w.stage, cols,
                                 nullptr, 0, 1.0f),
                              ew(Opcode::EwMul, row, row, cols, w.stage, cols),
                              ew(Opcode::EwMac, row, m + kSwAdd + c0, cols, wr,
                                 1)};
                } else {
                    rowOps = {ew(Opcode::EwSub, w.stage, src, cols, wr, 1),
                              ew(Opcode::EwMul, row, row, cols, w.stage, cols),
                              ew(Opcode::EwMac, row, m + kSwAdd + c0, cols, wr,
                                 1)};
                }
                for (ReplayOp &op : rowOps) {
                    op.n = cols;
                    ops.push_back(op);
                }
            }
            ReplayOp store = load;
            store.a = staged;
            store.pitchA = cols;
            store.d = home;
            store.pitchD = w.pitch;
            ops.push_back(store);
            return;
        }
        for (std::size_t k = 0; k < w.pairs.size(); ++k) {
            ReplayOp copy;
            copy.kind = ReplayKind::Copy2d;
            copy.rows = 1;
            copy.n = rowDot ? cols : rows;
            copy.a = w.pairs[k].v + (rowDot ? c0 : r0);
            copy.d = w.stage;
            ops.push_back(copy);
            const bool norms = k == 0 && w.norms != nullptr;
            ReplayOp vmm;
            vmm.kind = ReplayKind::Vmm;
            vmm.flags = kReplayAccumulate;
            if (rowDot)
                vmm.flags |= kReplayRowDot | (norms ? kReplayWithNorms : 0);
            vmm.n = cols;
            vmm.rows = rows;
            vmm.pitchA = cols;
            vmm.a = w.stage;
            vmm.b = staged;
            vmm.d = w.pairs[k].d + (rowDot ? r0 : c0);
            vmm.dn = norms ? w.norms + r0 : nullptr;
            ops.push_back(vmm);
        }
    };
    const std::uint32_t outer = w.outerRows ? w.rows : w.cols;
    const std::uint32_t inner = w.outerRows ? w.cols : w.rows;
    const std::uint32_t outerStep = w.outerRows ? w.blockN : w.blockM;
    const std::uint32_t innerStep = w.outerRows ? w.blockM : w.blockN;
    for (std::uint32_t i = 0; i < outer; i += outerStep) {
        for (std::uint32_t j = 0; j < inner; j += innerStep) {
            const std::uint32_t r0 = w.outerRows ? i : j;
            const std::uint32_t c0 = w.outerRows ? j : i;
            block(r0, std::min(w.blockN, w.rows - r0), c0,
                  std::min(w.blockM, w.cols - c0));
        }
    }
    return ops;
}

/**
 * Record @p kind's sweep (@p c's variant) on @p tape, its ops as its
 * window, run the sealed tape on one arena copy and the raw ops one by
 * one on another, two steps each, and compare every word but the
 * staged block and, unless @p withStage, the stage row (whose copies a
 * merged sweep drops).
 */
void
expectSweepLikeRawOps(ReplayTape &tape, Sweep kind, bool withStage,
                      const SweepCase &c = {})
{
    std::vector<float> init(kSwArena);
    Rng rng(29);
    for (auto &v : init)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> sealed = init;
    std::vector<float> raw = init;
    // The sweep's descriptor, its window's ops and the ops after it.
    auto build = [&](float *m, SweepWindow &w, Ops &ops, Ops &after) {
        w = sweepWindow(m, kind, c.shape);
        if (c.window)
            c.window(w, m);
        ops = sweepOps(w, kind == Sweep::LinkUpdate, m);
        if (c.ops)
            c.ops(ops, m);
        if (c.after)
            c.after(after, m);
    };
    SweepWindow w;
    Ops ops, after;
    build(sealed.data(), w, ops, after);
    tape.startRecording();
    tape.openSweep(w);
    for (const ReplayOp &op : ops)
        tape.append(op);
    tape.closeSweep();
    for (const ReplayOp &op : after)
        tape.append(op);
    tape.finishRecording();
    Ops reference, rawAfter;
    build(raw.data(), w, reference, rawAfter);
    reference.insert(reference.end(), rawAfter.begin(), rawAfter.end());
    for (int step = 0; step < 2; ++step) {
        for (const ReplayOp &op : tape.ops())
            execTileOp(op, &tape);
        for (const ReplayOp &op : reference)
            execTileOp(op);
    }
    for (std::size_t i = 0; i < kSwStaged; ++i) {
        if (!withStage && i >= kSwStage && i < kSwStage + kSweepCols)
            continue;
        std::uint32_t bs = 0;
        std::uint32_t br = 0;
        std::memcpy(&bs, &sealed[i], 4);
        std::memcpy(&br, &raw[i], 4);
        ASSERT_EQ(bs, br) << "arena word " << i;
    }
}

/** The tape is one merged op of @p kind over the whole matrix of
 * @p shape. */
void
expectOneSweepOp(const ReplayTape &tape, ReplayKind kind,
                 const SweepShape &shape = {})
{
    ASSERT_EQ(tape.ops().size(), 1u);
    const ReplayOp &op = tape.ops()[0];
    EXPECT_EQ(op.kind, kind);
    EXPECT_EQ(op.rows, shape.rows);
    EXPECT_EQ(op.n, kSweepCols);
    EXPECT_EQ(op.block, shape.blockM < kSweepCols ? shape.blockM : 0u);
}

/** No op of the tape is a merged sweep or a block's op moved home. */
void
expectRaw(const ReplayTape &tape)
{
    for (const ReplayOp &op : tape.ops())
        EXPECT_TRUE(op.kind != ReplayKind::RowDotSweep &&
                    op.kind != ReplayKind::ColumnSweep &&
                    (op.kind != ReplayKind::Vmm || op.b == tape.ops()[0].d))
            << static_cast<int>(op.kind);
    EXPECT_EQ(tape.ops()[0].kind, ReplayKind::Copy2d);
}

TEST(ReplaySweep, RowDotWithNormsMergesToOneOp)
{
    ReplayTape tape;
    expectSweepLikeRawOps(tape, Sweep::RowDot, false);
    expectOneSweepOp(tape, ReplayKind::RowDotSweep);
    EXPECT_EQ(tape.ops()[0].vecs, 2u);
    EXPECT_EQ(tape.ops()[0].flags, kReplayWithNorms);
}

TEST(ReplaySweep, ColumnSumMergesInEitherLoopOrder)
{
    for (const Sweep kind :
         {Sweep::ColumnRowsOuter, Sweep::ColumnColsOuter}) {
        SCOPED_TRACE(static_cast<int>(kind));
        ReplayTape tape;
        expectSweepLikeRawOps(tape, kind, false);
        expectOneSweepOp(tape, ReplayKind::ColumnSweep);
        EXPECT_EQ(tape.ops()[0].vecs, 2u);
    }
}

TEST(ReplaySweep, RowUpdateMergesAndLeavesTheStageAsTheBlocksDid)
{
    ReplayTape tape;
    expectSweepLikeRawOps(tape, Sweep::RowUpdate, true);
    expectOneSweepOp(tape, ReplayKind::FusedRowUpdate);
}

// Six keys plus the norms make seven (row, vector) pairs per row, so
// the batched row dot's eight-pair calls straddle rows.
TEST(ReplaySweep, SevenPairRowDotMergesAndMatchesTheRawOps)
{
    SweepCase c;
    c.shape.rows = 5;
    c.shape.vecs = 6;
    ReplayTape tape;
    expectSweepLikeRawOps(tape, Sweep::RowDot, false, c);
    expectOneSweepOp(tape, ReplayKind::RowDotSweep, c.shape);
    EXPECT_EQ(tape.ops()[0].vecs, 6u);
    EXPECT_EQ(tape.ops()[0].flags, kReplayWithNorms);
}

// Seven rows: one four-row pass, then three rows.
TEST(ReplaySweep, FiveVectorColumnSumOverSevenRowsMatchesTheRawOps)
{
    SweepCase c;
    c.shape.rows = 7;
    c.shape.vecs = 5;
    for (const Sweep kind :
         {Sweep::ColumnRowsOuter, Sweep::ColumnColsOuter}) {
        SCOPED_TRACE(static_cast<int>(kind));
        ReplayTape tape;
        expectSweepLikeRawOps(tape, kind, false, c);
        expectOneSweepOp(tape, ReplayKind::ColumnSweep, c.shape);
        EXPECT_EQ(tape.ops()[0].vecs, 5u);
    }
}

// Only a merged update's last row writes the stage; it must still end
// as the raw ops left it, for one row and for five, as one block op
// (block 0) and as a merged column-blocked sweep (block set).
TEST(ReplaySweep, MergedUpdatesLeaveTheLastRowsStage)
{
    for (const Sweep kind : {Sweep::RowUpdate, Sweep::LinkUpdate}) {
        for (const std::uint32_t rows : {1u, 5u}) {
            for (const bool blocked : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << "link=" << (kind == Sweep::LinkUpdate)
                             << " rows=" << rows << " blocked=" << blocked);
                SweepCase c;
                c.shape.rows = c.shape.blockN = rows;
                if (!blocked)
                    c.shape.blockM = kSweepCols;
                ReplayTape tape;
                expectSweepLikeRawOps(tape, kind, true, c);
                expectOneSweepOp(tape,
                                 kind == Sweep::RowUpdate
                                     ? ReplayKind::FusedRowUpdate
                                     : ReplayKind::FusedLinkUpdate,
                                 c.shape);
            }
        }
    }
}

// An op inside the window is not one its descriptor names.
TEST(ReplaySweep, WindowOpWritingASourceKeepsTheWindowRaw)
{
    SweepCase c;
    // Rewrites words of the second key between the first block's Vmms.
    c.ops = [](Ops &ops, float *m) {
        ops.insert(ops.begin() + 3,
                   ew(Opcode::EwAddImm, m + kSwVec + kSweepCols + 8,
                      m + kSwOut, kN, nullptr, 0, 0.5f));
    };
    ReplayTape tape;
    expectSweepLikeRawOps(tape, Sweep::RowDot, false, c);
    expectRaw(tape);
    EXPECT_EQ(countKind(tape, ReplayKind::Vmm), 16u);
}

TEST(ReplaySweep, WindowOpReadingADestinationKeepsTheWindowRaw)
{
    SweepCase c;
    c.ops = [](Ops &ops, float *m) {
        ReplayOp op =
            ew(Opcode::EwAddImm, m + kSwOut, m + kSwDst, 4, nullptr, 0, 0.5f);
        op.n = 4;
        ops.insert(ops.begin() + 3, op);
    };
    ReplayTape tape;
    expectSweepLikeRawOps(tape, Sweep::RowDot, false, c);
    expectRaw(tape);
    EXPECT_EQ(countKind(tape, ReplayKind::Vmm), 16u);
}

TEST(ReplaySweep, DestinationInsideASourceKeepsTheSweep)
{
    SweepCase c;
    // The second key's dots land in words of the first key that a
    // later column block reads.
    c.window = [](SweepWindow &w, float *m) { w.pairs[1].d = m + kSwVec + 70; };
    ReplayTape tape;
    expectSweepLikeRawOps(tape, Sweep::RowDot, false, c);
    expectRaw(tape);
}

TEST(ReplaySweep, LaterReadOfTheStageKeepsTheCopies)
{
    SweepCase c;
    // Reads the stage row after the sweep: its copies must stay.
    c.after = [](Ops &ops, float *m) {
        ops.push_back(
            ew(Opcode::EwAddImm, m + kSwOut, m + kSwStage, kN, nullptr, 0, 0.5f));
    };
    ReplayTape tape;
    expectSweepLikeRawOps(tape, Sweep::RowDot, true, c);
    EXPECT_EQ(countKind(tape, ReplayKind::RowDotSweep), 0u);
    EXPECT_EQ(countKind(tape, ReplayKind::Vmm), 16u);
}

// The descriptor names every block and vector in order: a window with
// a block left out, or with two vectors served the other way round,
// stays raw, and computes what its raw ops compute.
TEST(ReplaySweep, WindowWhoseOpsDifferFromItsDescriptorStaysRaw)
{
    SweepCase skipped;
    // Each row-dot block is a load and two (copy, Vmm) pairs.
    skipped.ops = [](Ops &ops, float *) {
        ops.erase(ops.begin() + 10, ops.begin() + 15);
    };
    SweepCase swapped;
    swapped.ops = [](Ops &ops, float *) {
        std::rotate(ops.begin() + 6, ops.begin() + 8, ops.begin() + 10);
    };
    for (const auto &[kind, c] :
         {std::pair{Sweep::RowDot, skipped},
          std::pair{Sweep::ColumnRowsOuter, swapped}}) {
        SCOPED_TRACE(static_cast<int>(kind));
        ReplayTape tape;
        expectSweepLikeRawOps(tape, kind, false, c);
        expectRaw(tape);
        EXPECT_EQ(countKind(tape, ReplayKind::Vmm),
                  kind == Sweep::RowDot ? 14u : 16u);
    }
}

// ---------------------------------------------------------------------
// Runs. appendRun() stands for the per-op append() loop over a loop's
// iterations: it must give the same digest and op count in record and
// in check mode, and a sealed tape that computes the same bits.

/** The loop bodies the run tests draw. */
enum class Body
{
    RowQuads,     ///< 1-3 in-place soft-write quads per iteration
    LinkTriples,  ///< 1-3 in-place link triples per iteration
    StageAliases, ///< quads whose stage is their add vector
    SparseW,      ///< w steps by two words
    WInsideRows,  ///< every w lies in the gap after the first row
    PerRowAdd,    ///< each row has its own add vector
    Rotated,      ///< each iteration starts inside a quad
    StagedBlock,  ///< [load][R quads on the staged rows][store]
    Count,
};

/** One drawn run: ops before the loop body, the body at iteration 0
 * and its pointer steps, the run's iterations, and the words elision
 * may leave unwritten. */
struct RunCase
{
    Ops prologue;
    Ops body;
    std::vector<ReplayStep> steps;
    std::uint64_t iterations = 0;
    std::size_t extras = 0; ///< body ops outside every idiom
    std::size_t scratchBegin = 0;
    std::size_t scratchEnd = 0;
};

constexpr std::size_t kRunArena = std::size_t{1} << 16;

std::uintptr_t
bytes(std::size_t words)
{
    return words * sizeof(float);
}

/**
 * Draw case @p seed of @p shape over the arena at @p m: the same
 * draws, hence the same ops relative to @p m, on every call. The loop
 * runs iterations 0 .. iterations+1: the first and the last literally,
 * the rest as the run.
 */
RunCase
makeRunCase(Body shape, std::uint64_t seed, float *m)
{
    Rng rng(seed);
    RunCase rc;
    rc.iterations = 1 + rng.below(70);
    const std::size_t spans = rc.iterations + 2;
    const auto n = static_cast<std::uint32_t>(rng.range(4, 12));
    std::size_t used = 0;
    auto alloc = [&](std::size_t words) {
        float *at = m + used;
        used += words;
        return at;
    };
    auto op = [&](Opcode code, float *d, const float *a,
                  std::uint32_t aLen, const float *b, std::uint32_t bLen,
                  float imm, ReplayStep step) {
        ReplayOp o;
        o.kind = ReplayKind::Elementwise;
        o.op = code;
        o.n = n;
        o.a = a;
        o.pitchA = aLen;
        o.b = b;
        o.pitchD = bLen;
        o.d = d;
        o.imm = imm;
        rc.body.push_back(o);
        rc.steps.push_back(step);
    };
    // One row update: src, w, add and the row step by the given words
    // per iteration; the stage stays.
    auto idiom = [&](bool link, float *row, const float *w,
                     const float *src, const float *add, float *stage,
                     std::size_t rowStep, std::size_t wStep,
                     std::size_t srcStep, std::size_t addStep) {
        const std::uintptr_t rs = bytes(rowStep), ws = bytes(wStep);
        const std::uintptr_t ss = bytes(srcStep), as = bytes(addStep);
        if (link) {
            op(Opcode::EwSub, stage, src, n, w, 1, 0.0f, {ss, ws, 0, 0});
        } else {
            op(Opcode::EwMul, stage, src, n, w, 1, 0.0f, {ss, ws, 0, 0});
            op(Opcode::EwRsubImm, stage, stage, n, nullptr, 0, 1.0f, {});
        }
        op(Opcode::EwMul, row, row, n, stage, n, 0.0f, {rs, 0, rs, 0});
        op(Opcode::EwMac, row, add, n, w, 1, 0.0f, {as, ws, rs, 0});
    };

    if (shape == Body::StagedBlock) {
        // Column block k of R home rows, staged through scratch rows.
        const auto R = static_cast<std::uint32_t>(rng.range(2, 4));
        const std::size_t hp = n * spans;
        float *home = alloc(R * hp);
        float *staged = alloc(R * n);
        rc.scratchBegin = static_cast<std::size_t>(staged - m);
        rc.scratchEnd = rc.scratchBegin + R * n;
        float *w = alloc(R);
        float *src = alloc(n * spans);
        float *add = alloc(n * spans);
        float *stage = alloc(n);
        ReplayOp load;
        load.kind = ReplayKind::Copy2d;
        load.n = n;
        load.rows = R;
        load.a = home;
        load.pitchA = static_cast<std::uint32_t>(hp);
        load.d = staged;
        load.pitchD = n;
        rc.body.push_back(load);
        rc.steps.push_back({bytes(n), 0, 0, 0});
        for (std::uint32_t j = 0; j < R; ++j)
            idiom(false, staged + j * n, w + j, src, add, stage, 0, 0, n,
                  n);
        ReplayOp store = load;
        store.a = staged;
        store.pitchA = n;
        store.d = home;
        store.pitchD = static_cast<std::uint32_t>(hp);
        rc.body.push_back(store);
        rc.steps.push_back({0, 0, bytes(n), 0});
    } else {
        const auto perIter = static_cast<std::size_t>(rng.range(1, 3));
        const std::size_t rows = perIter * (spans + 1);
        const std::size_t wStride = shape == Body::SparseW ? 2 : 1;
        const std::size_t gap = shape == Body::WInsideRows
                                    ? rows
                                    : static_cast<std::size_t>(
                                          rng.range(0, 3));
        const std::size_t pitch = n + gap;
        float *base = alloc(rows * pitch);
        float *w = shape == Body::WInsideRows ? base + n
                                              : alloc(rows * wStride);
        float *src = alloc(n);
        const bool perRowAdd = shape == Body::PerRowAdd;
        float *add = alloc(perRowAdd ? rows * n : n);
        float *stage = shape == Body::StageAliases ? add : alloc(n);
        for (std::size_t j = 0; j < perIter; ++j)
            idiom(shape == Body::LinkTriples, base + j * pitch,
                  w + j * wStride, src, add + (perRowAdd ? j * n : 0),
                  stage, perIter * pitch, perIter * wStride, 0,
                  perRowAdd ? perIter * n : 0);
        if (shape == Body::Rotated) {
            // The body's first op belongs to the next iteration's
            // quad; the loop's first quad starts before the body.
            rc.prologue.push_back(rc.body.front());
            rc.body.push_back(advanced(rc.body.front(), rc.steps[0], 1));
            rc.steps.push_back(rc.steps[0]);
            rc.body.erase(rc.body.begin());
            rc.steps.erase(rc.steps.begin());
        }
    }

    // Ops with their own spans, null operands and mixed steps, at
    // random places in the body (inside an idiom they keep it apart).
    rc.extras = rng.below(3);
    for (std::size_t e = 0; e < rc.extras; ++e) {
        float *from = alloc(2 * n * spans);
        float *to = from + n * spans;
        const std::uintptr_t as = rng.below(2) != 0 ? bytes(n) : 0;
        const std::uintptr_t ds = rng.below(2) != 0 ? bytes(n) : 0;
        ReplayOp x;
        x.kind = ReplayKind::Elementwise;
        x.n = n;
        x.d = to;
        ReplayStep step = {0, 0, ds, 0};
        switch (rng.below(4)) {
          case 0:
            x.op = Opcode::EwAddImm;
            x.a = from;
            x.pitchA = n;
            x.imm = 0.5f;
            step[0] = as;
            break;
          case 1:
            x.op = Opcode::Fill;
            x.imm = 2.0f;
            break;
          case 2:
            x.op = Opcode::EwAdd;
            x.a = x.b = from;
            x.pitchA = x.pitchD = n;
            step[0] = step[1] = as;
            break;
          default:
            x.kind = ReplayKind::Copy2d;
            x.rows = 1;
            x.a = from;
            step[0] = as;
            break;
        }
        const auto at = static_cast<std::ptrdiff_t>(
            rng.below(rc.body.size() + 1));
        rc.body.insert(rc.body.begin() + at, x);
        rc.steps.insert(rc.steps.begin() + at, step);
    }
    EXPECT_LE(used, kRunArena);
    return rc;
}

/** Record @p rc's loop on @p tape, the middle iterations as one run
 * when @p asRun, else op by op; or, on a Ready tape, check them. */
void
appendLoop(ReplayTape &tape, const RunCase &rc, bool asRun,
           std::uint64_t runIterations)
{
    for (const ReplayOp &op : rc.prologue)
        tape.append(op);
    for (const ReplayOp &op : rc.body)
        tape.append(op);
    if (asRun) {
        tape.appendRun(rc.body, rc.steps, runIterations);
    } else {
        for (std::uint64_t k = 1; k <= runIterations; ++k)
            for (std::size_t i = 0; i < rc.body.size(); ++i)
                tape.append(advanced(rc.body[i], rc.steps[i], k));
    }
    for (std::size_t i = 0; i < rc.body.size(); ++i)
        tape.append(
            advanced(rc.body[i], rc.steps[i], rc.iterations + 1));
}

/** Every block op keeps each w outside its rows, at a pitch >= n. */
void
expectBlocksKeepW(const ReplayTape &tape)
{
    for (const ReplayOp &op : tape.ops()) {
        if (op.kind != ReplayKind::FusedRowUpdate &&
            op.kind != ReplayKind::FusedLinkUpdate)
            continue;
        if (op.rows < 2)
            continue;
        EXPECT_GE(op.pitchD, op.n);
        const float *rowsEnd =
            op.d + std::size_t(op.rows - 1) * op.pitchD + op.n;
        EXPECT_FALSE(op.b < rowsEnd && op.d < op.b + op.rows)
            << "a block's w lies in its rows";
    }
}

void
expectSameBits(const std::vector<float> &x, const std::vector<float> &y,
               const RunCase &rc)
{
    for (std::size_t i = 0; i < x.size(); ++i) {
        if (i >= rc.scratchBegin && i < rc.scratchEnd)
            continue;
        std::uint32_t bx = 0;
        std::uint32_t by = 0;
        std::memcpy(&bx, &x[i], 4);
        std::memcpy(&by, &y[i], 4);
        ASSERT_EQ(bx, by) << "arena word " << i;
    }
}

TEST(ReplayTapeRun, EqualsTheOpByOpLoop)
{
    std::vector<float> init(kRunArena);
    Rng fill(23);
    for (auto &v : init)
        v = static_cast<float>(fill.uniform(-1.0, 1.0));
    for (int s = 0; s < static_cast<int>(Body::Count); ++s) {
        const auto shape = static_cast<Body>(s);
        for (std::uint64_t seed = 1; seed <= 40; ++seed) {
            SCOPED_TRACE(testing::Message()
                         << "body " << s << " seed " << seed);
            std::vector<float> runArena = init;
            std::vector<float> opArena = init;
            std::vector<float> plain = init;
            const RunCase rc = makeRunCase(shape, seed, runArena.data());
            const RunCase ro = makeRunCase(shape, seed, opArena.data());
            const RunCase rp = makeRunCase(shape, seed, plain.data());

            ReplayTape run;
            run.startRecording();
            appendLoop(run, rc, true, rc.iterations);
            run.finishRecording();
            ReplayTape byOp;
            byOp.startRecording();
            appendLoop(byOp, ro, false, ro.iterations);
            byOp.finishRecording();

            // Either way of appending checks against either recording,
            // and a run one iteration short fails the check.
            run.startCheck();
            appendLoop(run, rc, false, rc.iterations);
            EXPECT_NO_THROW(run.checkStep(2));
            byOp.startCheck();
            appendLoop(byOp, ro, true, ro.iterations);
            EXPECT_NO_THROW(byOp.checkStep(2));
            byOp.startCheck();
            appendLoop(byOp, ro, true, ro.iterations - 1);
            EXPECT_THROW(byOp.checkStep(2), SimError);

            // The same tape, computing the same bits as the plain ops.
            ASSERT_EQ(run.ops().size(), byOp.ops().size());
            for (int step = 0; step < 2; ++step) {
                for (const ReplayOp &op : run.ops())
                    execTileOp(op, &run);
                for (const ReplayOp &op : byOp.ops())
                    execTileOp(op, &byOp);
                for (const ReplayOp &op : rp.prologue)
                    execTileOp(op);
                for (std::uint64_t k = 0; k <= rp.iterations + 1; ++k)
                    for (std::size_t i = 0; i < rp.body.size(); ++i)
                        execTileOp(
                            advanced(rp.body[i], rp.steps[i], k));
            }
            expectSameBits(runArena, plain, rc);
            expectSameBits(opArena, plain, rc);
            expectBlocksKeepW(run);

            std::size_t fused = 0;
            std::size_t blocks = 0;
            for (const ReplayOp &op : run.ops()) {
                const bool f = op.kind == ReplayKind::FusedRowUpdate ||
                               op.kind == ReplayKind::FusedLinkUpdate;
                fused += f ? 1 : 0;
                blocks += f && op.rows > 1 ? 1 : 0;
            }
            if (shape == Body::StageAliases) {
                EXPECT_EQ(fused, 0u);
            } else if (shape == Body::SparseW) {
                EXPECT_EQ(blocks, 0u);
            } else if (rc.extras == 0 && (shape == Body::RowQuads ||
                                          shape == Body::StagedBlock)) {
                EXPECT_GT(blocks, 0u);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Differential fuzzer. Random programs of memory sweeps emitted through
// compiler::KernelRoutines (rows 1-300, widths 1-4,100, ragged blocks,
// 1-8 vectors, both loop orders, the mapper's block sizes or random
// ones), some with operands that alias each other, and between the
// sweeps random ops that read a source, write a destination, or read a
// stage word or the staged block. Each program runs on one tile with
// every tape pass on and, on a twin tile, as its raw ops one by one;
// every word outside the staging scratch must agree bit for bit.

using isa::Operand;
using isa::Space;

constexpr std::uint64_t kFuzzCases = 300;
/** VecSpad: the Vmm sweeps' stage words (at 0 or half-way), then the
 * row updates'. */
constexpr std::uint32_t kFuzzStage = 1024;
/** Words past each buffer's last region, for aliased operands. */
constexpr std::uint32_t kFuzzSlack = 8192;
constexpr std::uint32_t kFuzzOut = 64; ///< words per interloper output

/** A drawn program and the tile layout it runs on. */
struct FuzzCase
{
    arch::MannaConfig ac = arch::MannaConfig::withTiles(1);
    TileLayoutSizes sizes;
    compiler::CompiledProgram model;
};

FuzzCase
makeFuzzCase(std::uint64_t seed)
{
    using compiler::mk;
    using compiler::makeInst;
    Rng rng(seed);
    FuzzCase fc;
    fc.ac.hasDmat = rng.below(2) != 0;
    compiler::KernelRoutines kr(fc.ac, 1, 1, 1, 0.0f);
    kr.stageVec = 0;
    kr.stageRow = kFuzzStage;
    compiler::RegionAlloc mat, vec;
    std::uint32_t spad = 1; // MatSpad words the largest block needs
    const std::uint32_t out = vec(8 * kFuzzOut);
    std::uint32_t outs = 0;
    // Every operand region so far, for the interlopers to pick from.
    std::vector<Operand> regions = {
        isa::makeOperand(Space::VecSpad, 0, 2 * kFuzzStage)};
    auto region = [&](Space space, std::uint32_t len) {
        compiler::RegionAlloc &a = space == Space::MatBuf ? mat : vec;
        regions.push_back(isa::makeOperand(space, a(len), len));
        return regions.back().base;
    };
    auto anySpace = [&] {
        return rng.below(2) != 0 ? Space::MatBuf : Space::VecBuf;
    };
    isa::Program prog;
    // A slice of some region: at most @p most words, or exactly.
    auto slice = [&](std::uint32_t most, bool exact = false) {
        Operand r;
        do {
            r = regions[rng.below(regions.size())];
            if (rng.below(16) == 0)
                r = isa::makeOperand(Space::MatSpad, 0, spad);
        } while (exact && r.len < most);
        const auto len = exact ? most
                               : static_cast<std::uint32_t>(
                                     1 + rng.below(std::min(r.len, most)));
        return isa::makeOperand(
            r.space,
            r.base + static_cast<std::uint32_t>(rng.below(r.len - len + 1)),
            len);
    };
    auto outRow = [&](std::uint32_t len) {
        return isa::makeOperand(Space::VecBuf,
                                out + kFuzzOut * (outs++ % 8), len);
    };
    // Up to two ops, each reading a slice of some region into an output
    // row, scaling one in place or copying one over some stage words;
    // or a loop long enough that the tile hands most of it to the tape
    // as a run, whose body has an ew.mac after an ew.addi, after the
    // tail of an idiom (ew.mul), or after the link update's other ops,
    // linked or linked at the first iteration only.
    auto interlopers = [&] {
        if (rng.below(4) == 0) {
            const auto len = static_cast<std::uint32_t>(rng.range(1, 8));
            const auto count = static_cast<std::uint32_t>(rng.range(5, 8));
            const auto row = [&] {
                return isa::makeStridedOperand(
                    Space::VecBuf, out + kFuzzOut * (outs++ % 8), len,
                    static_cast<std::int32_t>(rng.below(kFuzzOut / count -
                                                        len + 1)));
            };
            const Operand x = row(), d = row();
            const Operand a = slice(len, true), b = slice(1);
            prog.beginLoop(count);
            switch (rng.below(3)) {
              case 0:
                prog.append(makeInst(Opcode::EwAddImm, x, a, {}, 0.5f));
                break;
              case 1: // the tail of an idiom
                prog.append(makeInst(Opcode::EwMul, d, d, x));
                break;
              default: {
                // The link update's opcodes, linked (y is x) or linked
                // at the first iteration only (y steps unlike x).
                Operand y = x;
                if (rng.below(2) != 0)
                    y.stride[0] = x.stride[0] == 0 ? 1 : 0;
                if (rng.below(2) != 0) // an op before the idiom
                    prog.append(makeInst(Opcode::EwAddImm, row(), a, {},
                                         0.5f));
                prog.append(makeInst(Opcode::EwSub, x, a, b));
                prog.append(makeInst(Opcode::EwMul, d, d, y));
                prog.append(makeInst(Opcode::EwMac, d, row(), b));
                if (rng.below(2) != 0) // a copy after the idiom
                    prog.append(makeInst(
                        Opcode::DmaLoadV,
                        isa::makeOperand(Space::VecSpad, 2 * kFuzzStage,
                                         len),
                        x));
                prog.endLoop();
                return;
              }
            }
            prog.append(makeInst(Opcode::EwMac, d, x, b));
            prog.endLoop();
            return;
        }
        for (auto k = rng.below(3); k > 0; --k) {
            const Operand r = slice(kFuzzOut);
            switch (rng.below(3)) {
              case 0:
                prog.append(makeInst(Opcode::EwMulImm, r, r, {}, 0.5f));
                break;
              case 1:
                prog.append(
                    makeInst(Opcode::EwAddImm, outRow(r.len), r, {}, 0.25f));
                break;
              default:
                // Half the time near a Vmm sweep's stage words.
                const auto at = static_cast<std::uint32_t>(
                    rng.below(2) != 0
                        ? rng.below(2 * kFuzzStage - r.len + 1)
                        : rng.below(2) * kFuzzStage / 2 + rng.below(8));
                prog.append(makeInst(Opcode::DmaLoadV,
                                     isa::makeOperand(Space::VecSpad, at,
                                                      r.len),
                                     r));
                break;
            }
        }
    };

    // The routines describe their sweeps while addSegment() emits.
    auto emit = [&](std::size_t) {
        struct
        {
            std::uint32_t base = 0, rows = 0, cols = 0;
        } matrix;
        for (auto s = rng.range(1, 3); s > 0; --s) {
            interlopers();
            const auto kind = rng.below(5);
            const bool rowDot = kind == 0;
            const bool update = kind >= 3;
            // The matrix: the previous sweep's again, or a new one.
            if (matrix.rows == 0 || rng.below(3) != 0) {
                matrix.rows = static_cast<std::uint32_t>(
                    rng.below(3) == 0 ? rng.range(1, 300) : rng.range(1, 24));
                matrix.cols = static_cast<std::uint32_t>(
                    rng.below(3) == 0 ? rng.range(1, 4100) : rng.range(1, 100));
                matrix.base = region(Space::MatBuf, matrix.rows * matrix.cols);
            }
            const std::uint32_t rows = matrix.rows;
            const std::uint32_t cols = matrix.cols;
            std::uint32_t blockN = compiler::chooseBlockN(
                fc.ac, rows, rowDot && fc.ac.hasDmat);
            std::uint32_t blockM =
                static_cast<std::uint32_t>(fc.ac.matrixBufferWidthWords);
            if (rng.below(2) != 0) {
                const auto n = static_cast<std::uint32_t>(rng.range(1, rows));
                const auto m = static_cast<std::uint32_t>(
                    rng.range(1, std::min(cols, 256u)));
                if ((rows + n - 1) / n * ((cols + m - 1) / m) <= 2000) {
                    blockN = n;
                    blockM = m;
                }
            }
            spad = std::max(spad, blockN * (blockM + 1));
            const bool alias = rng.below(4) == 0;
            if (update) {
                // A soft write (erase, add, w) or a DNC link update (o, p,
                // w); aliased, w or the first source lies in the rows, or
                // a source or w in the stage words or the staged block.
                const bool link = kind == 4;
                Space srcSpace = link ? Space::VecBuf : Space::MatBuf;
                Space addSpace = srcSpace;
                std::uint32_t src = region(srcSpace, cols);
                std::uint32_t add = region(addSpace, cols);
                Space wSpace = Space::VecBuf;
                std::uint32_t w = region(wSpace, rows);
                switch (alias ? rng.below(5) : 5) {
                  case 0:
                    wSpace = Space::MatBuf;
                    w = matrix.base +
                        static_cast<std::uint32_t>(rng.below(rows * cols));
                    break;
                  case 1:
                    if (!link)
                        src = matrix.base + static_cast<std::uint32_t>(
                                                rng.below(rows * cols));
                    break;
                  case 2:
                  case 3:
                  case 4: {
                    const bool staged = rng.below(2) != 0;
                    const Space space =
                        staged ? Space::MatSpad : Space::VecSpad;
                    const auto at = static_cast<std::uint32_t>(
                        staged ? rng.below(blockN * blockM)
                               : kFuzzStage +
                                     rng.below(std::min(cols, blockM)));
                    switch (rng.below(3)) {
                      case 0:
                        srcSpace = space;
                        src = at;
                        break;
                      case 1:
                        addSpace = space;
                        add = at;
                        break;
                      default:
                        wSpace = space;
                        w = at;
                        break;
                    }
                    break;
                  }
                  default:
                    break;
                }
                kr.emitRowUpdateSweep(
                    prog, matrix.base, rows, cols, blockN, blockM,
                    [&](isa::Program &p, const compiler::SweepCtx &rc,
                        const Operand &row, std::uint32_t colsB) {
                        const Operand stage = isa::makeOperand(
                            Space::VecSpad, kr.stageRow, colsB);
                        const Operand wRow = mk(wSpace, w, 1, rc, blockN, 0, 1);
                        const Operand a = mk(srcSpace, src, colsB, rc, 0, blockM);
                        if (link) {
                            p.append(makeInst(Opcode::EwSub, stage, a, wRow));
                        } else {
                            p.append(makeInst(Opcode::EwMul, stage, a, wRow));
                            p.append(makeInst(Opcode::EwRsubImm, stage, stage,
                                              {}, 1.0f));
                        }
                        p.append(makeInst(Opcode::EwMul, row, row, stage));
                        p.append(makeInst(Opcode::EwMac, row,
                                          mk(addSpace, add, colsB, rc, 0,
                                             blockM),
                                          wRow));
                    });
                continue;
            }
            // Row dots: vectors of cols words into rows words (norms after
            // the first destination); column sums the other way round.
            const std::uint32_t vLen = rowDot ? cols : rows;
            const std::uint32_t dLen = rowDot ? rows : cols;
            const bool norms = rowDot && rng.below(2) != 0;
            std::vector<compiler::SweepVec> vecs(
                static_cast<std::size_t>(rng.range(1, 8)));
            for (std::size_t k = 0; k < vecs.size(); ++k) {
                compiler::SweepVec &v = vecs[k];
                v.srcSpace = anySpace();
                v.src = region(v.srcSpace, vLen);
                v.dstSpace = anySpace();
                v.dst = region(v.dstSpace, dLen);
                if (k == 0 && norms)
                    kr.simNorms = region(v.dstSpace, rows);
            }
            // Aliased: a destination (not the one the norms hang off) in
            // a source, in the matrix or in another destination, or a
            // source in a destination, the stage words or the staged
            // block.
            const std::size_t k = norms ? 1 : 0;
            kr.stageVec = static_cast<std::uint32_t>(rng.below(2)) *
                          kFuzzStage / 2;
            if (alias && k < vecs.size()) {
                compiler::SweepVec &v = vecs[k];
                const compiler::SweepVec &o = vecs[rng.below(vecs.size())];
                switch (rng.below(6)) {
                  case 0:
                    v.dstSpace = o.srcSpace;
                    v.dst = o.src + static_cast<std::uint32_t>(rng.below(vLen));
                    break;
                  case 1:
                    v.dstSpace = Space::MatBuf;
                    v.dst = matrix.base + static_cast<std::uint32_t>(
                                              rng.below(rows * cols));
                    break;
                  case 2:
                    v.dstSpace = o.dstSpace;
                    v.dst = o.dst + static_cast<std::uint32_t>(rng.below(dLen));
                    break;
                  case 3:
                    v.srcSpace = o.dstSpace;
                    v.src = o.dst + static_cast<std::uint32_t>(rng.below(dLen));
                    break;
                  case 4: // half the time inside the stage words
                    v.srcSpace = Space::VecSpad;
                    v.src = static_cast<std::uint32_t>(
                        rng.below(2) != 0
                            ? rng.below(kFuzzStage)
                            : kr.stageVec +
                                  rng.below(rowDot ? std::min(blockM, cols)
                                                   : std::min(blockN, rows)));
                    break;
                  default:
                    v.srcSpace = Space::MatSpad;
                    v.src = static_cast<std::uint32_t>(rng.below(spad));
                    break;
                }
            }
            if (rowDot)
                kr.emitRowDotSweep(prog, matrix.base, rows, cols, blockN,
                                   blockM, vecs, norms);
            else
                kr.emitColumnSweep(prog, matrix.base, rows, cols, blockN,
                                   blockM, kind == 1, vecs);
        }
        interlopers();
        return prog;
    };
    kr.addSegment(fc.model, mann::KernelGroup::SoftRead, "fuzz", emit);
    fc.sizes = {mat.cursor + kFuzzSlack, spad + kFuzzSlack,
                vec.cursor + kFuzzSlack, 2 * kFuzzStage + kFuzzSlack};
    return fc;
}

/** Time @p tile's program once, recording its ops raw or through every
 * tape pass, then compute the tape twice: every step replays the whole
 * tape, so a pass must hold from one step into the next. */
void
recordAndRun(DiffMemTile &tile, bool raw)
{
    ReplayTape tape;
    tape.startRecording(raw);
    tile.setReplayTape(&tape);
    ASSERT_EQ(tile.runUntilComm(), RunStatus::Done);
    tile.setReplayTape(nullptr);
    tape.finishRecording();
    for (int step = 0; step < 2; ++step)
        for (const ReplayOp &op : tape.ops())
            execTileOp(op, &tape);
}

TEST(ReplayFuzz, SweepProgramsMatchTheirRawOps)
{
    for (std::uint64_t seed = 1; seed <= kFuzzCases; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const FuzzCase fc = makeFuzzCase(seed);
        const arch::EnergyModel energy(fc.ac);
        DiffMemTile sealed(fc.ac, energy, 0, fc.sizes);
        DiffMemTile raw(fc.ac, energy, 0, fc.sizes);
        const Space spaces[] = {Space::MatBuf, Space::MatSpad,
                                Space::VecBuf, Space::VecSpad};
        Rng fill(seed ^ 0x5eed);
        for (const Space space : spaces) {
            std::vector<float> init(sealed.memory().words(space));
            for (auto &v : init)
                v = static_cast<float>(fill.uniform(-1.0, 1.0));
            sealed.memory().writeRange(space, 0, init);
            raw.memory().writeRange(space, 0, init);
        }
        const compiler::CompiledSegment &seg = fc.model.stepSegments[0];
        sealed.setProgram(&seg.tilePrograms[0], &seg.tileSweeps[0]);
        recordAndRun(sealed, false);
        raw.setProgram(&seg.tilePrograms[0]);
        recordAndRun(raw, true);
        // The staged blocks and the Vmm sweeps' stage words are what a
        // merged sweep no longer writes.
        for (const Space space : {Space::MatBuf, Space::VecBuf,
                                  Space::VecSpad}) {
            const auto words =
                static_cast<std::uint32_t>(sealed.memory().words(space));
            const std::uint32_t from =
                space == Space::VecSpad ? kFuzzStage : 0;
            const std::vector<float> x =
                sealed.memory().readRange(space, 0, words);
            const std::vector<float> y = raw.memory().readRange(space, 0, words);
            for (std::uint32_t i = from; i < words; ++i)
                ASSERT_EQ(std::memcmp(&x[i], &y[i], 4), 0)
                    << isa::toString(space) << " word " << i;
        }
    }
}

} // namespace
} // namespace manna::sim
