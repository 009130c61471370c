/**
 * @file
 * Tape-pass tests on synthetic ReplayTapes: the row-update fusion
 * (soft-write quad, DNC link triple), staging elision and block ops.
 * Every case builds the same op list over two copies of one arena,
 * replays the optimised tape on one copy and the unfused ops on the
 * other, and requires the two to agree bit for bit everywhere but the
 * scratch rows (which an elided tape no longer writes).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "common/rng.hh"
#include "sim/replay.hh"

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

/**
 * Record @p build's ops over one arena copy into @p tape, run the
 * optimised tape there and the recorded ops unfused on a second copy,
 * two steps each, and compare everything up to the scratch rows.
 */
void
expectSameAsUnfused(const Builder &build, ReplayTape &tape)
{
    std::vector<float> init(kArena);
    Rng rng(17);
    for (auto &v : init)
        v = static_cast<float>(rng.uniform(-1.0, 1.0));
    std::vector<float> fused = init;
    std::vector<float> plain = init;

    tape.startRecording();
    for (const ReplayOp &op : build(fused.data()))
        tape.append(op);
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
        [](float *m) { return stagedGroup(m, false, m + kW, 1); },
        tape);
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
        [](float *m) { return stagedGroup(m, true, m + kW, 1); }, tape);
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
        [](float *m) { return stagedGroup(m, true, m + kW, 2); }, tape);
    // Still elided (no copies left), but one op per row.
    ASSERT_EQ(tape.ops().size(), kR);
    for (const ReplayOp &op : tape.ops()) {
        EXPECT_EQ(op.kind, ReplayKind::FusedLinkUpdate);
        EXPECT_EQ(op.rows, 1u);
    }
}

TEST(ReplayTape, GroupWhoseWOverlapsTheRowsStaysRowByRow)
{
    ReplayTape tape;
    // w lives in the first home row: updated in place, that row would
    // change before the later rows read their w.
    expectSameAsUnfused(
        [](float *m) { return stagedGroup(m, false, m + kHome, 1); },
        tape);
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
        tape);
    EXPECT_EQ(countKind(tape, ReplayKind::Copy2d), 2u);
    // The row updates still become one block op over the staged rows.
    EXPECT_EQ(countKind(tape, ReplayKind::FusedRowUpdate), 1u);
    EXPECT_EQ(tape.ops().size(), 4u);
}

TEST(ReplayTape, ReadGroupRetargetsVmmAtTheHomeRows)
{
    ReplayTape tape;
    expectSameAsUnfused(
        [](float *m) {
            Ops ops;
            ops.push_back(
                copyRows(m + kHome, kHomePitch, m + kStaged, kN));
            ReplayOp vmm;
            vmm.kind = ReplayKind::Vmm;
            vmm.flags = kReplayRowDot;
            vmm.n = kN;
            vmm.rows = kR;
            vmm.pitchA = kN;
            vmm.a = m + kSrc;
            vmm.b = m + kStaged;
            vmm.d = m + kOut;
            ops.push_back(vmm);
            return ops;
        },
        tape);
    ASSERT_EQ(tape.ops().size(), 1u);
    EXPECT_EQ(tape.ops()[0].kind, ReplayKind::Vmm);
    EXPECT_EQ(tape.ops()[0].pitchA, kHomePitch);
}

} // namespace
} // namespace manna::sim
