#include "codegen_util.hh"

#include "common/error.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/types.hh"
#include "compiler/mapping.hh"

namespace manna::compiler
{

using isa::Instruction;
using isa::Opcode;
using isa::Operand;
using isa::Program;
using isa::ReduceOp;
using isa::Space;

std::uint32_t
packCommTag(CommTag tag, std::uint32_t index)
{
    return static_cast<std::uint32_t>(tag) | (index << 8);
}

CommTag
commTagOf(std::uint32_t count)
{
    return static_cast<CommTag>(count & 0xffu);
}

std::uint32_t
commIndexOf(std::uint32_t count)
{
    return count >> 8;
}

std::size_t
CompiledProgram::maxProgramLength() const
{
    std::size_t mx = 0;
    for (const auto &seg : stepSegments)
        for (const auto &p : seg.tilePrograms)
            mx = std::max(mx, p.size());
    return mx;
}

std::string
CompiledProgram::disassembleTile(std::size_t tile) const
{
    std::string out;
    for (const auto &seg : stepSegments) {
        MANNA_ASSERT(tile < seg.tilePrograms.size(),
                     "tile %zu out of range", tile);
        out += strformat("; ---- segment %s (%s) ----\n",
                         seg.name.c_str(), mann::toString(seg.group));
        out += seg.tilePrograms[tile].disassemble();
    }
    return out;
}

std::vector<std::uint32_t>
partitionRows(std::uint32_t total, std::size_t tiles)
{
    const std::uint32_t chunk =
        static_cast<std::uint32_t>(ceilDiv(total, tiles));
    std::vector<std::uint32_t> counts(tiles, 0);
    std::uint32_t assigned = 0;
    for (std::size_t t = 0; t < tiles && assigned < total; ++t) {
        const std::uint32_t take =
            std::min<std::uint32_t>(chunk, total - assigned);
        counts[t] = take;
        assigned += take;
    }
    return counts;
}

std::vector<std::uint32_t>
startsOf(const std::vector<std::uint32_t> &counts)
{
    std::vector<std::uint32_t> starts(counts.size(), 0);
    std::uint32_t acc = 0;
    for (std::size_t t = 0; t < counts.size(); ++t) {
        starts[t] = acc;
        acc += counts[t];
    }
    return starts;
}

isa::Operand
mk(isa::Space space, std::uint64_t base, std::uint32_t len,
   const SweepCtx &c, std::int64_t strideRb, std::int64_t strideCg,
   std::int64_t strideRow)
{
    std::int64_t b = static_cast<std::int64_t>(base);
    if (c.rbLevel < 0)
        b += static_cast<std::int64_t>(c.rbFixed) * strideRb;
    if (c.cgLevel < 0)
        b += static_cast<std::int64_t>(c.cgFixed) * strideCg;
    MANNA_ASSERT(b >= 0, "operand base underflow");
    isa::Operand op = isa::makeOperand(
        space, static_cast<std::uint32_t>(b), len);
    if (c.rbLevel >= 0)
        op.stride[c.rbLevel] = static_cast<std::int32_t>(strideRb);
    if (c.cgLevel >= 0)
        op.stride[c.cgLevel] = static_cast<std::int32_t>(strideCg);
    if (c.rowLevel >= 0)
        op.stride[c.rowLevel] = static_cast<std::int32_t>(strideRow);
    return op;
}

void
emitBlockedSweep(isa::Program &prog, std::uint32_t rows,
                 std::uint32_t cols, std::uint32_t blockN,
                 std::uint32_t blockM, bool outerRows,
                 const SweepBody &body)
{
    MANNA_ASSERT(rows > 0 && cols > 0, "sweep over empty matrix");
    const std::uint32_t rbFull = rows / blockN;
    const std::uint32_t rbRem = rows % blockN;
    const std::uint32_t cgFull = cols / blockM;
    const std::uint32_t cgRem = cols % blockM;

    if (outerRows) {
        auto colPass = [&](SweepCtx ctx, std::uint32_t rowsB) {
            if (cgFull > 0) {
                prog.beginLoop(cgFull);
                SweepCtx c = ctx;
                c.cgLevel = c.depth++;
                body(prog, c, rowsB, blockM);
                prog.endLoop();
            }
            if (cgRem > 0) {
                SweepCtx c = ctx;
                c.cgFixed = cgFull;
                body(prog, c, rowsB, cgRem);
            }
        };
        if (rbFull > 0) {
            prog.beginLoop(rbFull);
            SweepCtx ctx;
            ctx.rbLevel = ctx.depth++;
            colPass(ctx, blockN);
            prog.endLoop();
        }
        if (rbRem > 0) {
            SweepCtx ctx;
            ctx.rbFixed = rbFull;
            colPass(ctx, rbRem);
        }
    } else {
        auto rowPass = [&](SweepCtx ctx, std::uint32_t colsB) {
            if (rbFull > 0) {
                prog.beginLoop(rbFull);
                SweepCtx c = ctx;
                c.rbLevel = c.depth++;
                body(prog, c, blockN, colsB);
                prog.endLoop();
            }
            if (rbRem > 0) {
                SweepCtx c = ctx;
                c.rbFixed = rbFull;
                body(prog, c, rbRem, colsB);
            }
        };
        if (cgFull > 0) {
            prog.beginLoop(cgFull);
            SweepCtx ctx;
            ctx.cgLevel = ctx.depth++;
            rowPass(ctx, blockM);
            prog.endLoop();
        }
        if (cgRem > 0) {
            SweepCtx ctx;
            ctx.cgFixed = cgFull;
            rowPass(ctx, cgRem);
        }
    }
}

isa::Instruction
makeInst(isa::Opcode op, isa::Operand dst, isa::Operand a,
         isa::Operand b, float imm)
{
    isa::Instruction inst;
    inst.op = op;
    inst.dst = dst;
    inst.srcA = a;
    inst.srcB = b;
    inst.imm = imm;
    return inst;
}

namespace
{

/** A matrix DMA of one rowsB-row block between a buffer (row pitch
 * @p pitch) and the Matrix-Scratchpad. */
Instruction
blockDma(Opcode op, Operand dst, Operand src, std::uint32_t pitch,
         std::uint32_t rowsB)
{
    Instruction dma = makeInst(op, dst, src);
    dma.srcB.base = pitch;
    dma.count = rowsB;
    return dma;
}

} // namespace

Operand
vecOp(std::uint32_t base, std::uint32_t len)
{
    return isa::makeOperand(Space::VecBuf, base, len);
}

Operand
scalarOp(std::uint32_t addr)
{
    return vecOp(addr, 1);
}

KernelRoutines::KernelRoutines(const arch::MannaConfig &arch,
                               std::size_t rows, std::size_t rowWords,
                               std::size_t hiddenDim,
                               float similarityEpsilon)
    : ac(arch), tiles(arch.numTiles),
      memN(static_cast<std::uint32_t>(rows)),
      memM(static_cast<std::uint32_t>(rowWords)),
      memRows(partitionRows(memN, tiles)), memStarts(startsOf(memRows)),
      nLocalMax(memRows.empty() ? 0 : memRows[0]),
      hiddenCols(static_cast<std::uint32_t>(hiddenDim) + 1),
      simEpsilon(similarityEpsilon)
{
    RegionAlloc alloc;
    const auto width =
        static_cast<std::uint32_t>(ac.matrixBufferWidthWords);
    stageVec = alloc(std::max<std::uint32_t>(
        width, chooseBlockN(ac, std::max(nLocalMax, 1u), false)));
    stageRow = alloc(width);
    vecSpadWords = alloc.cursor;
}

void
KernelRoutines::emitHiddenIn(Program &prog) const
{
    Instruction bc = makeInst(
        Opcode::Broadcast,
        isa::makeOperand(Space::VecBuf, hidden, hiddenCols));
    bc.count = packCommTag(CommTag::HiddenIn);
    prog.append(bc);
}

void
KernelRoutines::emitReduceBroadcast(Program &prog, Operand op,
                                    ReduceOp reduce) const
{
    Instruction red = makeInst(Opcode::Reduce, Operand{}, op);
    red.flags.reduceOp = reduce;
    prog.append(red);
    prog.append(makeInst(Opcode::Broadcast, op));
}

void
KernelRoutines::emitRowDotSweep(Program &prog, std::uint32_t matBase,
                                std::uint32_t rows, std::uint32_t cols,
                                std::uint32_t blockN,
                                std::uint32_t blockM,
                                const std::vector<SweepVec> &vecs,
                                bool withNorms) const
{
    const bool skew = ac.hasDmat;
    emitSweep(
        prog,
        {{SweepKind::RowDot, rows, cols, cols, blockN, blockM, true},
         matBase, vecs, withNorms, simNorms, stageVec},
        [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
            std::uint32_t colsB) {
            const Operand block = isa::makeOperand(
                Space::MatSpad, 0, rowsB * (colsB + (skew ? 1 : 0)));
            p.append(blockDma(
                skew ? Opcode::DmatLoadM : Opcode::DmaLoadM, block,
                mk(Space::MatBuf, matBase, rowsB * colsB, c,
                   static_cast<std::int64_t>(blockN) * cols, blockM),
                cols, rowsB));

            const Operand stage =
                isa::makeOperand(Space::VecSpad, stageVec, colsB);
            for (std::size_t k = 0; k < vecs.size(); ++k) {
                p.append(makeInst(Opcode::DmaLoadV, stage,
                                  mk(vecs[k].srcSpace, vecs[k].src,
                                     colsB, c, 0, blockM)));
                Instruction vmm = makeInst(
                    Opcode::Vmm,
                    mk(vecs[k].dstSpace, vecs[k].dst, rowsB, c, blockN,
                       0),
                    stage, block);
                vmm.flags.rowDot = true;
                vmm.flags.accumulate = true;
                vmm.flags.skewed = skew;
                vmm.flags.reuseB = k > 0;
                if (withNorms && k == 0) {
                    // Row norms do not depend on the vector.
                    vmm.flags.withNorms = true;
                    vmm.count = simNorms - vecs[0].dst;
                }
                p.append(vmm);
            }
        });
}

void
KernelRoutines::emitColumnSweep(Program &prog, std::uint32_t matBase,
                                std::uint32_t rows, std::uint32_t cols,
                                std::uint32_t blockN,
                                std::uint32_t blockM, bool outerRows,
                                const std::vector<SweepVec> &vecs) const
{
    emitSweep(
        prog,
        {{SweepKind::Column, rows, cols, cols, blockN, blockM, outerRows},
         matBase, vecs, false, 0, stageVec},
        [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
            std::uint32_t colsB) {
            const Operand block =
                isa::makeOperand(Space::MatSpad, 0, rowsB * colsB);
            p.append(blockDma(
                Opcode::DmaLoadM, block,
                mk(Space::MatBuf, matBase, rowsB * colsB, c,
                   static_cast<std::int64_t>(blockN) * cols, blockM),
                cols, rowsB));

            const Operand stage =
                isa::makeOperand(Space::VecSpad, stageVec, rowsB);
            for (std::size_t k = 0; k < vecs.size(); ++k) {
                p.append(makeInst(Opcode::DmaLoadV, stage,
                                  mk(vecs[k].srcSpace, vecs[k].src,
                                     rowsB, c, blockN, 0)));
                Instruction vmm = makeInst(
                    Opcode::Vmm,
                    mk(vecs[k].dstSpace, vecs[k].dst, colsB, c, 0,
                       blockM),
                    stage, block);
                vmm.flags.accumulate = true;
                vmm.flags.reuseB = k > 0;
                p.append(vmm);
            }
        });
}

void
KernelRoutines::emitRowUpdateSweep(Program &prog, std::uint32_t matBase,
                                   std::uint32_t rows,
                                   std::uint32_t cols,
                                   std::uint32_t blockN,
                                   std::uint32_t blockM,
                                   const RowUpdate &update) const
{
    emitSweep(
        prog,
        {{SweepKind::RowUpdate, rows, cols, cols, blockN, blockM, true},
         matBase, {}, false, 0, stageRow},
        [&](Program &p, SweepCtx &c, std::uint32_t rowsB,
            std::uint32_t colsB) {
            const Operand block =
                isa::makeOperand(Space::MatSpad, 0, rowsB * colsB);
            const Operand rowsInBuf =
                mk(Space::MatBuf, matBase, rowsB * colsB, c,
                   static_cast<std::int64_t>(blockN) * cols, blockM);
            p.append(
                blockDma(Opcode::DmaLoadM, block, rowsInBuf, cols, rowsB));

            p.beginLoop(rowsB);
            SweepCtx rc = c;
            rc.rowLevel = rc.depth++;
            update(p, rc, mk(Space::MatSpad, 0, colsB, rc, 0, 0, colsB),
                   colsB);
            p.endLoop();

            p.append(blockDma(Opcode::DmaStoreM, rowsInBuf, block, cols,
                              rowsB));
        });
}

void
KernelRoutines::emitSweep(Program &prog, SweepDesc desc,
                          const SweepBody &body) const
{
    desc.begin = prog.size();
    emitBlockedSweep(prog, desc.rows, desc.cols, desc.blockN, desc.blockM,
                     desc.outerRows, body);
    desc.end = prog.size();
    if (sweeps != nullptr)
        sweeps->push_back(std::move(desc));
}

void
KernelRoutines::emitProjection(Program &prog, std::uint32_t weights,
                               std::uint32_t dim, std::uint32_t rowsT,
                               std::uint32_t rowStart,
                               std::uint32_t blockN,
                               std::uint32_t blockM) const
{
    const Operand full = isa::makeOperand(Space::MatBuf, raw, dim);
    prog.append(makeInst(Opcode::Fill, full));
    if (rowsT > 0)
        emitRowDotSweep(prog, weights, rowsT, hiddenCols, blockN, blockM,
                        {{Space::VecBuf, hidden, Space::MatBuf,
                          raw + rowStart}},
                        false);
    emitReduceBroadcast(prog, full);
}

void
KernelRoutines::emitKeySimilarity(
    Program &prog, std::size_t tile, const std::vector<std::uint32_t> &keys,
    const std::vector<std::uint32_t> &dots,
    const std::vector<std::uint32_t> &normSlots, std::uint32_t blockN,
    std::uint32_t blockM) const
{
    const std::uint32_t n = nLocal(tile);
    if (n == 0)
        return; // no local rows: nothing to do, no comm either
    MANNA_ASSERT(keys.size() == dots.size() &&
                     keys.size() == normSlots.size() && !keys.empty(),
                 "key/dot/slot mismatch");
    const Operand tmpMOp = isa::makeOperand(Space::MatBuf, tmpM, memM);

    // Key norms (replicated): keyNorm = sqrt(sum(key^2)).
    std::vector<SweepVec> vecs;
    for (std::size_t k = 0; k < keys.size(); ++k) {
        const Operand key = isa::makeOperand(Space::MatBuf, keys[k], memM);
        prog.append(makeInst(Opcode::EwMul, tmpMOp, key, key));
        prog.append(
            makeInst(Opcode::SfuAccSum, scalarOp(normSlots[k]), tmpMOp));
        prog.append(makeInst(Opcode::SfuSqrt, scalarOp(normSlots[k]),
                             scalarOp(normSlots[k])));
        prog.append(makeInst(Opcode::Fill, vecOp(dots[k], n)));
        vecs.push_back({Space::MatBuf, keys[k], Space::VecBuf, dots[k]});
    }
    prog.append(makeInst(Opcode::Fill, vecOp(simNorms, n)));

    emitRowDotSweep(prog, mem, n, memM, blockN, blockM, vecs, true);

    // Cosine normalization: rowNorm = sqrt(norms), then per key
    // sim = dot / (keyNorm * rowNorm + eps)  (Eq. 4 with the golden
    // models' epsilon guard).
    prog.append(makeInst(Opcode::SfuSqrt, vecOp(tmpN, n), vecOp(simNorms, n)));
    for (std::size_t k = 0; k < keys.size(); ++k) {
        prog.append(makeInst(Opcode::EwMul, vecOp(tmpN2, n), vecOp(tmpN, n),
                             scalarOp(normSlots[k])));
        prog.append(makeInst(Opcode::EwAddImm, vecOp(tmpN2, n),
                             vecOp(tmpN2, n), Operand{}, simEpsilon));
        prog.append(
            makeInst(Opcode::SfuRecip, vecOp(tmpN2, n), vecOp(tmpN2, n)));
        prog.append(makeInst(Opcode::EwMul, vecOp(dots[k], n),
                             vecOp(dots[k], n), vecOp(tmpN2, n)));
    }
}

void
KernelRoutines::emitContentSoftmax(Program &prog, std::size_t tile,
                                   std::uint32_t sim,
                                   std::uint32_t scalars,
                                   std::uint32_t strengthSlot,
                                   std::uint32_t maxSlot,
                                   std::uint32_t sumSlot,
                                   std::uint32_t recipSlot,
                                   std::uint32_t dst) const
{
    const std::uint32_t n = nLocal(tile);
    const Operand work =
        isa::makeOperand(Space::VecBuf, tmpN, std::max(n, 1u));
    const Operand max = scalarOp(scalars + maxSlot);
    const Operand sum = scalarOp(scalars + sumSlot);
    const Operand recip = scalarOp(scalars + recipSlot);
    if (n > 0) {
        prog.append(makeInst(Opcode::EwMul, work,
                             isa::makeOperand(Space::VecBuf, sim, n),
                             scalarOp(scalars + strengthSlot)));
        prog.append(makeInst(Opcode::SfuAccMax, max, work));
    } else {
        prog.append(
            makeInst(Opcode::Fill, max, Operand{}, Operand{}, -3.0e38f));
    }
    emitReduceBroadcast(prog, max, ReduceOp::Max);
    if (n > 0) {
        prog.append(makeInst(Opcode::EwSub, work, work, max));
        prog.append(makeInst(Opcode::SfuExp, work, work));
        prog.append(makeInst(Opcode::SfuAccSum, sum, work));
    } else {
        prog.append(makeInst(Opcode::Fill, sum));
    }
    emitReduceBroadcast(prog, sum);
    prog.append(makeInst(Opcode::SfuRecip, recip, sum));
    if (n > 0)
        prog.append(makeInst(Opcode::EwMul,
                             isa::makeOperand(Space::VecBuf, dst, n), work,
                             recip));
}

void
KernelRoutines::emitSmallSoftmax(Program &prog, Operand src, Operand work,
                                 Operand dst, Operand max, Operand sum,
                                 Operand recip) const
{
    prog.append(makeInst(Opcode::SfuAccMax, max, src));
    prog.append(makeInst(Opcode::EwSub, work, src, max));
    prog.append(makeInst(Opcode::SfuExp, work, work));
    prog.append(makeInst(Opcode::SfuAccSum, sum, work));
    prog.append(makeInst(Opcode::SfuRecip, recip, sum));
    prog.append(makeInst(Opcode::EwMul, dst, work, recip));
}

void
KernelRoutines::emitSoftRead(Program &prog, std::size_t tile,
                             const std::vector<std::uint32_t> &weights,
                             const std::vector<std::uint32_t> &partials,
                             std::uint32_t blockN, std::uint32_t blockM,
                             bool outerRows) const
{
    std::vector<SweepVec> vecs;
    for (std::size_t h = 0; h < weights.size(); ++h) {
        prog.append(makeInst(
            Opcode::Fill,
            isa::makeOperand(Space::MatBuf, partials[h], memM)));
        vecs.push_back(
            {Space::VecBuf, weights[h], Space::MatBuf, partials[h]});
    }
    const std::uint32_t n = nLocal(tile);
    if (n > 0)
        emitColumnSweep(prog, mem, n, memM, blockN, blockM, outerRows,
                        vecs);

    // Final read vectors reduce to the Controller tile at the root.
    for (std::size_t h = 0; h < partials.size(); ++h) {
        Instruction red = makeInst(
            Opcode::Reduce, Operand{},
            isa::makeOperand(Space::MatBuf, partials[h], memM));
        red.count = packCommTag(CommTag::ReadVectorOut,
                                static_cast<std::uint32_t>(h));
        prog.append(red);
    }
}

void
KernelRoutines::emitSoftWrite(Program &prog, std::size_t tile,
                              std::uint32_t weights, std::uint32_t erase,
                              std::uint32_t add, std::uint32_t blockN,
                              std::uint32_t blockM) const
{
    const std::uint32_t n = nLocal(tile);
    if (n == 0)
        return;
    emitRowUpdateSweep(
        prog, mem, n, memM, blockN, blockM,
        [&](Program &p, const SweepCtx &rc, const Operand &row,
            std::uint32_t colsB) {
            const Operand stage =
                isa::makeOperand(Space::VecSpad, stageRow, colsB);
            const Operand w =
                mk(Space::VecBuf, weights, 1, rc, blockN, 0, 1);
            p.append(makeInst(
                Opcode::EwMul, stage,
                mk(Space::MatBuf, erase, colsB, rc, 0, blockM), w));
            p.append(makeInst(Opcode::EwRsubImm, stage, stage,
                              Operand{}, 1.0f));
            p.append(makeInst(Opcode::EwMul, row, row, stage));
            p.append(makeInst(
                Opcode::EwMac, row,
                mk(Space::MatBuf, add, colsB, rc, 0, blockM), w));
        });
}

void
KernelRoutines::emitVectorAssembly(Program &prog, std::size_t tile,
                                   std::uint32_t local,
                                   std::uint32_t full,
                                   std::uint32_t reduceTag) const
{
    const std::uint32_t n = nLocal(tile);
    const Operand fullOp = isa::makeOperand(Space::VecBuf, full, memN);
    prog.append(makeInst(Opcode::Fill, fullOp));
    if (n > 0)
        prog.append(makeInst(
            Opcode::EwAddImm,
            isa::makeOperand(Space::VecBuf, full + memStarts[tile], n),
            isa::makeOperand(Space::VecBuf, local, n)));
    Instruction red = makeInst(Opcode::Reduce, Operand{}, fullOp);
    red.count = reduceTag;
    prog.append(red);
    prog.append(makeInst(Opcode::Broadcast, fullOp));
}

void
KernelRoutines::rejectMoreTilesThanRows() const
{
    if (memN < tiles)
        throw AssemblyError(
            strformat("more tiles (%zu) than memory rows (%u) is "
                      "unsupported",
                      tiles, memN),
            ErrorContext{ac.fingerprint(), ""});
}

void
KernelRoutines::addSegment(
    CompiledProgram &model, mann::KernelGroup group, const char *name,
    const std::function<Program(std::size_t)> &emit) const
{
    CompiledSegment seg;
    seg.group = group;
    seg.name = name;
    // The routines describe their sweeps only while a program is
    // emitted here.
    struct Undescribe
    {
        const KernelRoutines &k;
        ~Undescribe() { k.sweeps = nullptr; }
    } undescribe{*this};
    for (std::size_t t = 0; t < tiles; ++t) {
        std::vector<SweepDesc> described;
        sweeps = &described;
        Program p = emit(t);
        const std::string err = p.validate();
        if (!err.empty())
            throw AssemblyError(
                strformat("segment %s tile %zu: %s", name, t,
                          err.c_str()),
                ErrorContext{ac.fingerprint(), ""});
        seg.tilePrograms.push_back(std::move(p));
        seg.tileSweeps.push_back(std::move(described));
    }
    model.stepSegments.push_back(std::move(seg));
}

void
KernelRoutines::fillBufferWords(BufferWords &out) const
{
    out.matBufWords = matBufWords;
    out.matSpadWords = ac.matrixScratchpadBytes / kWordBytes;
    out.vecBufWords = vecBufWords;
    out.vecSpadWords = std::max<std::size_t>(
        vecSpadWords, ac.vectorScratchpadBytes / kWordBytes);
}

void
KernelRoutines::checkCapacity(CompiledProgram &model, const char *label,
                              const std::string &matBufNote) const
{
    const std::size_t matBufCap = ac.matrixBufferBytes / kWordBytes;
    const std::size_t vecBufCap = ac.vectorBufferBytes / kWordBytes;
    if (matBufWords > matBufCap)
        model.warnings.push_back(strformat(
            "%sMatrix-Buffer layout needs %u words but capacity is %zu "
            "%s",
            label, matBufWords, matBufCap, matBufNote.c_str()));
    if (vecBufWords > vecBufCap)
        model.warnings.push_back(strformat(
            "%sVector-Buffer layout needs %u words but capacity is %zu",
            label, vecBufWords, vecBufCap));
    const std::size_t maxLen = model.maxProgramLength();
    if (maxLen > ac.instMemEntries)
        model.warnings.push_back(strformat(
            "largest tile program (%zu instructions) exceeds the "
            "instruction memory (%zu entries)",
            maxLen, ac.instMemEntries));
    if (ac.strictCapacity && !model.warnings.empty())
        throw AssemblyError(strformat("capacity violation: %s",
                                      model.warnings[0].c_str()),
                            ErrorContext{ac.fingerprint(), ""});
}

} // namespace manna::compiler
