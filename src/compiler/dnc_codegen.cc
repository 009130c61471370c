#include "dnc_codegen.hh"

#include "common/logging.hh"
#include "compiler/codegen_util.hh"
#include "compiler/mapping.hh"

namespace manna::compiler
{

using isa::Opcode;
using isa::Operand;
using isa::Program;
using isa::Space;

namespace
{

/** Scalar slots for each read head's VecBuf scalar block. */
enum ReadSlot : std::uint32_t
{
    kRStrength = 0,
    kRFreeGate = 1,
    kRModes = 2, // 3 consecutive slots: backward, content, forward
    kRKeyNorm = 5,
    kRMax = 6,
    kRSum = 7,
    kRRecip = 8,
    kRTmp = 9,
    kReadSlots = 12,
};

/** Scalar slots for the write block. */
enum WriteSlot : std::uint32_t
{
    kWStrength = 0,
    kWAllocGate = 1,
    kWOneMinusAllocGate = 2,
    kWWriteGate = 3,
    kWKeyNorm = 4,
    kWMax = 5,
    kWSum = 6,
    kWRecip = 7,
    kWTmp = 8,
    kWSumW = 9,
    kWOneMinusSumW = 10,
    kWriteSlots = 16,
};

/** The DNC's own regions; the shared ones are KernelRoutines'. */
struct DncRegions
{
    // MatBuf.
    std::uint32_t link = 0;
    std::uint32_t ifaceW = 0;
    std::vector<std::uint32_t> readKey;
    std::uint32_t writeKey = 0;
    std::uint32_t eraseV = 0;
    std::uint32_t writeV = 0;
    std::vector<std::uint32_t> readPartial;

    // VecBuf.
    std::vector<std::uint32_t> readScalars;
    std::uint32_t writeScalars = 0;
    std::uint32_t usage = 0;
    std::uint32_t psi = 0;
    std::uint32_t allocLocal = 0;
    std::uint32_t contentW = 0;
    std::uint32_t writeW = 0;
    std::uint32_t fwdLocal = 0;
    std::vector<std::uint32_t> wReadLocal;
    std::vector<std::uint32_t> simDots; // Hr read keys + write key
    std::uint32_t wFull = 0;
    std::uint32_t omw = 0;
    std::uint32_t precedence = 0;
    std::uint32_t bwdPartial = 0;
    std::uint32_t usageFull = 0;
    std::vector<std::uint32_t> wPrevReadFull;
};

class DncGenerator : KernelRoutines
{
  public:
    DncGenerator(const mann::DncConfig &dc,
                 const arch::MannaConfig &ac)
        : KernelRoutines(ac, dc.memN, dc.memM, dc.hiddenDim(),
                         dc.similarityEpsilon),
          dc_(dc), hr_(dc.numReadHeads),
          ifaceDim_(static_cast<std::uint32_t>(dc.interfaceDim())),
          blockM_(static_cast<std::uint32_t>(
              ac.matrixBufferWidthWords)),
          ifaceRows_(partitionRows(ifaceDim_, tiles)),
          ifaceStarts_(startsOf(ifaceRows_))
    {
        computeLayout();
    }

    CompiledDnc generate();

  private:
    std::uint32_t blockNPadded(std::uint32_t rows) const
    {
        return chooseBlockN(ac, rows, true);
    }
    std::uint32_t blockNPlain(std::uint32_t rows) const
    {
        return chooseBlockN(ac, rows, false);
    }
    Operand rScalar(std::size_t h, std::uint32_t slot) const
    {
        return scalarOp(regions_.readScalars[h] + slot);
    }
    Operand wScalar(std::uint32_t slot) const
    {
        return scalarOp(regions_.writeScalars + slot);
    }

    void computeLayout();

    // Segment emitters.
    Program interfaceSegment(std::size_t tile) const;
    Program usageAllocationSegment(std::size_t tile) const;
    Program writeContentSegment(std::size_t tile) const;
    Program writeAddressingSegment(std::size_t tile) const;
    Program softWriteSegment(std::size_t tile) const;
    Program linkageSegment(std::size_t tile) const;
    Program readContentSegment(std::size_t tile) const;
    Program readAddressingSegment(std::size_t tile) const;
    Program softReadSegment(std::size_t tile) const;

    const mann::DncConfig &dc_;
    std::size_t hr_;
    std::uint32_t ifaceDim_;
    std::uint32_t blockM_;
    std::vector<std::uint32_t> ifaceRows_, ifaceStarts_;

    DncRegions regions_;
};

void
DncGenerator::computeLayout()
{
    RegionAlloc alloc; // MatBuf
    mem = alloc(nLocalMax * memM);
    regions_.link = alloc(nLocalMax * memN);
    regions_.ifaceW = alloc(ifaceRows_[0] * hiddenCols);
    raw = alloc(ifaceDim_);
    for (std::size_t h = 0; h < hr_; ++h)
        regions_.readKey.push_back(alloc(memM));
    regions_.writeKey = alloc(memM);
    regions_.eraseV = alloc(memM);
    regions_.writeV = alloc(memM);
    for (std::size_t h = 0; h < hr_; ++h)
        regions_.readPartial.push_back(alloc(memM));
    tmpM = alloc(memM);
    matBufWords = alloc.cursor;

    RegionAlloc vec; // VecBuf
    hidden = vec(hiddenCols);
    for (std::size_t h = 0; h < hr_; ++h)
        regions_.readScalars.push_back(vec(kReadSlots));
    regions_.writeScalars = vec(kWriteSlots);
    regions_.usage = vec(nLocalMax);
    regions_.psi = vec(nLocalMax);
    tmpN = vec(nLocalMax);
    tmpN2 = vec(nLocalMax);
    regions_.allocLocal = vec(nLocalMax);
    regions_.contentW = vec(nLocalMax);
    regions_.writeW = vec(nLocalMax);
    regions_.fwdLocal = vec(nLocalMax);
    for (std::size_t h = 0; h < hr_; ++h)
        regions_.wReadLocal.push_back(vec(nLocalMax));
    for (std::size_t k = 0; k <= hr_; ++k)
        regions_.simDots.push_back(vec(nLocalMax));
    simNorms = vec(nLocalMax);
    regions_.wFull = vec(memN);
    regions_.omw = vec(memN);
    regions_.precedence = vec(memN);
    regions_.bwdPartial = vec(memN);
    regions_.usageFull = vec(memN);
    for (std::size_t h = 0; h < hr_; ++h)
        regions_.wPrevReadFull.push_back(vec(memN));
    vecBufWords = vec.cursor;
}

Program
DncGenerator::interfaceSegment(std::size_t tile) const
{
    Program prog;
    emitHiddenIn(prog);
    // Interface projection: row slice of W_iface, row-dot.
    const std::uint32_t rowsT = ifaceRows_[tile];
    emitProjection(prog, regions_.ifaceW, ifaceDim_, rowsT,
                   ifaceStarts_[tile], blockNPadded(rowsT), blockM_);

    // Decode (replicated), matching mann::Dnc exactly.
    auto rawAt = [&](std::uint32_t off, std::uint32_t len) {
        return isa::makeOperand(Space::MatBuf, raw + off, len);
    };
    std::uint32_t off = 0;
    for (std::size_t h = 0; h < hr_; ++h) {
        prog.append(makeInst(
            Opcode::EwAddImm,
            isa::makeOperand(Space::MatBuf, regions_.readKey[h], memM),
            rawAt(off, memM)));
        off += memM;
        // strength = oneplus(raw).
        prog.append(makeInst(Opcode::SfuSoftplus,
                             rScalar(h, kRStrength), rawAt(off, 1)));
        prog.append(makeInst(Opcode::EwAddImm, rScalar(h, kRStrength),
                             rScalar(h, kRStrength), Operand{}, 1.0f));
        ++off;
        prog.append(makeInst(Opcode::SfuSigmoid,
                             rScalar(h, kRFreeGate), rawAt(off, 1)));
        ++off;
        // modes = softmax over 3 taps.
        const Operand modes = isa::makeOperand(
            Space::VecBuf, regions_.readScalars[h] + kRModes, 3);
        emitSmallSoftmax(prog, rawAt(off, 3), modes, modes,
                         rScalar(h, kRTmp), rScalar(h, kRSum),
                         rScalar(h, kRRecip));
        off += 3;
    }
    const auto matOp = [](std::uint32_t base, std::uint32_t len) {
        return isa::makeOperand(Space::MatBuf, base, len);
    };
    prog.append(makeInst(Opcode::EwAddImm, matOp(regions_.writeKey, memM),
                         rawAt(off, memM)));
    off += memM;
    prog.append(makeInst(Opcode::SfuSoftplus, wScalar(kWStrength),
                         rawAt(off, 1)));
    prog.append(makeInst(Opcode::EwAddImm, wScalar(kWStrength),
                         wScalar(kWStrength), Operand{}, 1.0f));
    ++off;
    prog.append(makeInst(Opcode::SfuSigmoid, matOp(regions_.eraseV, memM),
                         rawAt(off, memM)));
    off += memM;
    prog.append(makeInst(Opcode::SfuTanh, matOp(regions_.writeV, memM),
                         rawAt(off, memM)));
    off += memM;
    prog.append(makeInst(Opcode::SfuSigmoid, wScalar(kWAllocGate),
                         rawAt(off, 1)));
    prog.append(makeInst(Opcode::EwRsubImm,
                         wScalar(kWOneMinusAllocGate),
                         wScalar(kWAllocGate), Operand{}, 1.0f));
    ++off;
    prog.append(makeInst(Opcode::SfuSigmoid, wScalar(kWWriteGate),
                         rawAt(off, 1)));
    ++off;
    MANNA_ASSERT(off == ifaceDim_, "DNC decode consumed %u of %u", off,
                 ifaceDim_);
    return prog;
}

Program
DncGenerator::usageAllocationSegment(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);

    if (n > 0) {
        // psi = prod_h (1 - freeGate_h * wPrevRead_h) over the local
        // slice (wReadLocal holds the previous step's weights here).
        const Operand psi = vecOp(regions_.psi, n);
        const Operand tmp = vecOp(tmpN, n);
        prog.append(makeInst(Opcode::Fill, psi, Operand{}, Operand{},
                             1.0f));
        for (std::size_t h = 0; h < hr_; ++h) {
            prog.append(makeInst(Opcode::EwMul, tmp,
                                 vecOp(regions_.wReadLocal[h], n),
                                 rScalar(h, kRFreeGate)));
            prog.append(
                makeInst(Opcode::EwRsubImm, tmp, tmp, Operand{}, 1.0f));
            prog.append(makeInst(Opcode::EwMul, psi, psi, tmp));
        }
        // u = (u + w - u o w) o psi, with w = previous write weights.
        const Operand u = vecOp(regions_.usage, n);
        const Operand w = vecOp(regions_.writeW, n);
        prog.append(makeInst(Opcode::EwMul, tmp, u, w));
        prog.append(makeInst(Opcode::EwAdd, u, u, w));
        prog.append(makeInst(Opcode::EwSub, u, u, tmp));
        prog.append(makeInst(Opcode::EwMul, u, u, psi));
    }

    // Assemble usage at the root; the Controller tile applies the
    // free-list scan and the broadcast returns the allocation.
    emitVectorAssembly(prog, tile, regions_.usage, regions_.usageFull,
                       packCommTag(CommTag::UsageToAllocation));
    if (n > 0)
        prog.append(makeInst(
            Opcode::EwAddImm, vecOp(regions_.allocLocal, n),
            vecOp(regions_.usageFull + memStarts[tile], n)));
    return prog;
}

Program
DncGenerator::writeContentSegment(std::size_t tile) const
{
    Program prog;
    emitKeySimilarity(prog, tile, {regions_.writeKey},
                      {regions_.simDots[hr_]},
                      {regions_.writeScalars + kWKeyNorm},
                      blockNPadded(nLocal(tile)), blockM_);
    return prog;
}

Program
DncGenerator::writeAddressingSegment(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);

    emitContentSoftmax(prog, tile, regions_.simDots[hr_],
                       regions_.writeScalars, kWStrength, kWMax,
                       kWSum, kWRecip, regions_.contentW);
    if (n > 0) {
        // writeW = writeGate * (allocGate*alloc + (1-allocGate)*content)
        const Operand w = vecOp(regions_.writeW, n);
        prog.append(makeInst(Opcode::EwMul, w,
                             vecOp(regions_.allocLocal, n),
                             wScalar(kWAllocGate)));
        prog.append(makeInst(Opcode::EwMac, w,
                             vecOp(regions_.contentW, n),
                             wScalar(kWOneMinusAllocGate)));
        prog.append(makeInst(Opcode::EwMul, w, w, wScalar(kWWriteGate)));
        prog.append(makeInst(Opcode::SfuAccSum, wScalar(kWSumW), w));
    } else {
        prog.append(makeInst(Opcode::Fill, wScalar(kWSumW)));
    }
    emitReduceBroadcast(prog, wScalar(kWSumW));
    prog.append(makeInst(Opcode::EwRsubImm, wScalar(kWOneMinusSumW),
                         wScalar(kWSumW), Operand{}, 1.0f));

    // Full write weights on every tile (for the link update).
    emitVectorAssembly(prog, tile, regions_.writeW, regions_.wFull);
    return prog;
}

Program
DncGenerator::softWriteSegment(std::size_t tile) const
{
    Program prog;
    emitSoftWrite(prog, tile, regions_.writeW, regions_.eraseV,
                  regions_.writeV, blockNPlain(nLocal(tile)), blockM_);
    return prog;
}

Program
DncGenerator::linkageSegment(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);
    if (n == 0)
        return prog; // no comm in this segment

    // omw = 1 - wFull (replicated full-length).
    prog.append(makeInst(Opcode::EwRsubImm, vecOp(regions_.omw, memN),
                         vecOp(regions_.wFull, memN), Operand{}, 1.0f));

    // Link rows: L[i][j] = (omw[j] - w[i]) * L[i][j] + w[i] * p[j].
    const std::uint32_t bN = blockNPlain(n);
    const std::uint32_t rowStart = memStarts[tile];
    emitRowUpdateSweep(
        prog, regions_.link, n, memN, bN, blockM_,
        [&](Program &p, const SweepCtx &rc, const Operand &row,
            std::uint32_t colsB) {
            const Operand stage =
                isa::makeOperand(Space::VecSpad, stageRow, colsB);
            const Operand wRow = mk(Space::VecBuf, regions_.wFull + rowStart,
                                    1, rc, bN, 0, 1);
            p.append(makeInst(Opcode::EwSub, stage,
                              mk(Space::VecBuf, regions_.omw, colsB, rc,
                                 0, blockM_),
                              wRow));
            p.append(makeInst(Opcode::EwMul, row, row, stage));
            p.append(makeInst(Opcode::EwMac, row,
                              mk(Space::VecBuf, regions_.precedence,
                                 colsB, rc, 0, blockM_),
                              wRow));
        });

    // Zero the diagonal of the local rows: L[i][i] with global index
    // rowStart + r walks a stride of memN + 1.
    prog.beginLoop(n);
    prog.append(makeInst(
        Opcode::Fill,
        isa::makeStridedOperand(Space::MatBuf, regions_.link + rowStart,
                                1, static_cast<std::int32_t>(memN + 1))));
    prog.endLoop();

    // Precedence (replicated): p = (1 - sum(w)) p + wFull.
    const Operand p = vecOp(regions_.precedence, memN);
    prog.append(
        makeInst(Opcode::EwMul, p, p, wScalar(kWOneMinusSumW)));
    prog.append(
        makeInst(Opcode::EwAdd, p, p, vecOp(regions_.wFull, memN)));
    return prog;
}

Program
DncGenerator::readContentSegment(std::size_t tile) const
{
    Program prog;
    std::vector<std::uint32_t> slots;
    for (std::size_t h = 0; h < hr_; ++h)
        slots.push_back(regions_.readScalars[h] + kRKeyNorm);
    const std::vector<std::uint32_t> dots(
        regions_.simDots.begin(),
        regions_.simDots.begin() + static_cast<std::ptrdiff_t>(hr_));
    emitKeySimilarity(prog, tile, regions_.readKey, dots, slots,
                      blockNPadded(nLocal(tile)), blockM_);
    return prog;
}

Program
DncGenerator::readAddressingSegment(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);
    const std::uint32_t rowStart = memStarts[tile];

    for (std::size_t h = 0; h < hr_; ++h) {
        // Content weighting over the *updated* memory.
        emitContentSoftmax(prog, tile, regions_.simDots[h],
                           regions_.readScalars[h], kRStrength, kRMax,
                           kRSum, kRRecip, regions_.contentW);

        const std::uint32_t modesBase =
            regions_.readScalars[h] + kRModes;
        if (n > 0) {
            // forward[i] = dot(L[i], wPrev_h) : row-dot sweep over
            // the local link rows (transposed access, DMAT).
            prog.append(
                makeInst(Opcode::Fill, vecOp(regions_.fwdLocal, n)));
            emitRowDotSweep(prog, regions_.link, n, memN, blockNPadded(n),
                            blockM_,
                            {{Space::VecBuf, regions_.wPrevReadFull[h],
                              Space::VecBuf, regions_.fwdLocal}},
                            false);
        }

        // backward = L^T wPrev: column accumulation over local rows
        // into a full-length partial, then reduce + broadcast.
        const Operand bwd = vecOp(regions_.bwdPartial, memN);
        prog.append(makeInst(Opcode::Fill, bwd));
        if (n > 0)
            emitColumnSweep(prog, regions_.link, n, memN, blockNPlain(n),
                            blockM_, /*outerRows=*/false,
                            {{Space::VecBuf,
                              regions_.wPrevReadFull[h] + rowStart,
                              Space::VecBuf, regions_.bwdPartial}});
        emitReduceBroadcast(prog, bwd);

        if (n > 0) {
            // w = modes[backward]*bwd + modes[content]*content
            //   + modes[forward]*fwd, over the local slice.
            const Operand w = vecOp(regions_.wReadLocal[h], n);
            prog.append(makeInst(Opcode::EwMul, w,
                                 vecOp(regions_.bwdPartial + rowStart, n),
                                 scalarOp(modesBase + 0)));
            prog.append(makeInst(Opcode::EwMac, w,
                                 vecOp(regions_.contentW, n),
                                 scalarOp(modesBase + 1)));
            prog.append(makeInst(Opcode::EwMac, w,
                                 vecOp(regions_.fwdLocal, n),
                                 scalarOp(modesBase + 2)));
        }

        // Persist the full read weights for the next step's link
        // products.
        emitVectorAssembly(prog, tile, regions_.wReadLocal[h],
                           regions_.wPrevReadFull[h]);
    }
    return prog;
}

Program
DncGenerator::softReadSegment(std::size_t tile) const
{
    Program prog;
    emitSoftRead(prog, tile, regions_.wReadLocal, regions_.readPartial,
                 blockNPlain(nLocal(tile)), blockM_, /*outerRows=*/true);
    return prog;
}

CompiledDnc
DncGenerator::generate()
{
    CompiledDnc model;
    model.dncCfg = dc_;
    model.archCfg = ac;
    rejectMoreTilesThanRows();

    using G = mann::KernelGroup;
    addSegment(model, G::Heads, "interface",
               [this](std::size_t t) { return interfaceSegment(t); });
    addSegment(model, G::Addressing, "usage-allocation",
               [this](std::size_t t) { return usageAllocationSegment(t); });
    addSegment(model, G::KeySimilarity, "write-content",
               [this](std::size_t t) { return writeContentSegment(t); });
    addSegment(model, G::Addressing, "write-addressing",
               [this](std::size_t t) { return writeAddressingSegment(t); });
    addSegment(model, G::SoftWrite, "soft-write",
               [this](std::size_t t) { return softWriteSegment(t); });
    addSegment(model, G::Addressing, "linkage",
               [this](std::size_t t) { return linkageSegment(t); });
    addSegment(model, G::KeySimilarity, "read-content",
               [this](std::size_t t) { return readContentSegment(t); });
    addSegment(model, G::Addressing, "read-addressing",
               [this](std::size_t t) { return readAddressingSegment(t); });
    addSegment(model, G::SoftRead, "soft-read",
               [this](std::size_t t) { return softReadSegment(t); });

    DncLayout &layout = model.layout;
    layout.memory = {mem, memM, memStarts, memRows};
    layout.link = {regions_.link, memN, memStarts, memRows};
    layout.interfaceW = {regions_.ifaceW, hiddenCols, ifaceStarts_,
                         ifaceRows_};
    layout.usageBase = regions_.usage;
    layout.writeWBase = regions_.writeW;
    layout.precedenceBase = regions_.precedence;
    layout.wReadLocalBase = regions_.wReadLocal;
    layout.wPrevReadFullBase = regions_.wPrevReadFull;
    fillBufferWords(layout);

    checkCapacity(model, "DNC ", "(the N x N link matrix dominates)");
    return model;
}

} // namespace

CompiledDnc
compileDnc(const mann::DncConfig &dnc, const arch::MannaConfig &arch)
{
    dnc.validate();
    arch.validate();
    DncGenerator gen(dnc, arch);
    return gen.generate();
}

} // namespace manna::compiler
