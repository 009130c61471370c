#include "codegen.hh"

#include "common/error.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "compiler/codegen_util.hh"

namespace manna::compiler
{

using isa::Opcode;
using isa::Operand;
using isa::Program;
using isa::Space;

namespace
{

/** The NTM's own regions; the shared ones are KernelRoutines'. */
struct Regions
{
    // MatBuf (word addresses).
    std::vector<std::uint32_t> headW;       // per head
    std::vector<std::uint32_t> key;         // per head
    std::vector<std::uint32_t> erase;       // per write head
    std::vector<std::uint32_t> addv;        // per write head
    std::vector<std::uint32_t> readPartial; // per read head

    // VecBuf.
    std::vector<std::uint32_t> scalars; // per head (kScalarSlots each)
    std::vector<std::uint32_t> shift;   // per head (taps)
    std::uint32_t shiftRaw = 0;
    std::vector<std::uint32_t> wPrev; // per head (nLocalMax)
    std::vector<std::uint32_t> wCur;  // per head
    std::vector<std::uint32_t> simDots; // per head
    std::uint32_t wgExt = 0;
    std::uint32_t boundary = 0;
};

/**
 * The generator: holds the NTM's shapes, its layout and the per-kernel
 * mappings, and emits each segment for each tile with the shared
 * kernel routines.
 */
class Generator : KernelRoutines
{
  public:
    Generator(const mann::MannConfig &mc, const arch::MannaConfig &ac,
              const Mapping &mapping)
        : KernelRoutines(ac, mc.memN, mc.memM, mc.hiddenDim(),
                         mc.similarityEpsilon),
          mc_(mc), mapping_(mapping),
          taps_(static_cast<std::uint32_t>(mc.shiftTaps())),
          radius_(static_cast<std::uint32_t>(mc.shiftRadius)),
          numHeads_(mc.numReadHeads + mc.numWriteHeads)
    {
        for (std::size_t h = 0; h < numHeads_; ++h) {
            const std::uint32_t dim =
                static_cast<std::uint32_t>(paramDim(h));
            headRows_.push_back(partitionRows(dim, tiles));
            headStarts_.push_back(startsOf(headRows_.back()));
        }
        computeLayout();
    }

    CompiledModel generate();

  private:
    bool isWriteHead(std::size_t h) const
    {
        return h >= mc_.numReadHeads;
    }
    std::size_t paramDim(std::size_t h) const
    {
        return isWriteHead(h) ? mc_.writeHeadParamDim()
                              : mc_.readHeadParamDim();
    }

    void computeLayout();

    // Segment emitters (one tile each).
    Program headsSegment(std::size_t tile) const;
    Program keySimilaritySegment(std::size_t tile) const;
    Program addressingSegment(std::size_t tile) const;
    Program softReadSegment(std::size_t tile) const;
    Program softWriteSegment(std::size_t tile) const;

    Operand headScalar(std::size_t h, std::uint32_t slot) const
    {
        return scalarOp(regions_.scalars[h] + slot);
    }

    const mann::MannConfig &mc_;
    const Mapping &mapping_;
    std::uint32_t taps_;
    std::uint32_t radius_;
    std::size_t numHeads_;

    std::vector<std::vector<std::uint32_t>> headRows_, headStarts_;

    Regions regions_;
};

void
Generator::computeLayout()
{
    RegionAlloc alloc; // MatBuf
    mem = alloc(nLocalMax * memM);
    std::uint32_t maxParamDim = 0;
    for (std::size_t h = 0; h < numHeads_; ++h) {
        regions_.headW.push_back(alloc(headRows_[h][0] * hiddenCols));
        maxParamDim = std::max(
            maxParamDim, static_cast<std::uint32_t>(paramDim(h)));
    }
    raw = alloc(maxParamDim);
    for (std::size_t h = 0; h < numHeads_; ++h)
        regions_.key.push_back(alloc(memM));
    for (std::size_t h = 0; h < mc_.numWriteHeads; ++h) {
        regions_.erase.push_back(alloc(memM));
        regions_.addv.push_back(alloc(memM));
    }
    for (std::size_t h = 0; h < mc_.numReadHeads; ++h)
        regions_.readPartial.push_back(alloc(memM));
    tmpM = alloc(memM);
    matBufWords = alloc.cursor;

    RegionAlloc vec; // VecBuf
    hidden = vec(hiddenCols); // hidden + constant-one lane
    for (std::size_t h = 0; h < numHeads_; ++h)
        regions_.scalars.push_back(vec(kScalarSlots));
    for (std::size_t h = 0; h < numHeads_; ++h)
        regions_.shift.push_back(vec(taps_));
    regions_.shiftRaw = vec(taps_);
    for (std::size_t h = 0; h < numHeads_; ++h) {
        regions_.wPrev.push_back(vec(nLocalMax));
        regions_.wCur.push_back(vec(nLocalMax));
        regions_.simDots.push_back(vec(nLocalMax));
    }
    simNorms = vec(nLocalMax);
    tmpN = vec(nLocalMax);
    tmpN2 = vec(nLocalMax);
    regions_.wgExt = vec(nLocalMax + 2 * radius_);
    regions_.boundary = vec(static_cast<std::uint32_t>(tiles) * 2 * radius_);
    vecBufWords = vec.cursor;
}

Program
Generator::headsSegment(std::size_t tile) const
{
    Program prog;
    const KernelMapping &km = mapping_.forKernel(mann::Kernel::Heads);
    emitHiddenIn(prog);

    for (std::size_t h = 0; h < numHeads_; ++h) {
        const std::uint32_t dim =
            static_cast<std::uint32_t>(paramDim(h));
        // This tile's slice of the raw projection W_h * hidden,
        // assembled into the full raw vector on every tile.
        emitProjection(prog, regions_.headW[h], dim, headRows_[h][tile],
                       headStarts_[h][tile], km.blockN, km.blockM);

        // Decode (replicated on every tile; each tile needs the full
        // decoded parameters since it holds full memory rows).
        auto rawAt = [&](std::uint32_t off, std::uint32_t len) {
            return isa::makeOperand(Space::MatBuf, raw + off, len);
        };
        // key (no squashing in the reference NTM).
        prog.append(makeInst(
            Opcode::EwAddImm,
            isa::makeOperand(Space::MatBuf, regions_.key[h], memM),
            rawAt(0, memM)));
        std::uint32_t off = memM;
        prog.append(makeInst(Opcode::SfuSoftplus,
                             headScalar(h, kSlotBeta), rawAt(off, 1)));
        ++off;
        prog.append(makeInst(Opcode::SfuSigmoid,
                             headScalar(h, kSlotGate), rawAt(off, 1)));
        prog.append(makeInst(Opcode::EwRsubImm,
                             headScalar(h, kSlotOneMinusGate),
                             headScalar(h, kSlotGate), Operand{},
                             1.0f));
        ++off;
        emitSmallSoftmax(
            prog, rawAt(off, taps_),
            isa::makeOperand(Space::VecBuf, regions_.shiftRaw, taps_),
            isa::makeOperand(Space::VecBuf, regions_.shift[h], taps_),
            headScalar(h, kSlotTmp), headScalar(h, kSlotSum),
            headScalar(h, kSlotRecip));
        off += taps_;
        prog.append(makeInst(Opcode::SfuSoftplus,
                             headScalar(h, kSlotTmp), rawAt(off, 1)));
        prog.append(makeInst(Opcode::EwAddImm,
                             headScalar(h, kSlotGamma),
                             headScalar(h, kSlotTmp), Operand{}, 1.0f));
        ++off;
        if (isWriteHead(h)) {
            const std::size_t hw = h - mc_.numReadHeads;
            prog.append(makeInst(
                Opcode::SfuSigmoid,
                isa::makeOperand(Space::MatBuf, regions_.erase[hw],
                                 memM),
                rawAt(off, memM)));
            off += memM;
            prog.append(makeInst(
                Opcode::SfuTanh,
                isa::makeOperand(Space::MatBuf, regions_.addv[hw],
                                 memM),
                rawAt(off, memM)));
            off += memM;
        }
        MANNA_ASSERT(off == dim, "head %zu decode consumed %u of %u", h,
                     off, dim);
    }
    return prog;
}

Program
Generator::keySimilaritySegment(std::size_t tile) const
{
    // One streaming sweep over the local memory slice; the block is
    // loaded once and reused by every head (RF-held partials).
    Program prog;
    const KernelMapping &km =
        mapping_.forKernel(mann::Kernel::KeySimilarity);
    std::vector<std::uint32_t> normSlots;
    for (std::size_t h = 0; h < numHeads_; ++h)
        normSlots.push_back(regions_.scalars[h] + kSlotKeyNorm);
    emitKeySimilarity(prog, tile, regions_.key, regions_.simDots,
                      normSlots, km.blockN, km.blockM);
    return prog;
}

Program
Generator::addressingSegment(std::size_t tile) const
{
    Program prog;
    const std::uint32_t n = nLocal(tile);
    const std::uint32_t boundaryLen =
        static_cast<std::uint32_t>(tiles) * 2 * radius_;

    for (std::size_t h = 0; h < numHeads_; ++h) {
        // ---- content weighting (Eq. 5, stable softmax); wc stays in
        // tmpN ----
        emitContentSoftmax(prog, tile, regions_.simDots[h],
                           regions_.scalars[h], kSlotBeta, kSlotMax,
                           kSlotSum, kSlotRecip, tmpN);
        if (n > 0) {
            // ---- interpolation (Eq. 6) into tmpN2 ----
            prog.append(makeInst(Opcode::EwMul, vecOp(tmpN2, n),
                                 vecOp(tmpN, n), headScalar(h, kSlotGate)));
            prog.append(makeInst(Opcode::EwMac, vecOp(tmpN2, n),
                                 vecOp(regions_.wPrev[h], n),
                                 headScalar(h, kSlotOneMinusGate)));
        }

        // ---- shift (Eq. 7): halo exchange then local circular
        // convolution ----
        prog.append(
            makeInst(Opcode::Fill, vecOp(regions_.boundary, boundaryLen)));
        if (n > 0) {
            const std::uint32_t myBase =
                regions_.boundary +
                static_cast<std::uint32_t>(tile) * 2 * radius_;
            prog.append(makeInst(Opcode::EwAddImm, vecOp(myBase, radius_),
                                 vecOp(tmpN2, radius_)));
            prog.append(makeInst(Opcode::EwAddImm,
                                 vecOp(myBase + radius_, radius_),
                                 vecOp(tmpN2 + n - radius_, radius_)));
        }
        emitReduceBroadcast(prog, vecOp(regions_.boundary, boundaryLen));
        if (n > 0) {
            // Circular neighbours skip tiles that hold no memory
            // rows (possible when memN is not divisible by the tile
            // count): their boundary slots are always zero.
            auto prevWithRows = [&](std::size_t t) {
                do {
                    t = (t + tiles - 1) % tiles;
                } while (memRows[t] == 0);
                return t;
            };
            auto nextWithRows = [&](std::size_t t) {
                do {
                    t = (t + 1) % tiles;
                } while (memRows[t] == 0);
                return t;
            };
            const auto prev =
                static_cast<std::uint32_t>(prevWithRows(tile));
            const auto next =
                static_cast<std::uint32_t>(nextWithRows(tile));
            // wgExt = [left halo | wg | right halo].
            const std::uint32_t wgExt = regions_.wgExt;
            prog.append(makeInst(Opcode::EwAddImm,
                                 vecOp(wgExt + radius_, n), vecOp(tmpN2, n)));
            prog.append(makeInst(
                Opcode::EwAddImm, vecOp(wgExt, radius_),
                vecOp(regions_.boundary + prev * 2 * radius_ + radius_,
                    radius_)));
            prog.append(makeInst(
                Opcode::EwAddImm, vecOp(wgExt + radius_ + n, radius_),
                vecOp(regions_.boundary + next * 2 * radius_, radius_)));
            // ws into tmpN: ws(i) = sum_off wg(i - off) * s(off).
            prog.append(makeInst(Opcode::Fill, vecOp(tmpN, n)));
            for (std::uint32_t tap = 0; tap < taps_; ++tap)
                prog.append(makeInst(
                    Opcode::EwMac, vecOp(tmpN, n),
                    vecOp(wgExt + 2 * radius_ - tap, n),
                    scalarOp(regions_.shift[h] + tap)));

            // ---- sharpening (Eq. 8) ----
            prog.append(makeInst(Opcode::SfuPow, vecOp(tmpN2, n),
                                 vecOp(tmpN, n), headScalar(h, kSlotGamma)));
            prog.append(makeInst(Opcode::SfuAccSum,
                                 headScalar(h, kSlotSum), vecOp(tmpN2, n)));
        } else {
            prog.append(makeInst(Opcode::Fill, headScalar(h, kSlotSum)));
        }
        emitReduceBroadcast(prog, headScalar(h, kSlotSum));
        prog.append(makeInst(Opcode::SfuRecip, headScalar(h, kSlotRecip),
                             headScalar(h, kSlotSum)));
        if (n > 0) {
            prog.append(makeInst(Opcode::EwMul, vecOp(regions_.wCur[h], n),
                                 vecOp(tmpN2, n),
                                 headScalar(h, kSlotRecip)));
            // Persist w for the next step's interpolation.
            prog.append(makeInst(Opcode::EwAddImm,
                                 vecOp(regions_.wPrev[h], n),
                                 vecOp(regions_.wCur[h], n)));
        }
    }
    return prog;
}

Program
Generator::softReadSegment(std::size_t tile) const
{
    // The block-loop ordering comes from the mapping phase: output
    // stationary keeps a column group's partials resident while row
    // blocks stream (outer loop over columns).
    Program prog;
    const KernelMapping &km = mapping_.forKernel(mann::Kernel::SoftRead);
    const std::vector<std::uint32_t> readW(
        regions_.wCur.begin(),
        regions_.wCur.begin() +
            static_cast<std::ptrdiff_t>(mc_.numReadHeads));
    emitSoftRead(prog, tile, readW, regions_.readPartial, km.blockN,
                 km.blockM, km.blockLoop == LoopOrder::InputStationary);
    return prog;
}

Program
Generator::softWriteSegment(std::size_t tile) const
{
    Program prog;
    const KernelMapping &km =
        mapping_.forKernel(mann::Kernel::SoftWrite);
    for (std::size_t hw = 0; hw < mc_.numWriteHeads; ++hw)
        emitSoftWrite(prog, tile, regions_.wCur[mc_.numReadHeads + hw],
                      regions_.erase[hw], regions_.addv[hw], km.blockN,
                      km.blockM);
    return prog;
}

CompiledModel
Generator::generate()
{
    CompiledModel model;
    model.mannCfg = mc_;
    model.archCfg = ac;
    model.mapping = mapping_;

    // Guard configurations the distribution cannot express. These are
    // structural (shape x microarchitecture) rejections, so they throw
    // AssemblyError and the sweep isolates the offending point.
    for (std::size_t t = 0; t < tiles; ++t) {
        if (memRows[t] > 0 && memRows[t] < radius_)
            throw AssemblyError(
                strformat("tile %zu holds %u memory rows, below the "
                          "shift radius %u; reduce the tile count",
                          t, memRows[t], radius_),
                ErrorContext{ac.fingerprint(), ""});
    }
    rejectMoreTilesThanRows();

    using G = mann::KernelGroup;
    addSegment(model, G::Heads, "heads",
               [this](std::size_t t) { return headsSegment(t); });
    addSegment(model, G::KeySimilarity, "key-similarity",
               [this](std::size_t t) { return keySimilaritySegment(t); });
    addSegment(model, G::Addressing, "addressing",
               [this](std::size_t t) { return addressingSegment(t); });
    addSegment(model, G::SoftRead, "soft-read",
               [this](std::size_t t) { return softReadSegment(t); });
    addSegment(model, G::SoftWrite, "soft-write",
               [this](std::size_t t) { return softWriteSegment(t); });

    // Chip-facing layout.
    ChipLayout &layout = model.layout;
    layout.memory = {mem, memM, memStarts, memRows};
    for (std::size_t h = 0; h < numHeads_; ++h)
        layout.headWeights.push_back(
            {regions_.headW[h], hiddenCols, headStarts_[h], headRows_[h]});
    layout.wPrevBase = regions_.wPrev;
    fillBufferWords(layout);

    checkCapacity(
        model, "",
        strformat("(%.1fx over); modelling as if capacity were "
                  "sufficient",
                  static_cast<double>(matBufWords) /
                      static_cast<double>(ac.matrixBufferBytes /
                                          kWordBytes)));
    return model;
}

} // namespace

CompiledModel
generateCode(const mann::MannConfig &mann,
             const arch::MannaConfig &arch, const Mapping &mapping)
{
    Generator gen(mann, arch, mapping);
    return gen.generate();
}

} // namespace manna::compiler
