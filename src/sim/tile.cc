#include "tile.hh"

#include <algorithm>
#include <iterator>
#include <limits>

#include "common/logging.hh"

namespace manna::sim
{

using isa::Instruction;
using isa::Opcode;
using isa::Operand;
using isa::Space;

namespace
{

/** Registry keys, indexed by TileCounter: the base counters, then the
 * stall counters engine-major (TraceLane order) x reason-minor
 * (StallReason order). */
constexpr const char *kCounterNames[] = {
    "emac.busy_cycles",     "emac.mac_ops",
    "emac.elwise_ops",      "sfu.busy_cycles",
    "sfu.ops",              "mat_dma.busy_cycles",
    "mat_dma.words",        "vec_dma.busy_cycles",
    "vec_dma.words",        "dmat.loads",
    "dmat.transfer_cycles", "spad.conflict_free_words",
    "spad.conflict_words",  "instructions",
    "comm_instructions",
    "emac.stall.issue", "emac.stall.ctrl", "emac.stall.fence",
    "emac.stall.drain", "emac.stall.dma", "emac.stall.compute",
    "emac.stall.sfu_serial", "emac.stall.bank_conflict",
    "sfu.stall.issue", "sfu.stall.ctrl", "sfu.stall.fence",
    "sfu.stall.drain", "sfu.stall.dma", "sfu.stall.compute",
    "sfu.stall.sfu_serial", "sfu.stall.bank_conflict",
    "mat_dma.stall.issue", "mat_dma.stall.ctrl",
    "mat_dma.stall.fence", "mat_dma.stall.drain",
    "mat_dma.stall.dma", "mat_dma.stall.compute",
    "mat_dma.stall.sfu_serial", "mat_dma.stall.bank_conflict",
    "vec_dma.stall.issue", "vec_dma.stall.ctrl",
    "vec_dma.stall.fence", "vec_dma.stall.drain",
    "vec_dma.stall.dma", "vec_dma.stall.compute",
    "vec_dma.stall.sfu_serial", "vec_dma.stall.bank_conflict",
};
static_assert(std::size(kCounterNames) == kNumTileCounters,
              "one name per TileCounter");

/** LoopShape value of a dependency time that can no longer matter. */
constexpr std::int64_t kDead = std::numeric_limits<std::int64_t>::min();

// Bounds of the fast-forward logs (LoopRecords): the open loops run
// literally from where their records outgrow them.
constexpr std::size_t kMaxLoggedOps = std::size_t{1} << 15;
constexpr std::size_t kMaxLoggedCharges = std::size_t{1} << 17;

/** MannaConfig's per-element SFU cycles, indexed by isa::SfuCost. */
constexpr std::size_t arch::MannaConfig::*kSfuCycles[] = {
    nullptr,
    &arch::MannaConfig::sfuExpCycles,
    &arch::MannaConfig::sfuPowCycles,
    &arch::MannaConfig::sfuDivCycles,
    &arch::MannaConfig::sfuSqrtCycles,
    &arch::MannaConfig::sfuAccCycles,
};
static_assert(std::size(kSfuCycles) ==
              static_cast<std::size_t>(isa::SfuCost::Acc) + 1);

std::uintptr_t
wordOf(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p);
}

/** The isa::Instruction operand of each DecodedInst operand index. */
constexpr Operand Instruction::*kOperands[] = {
    &Instruction::srcA, &Instruction::srcB, &Instruction::dst};

/** Energy event for accessing a space. */
arch::EnergyEvent
accessEvent(Space space)
{
    static constexpr arch::EnergyEvent kEvents[] = {
        arch::EnergyEvent::MatrixBufferAccess,
        arch::EnergyEvent::MatrixScratchpadAccess,
        arch::EnergyEvent::VectorBufferAccess,
        arch::EnergyEvent::VectorScratchpadAccess};
    MANNA_ASSERT(space != Space::None, "accessEvent on invalid space");
    return kEvents[static_cast<std::size_t>(space) - 1];
}

DecodedInst
decodeInst(const Instruction &inst, const arch::MannaConfig &cfg)
{
    DecodedInst di;
    di.inst = &inst;
    const isa::OpInfo &info = isa::opInfo(inst.op);
    if (info.cls == isa::OpClass::Control || info.cls == isa::OpClass::Comm)
        return di;
    const Operand &a = inst.srcA, &b = inst.srcB, &dst = inst.dst;
    enum : std::uint8_t { kA, kB, kD };
    const auto span = [&di](std::size_t k, std::uint8_t operand,
                            std::uint32_t len, std::uint32_t offset = 0) {
        di.spans[k] = {operand, offset, len};
    };
    di.lane = laneOf(inst.op);
    di.producer = producerStall(di.lane);
    di.reads = info.reads;
    di.noted = info.reads & (isa::kSrcA | isa::kSrcB);
    di.count(TileCounter::Instructions);
    di.charge(arch::EnergyEvent::InstructionIssue, 1.0);
    Cycle dur = 0;
    double conflictExtra = 0.0;
    switch (info.cls) {
      case isa::OpClass::MatrixDma: {
        const std::uint32_t rows = inst.count;
        MANNA_ASSERT(rows > 0, "matrix DMA with zero rows");
        const bool isStore = inst.op == Opcode::DmaStoreM;
        const bool isDmat = inst.op == Opcode::DmatLoadM;
        // Row geometry: the non-scratchpad side determines the row
        // width; DMAT pads the scratchpad side by one word per row.
        const Operand &bufSide = isStore ? dst : a;
        const Operand &spadSide = isStore ? a : dst;
        MANNA_ASSERT(bufSide.space == Space::MatBuf ||
                         bufSide.space == Space::VecBuf,
                     "matrix DMA buffer side must be a buffer, got %s",
                     toString(bufSide.space));
        MANNA_ASSERT(spadSide.space == Space::MatSpad,
                     "matrix DMA scratchpad side must be MatSpad, got %s",
                     toString(spadSide.space));
        MANNA_ASSERT(bufSide.len % rows == 0,
                     "matrix DMA: len %u not divisible by rows %u",
                     bufSide.len, rows);
        const std::uint32_t rowWords = bufSide.len / rows;
        const std::uint32_t spadPitch = rowWords + (isDmat ? 1 : 0);
        MANNA_ASSERT(spadSide.len == rows * spadPitch,
                     "matrix DMA: scratchpad len %u != %u rows x pitch %u",
                     spadSide.len, rows, spadPitch);
        const std::uint32_t bufPitch = b.base != 0 ? b.base : rowWords;
        MANNA_ASSERT(bufPitch >= rowWords,
                     "matrix DMA: buffer pitch %u < row width %u",
                     bufPitch, rowWords);
        // A 2-D copy with pitches: the buffer side's base addresses the
        // first row, and each span runs from the first row's start to
        // the last row's end.
        di.op.kind = ReplayKind::Copy2d;
        di.op.n = rowWords;
        di.op.rows = rows;
        di.op.pitchA = isStore ? spadPitch : bufPitch;
        di.op.pitchD = isStore ? bufPitch : spadPitch;
        span(0, kA, (rows - 1) * di.op.pitchA + rowWords);
        span(2, kD, (rows - 1) * di.op.pitchD + rowWords);
        // Loads rotate the double-buffer halves; a load may only
        // overwrite a half once the compute that consumed it has
        // drained (WAR through the half's read end).
        di.rotates = !isStore;
        dur = static_cast<Cycle>(rows) *
              ceilDiv(rowWords, cfg.matrixBufferWidthWords);
        if (isDmat) {
            dur += 1; // pipelined skew-pad insertion
            di.count(TileCounter::DmatLoads);
            di.count(TileCounter::DmatTransferCycles,
                     static_cast<double>(dur));
        }
        // Energy: every word moves buffer<->scratchpad once.
        di.words = static_cast<double>(rows) * rowWords;
        di.charge(accessEvent(bufSide.space), di.words);
        di.charge(arch::EnergyEvent::MatrixScratchpadAccess, di.words);
        di.count(TileCounter::MatDmaWords, di.words);
        break;
      }
      case isa::OpClass::VectorDma:
        MANNA_ASSERT(a.len == dst.len, "vector DMA len %u != %u", a.len,
                     dst.len);
        di.op.kind = ReplayKind::Copy2d;
        di.op.n = a.len;
        di.op.rows = 1;
        span(0, kA, a.len);
        span(2, kD, dst.len);
        dur = ceilDiv(a.len, cfg.vectorDmaWidthWords);
        di.charge(accessEvent(a.space), a.len);
        di.charge(accessEvent(dst.space), dst.len);
        di.count(TileCounter::VecDmaWords, a.len);
        di.words = a.len;
        break;
      case isa::OpClass::Vmm: {
        const bool rowDot = inst.flags.rowDot;
        const bool withNorms = inst.flags.withNorms;
        const bool accumulate = inst.flags.accumulate;
        std::uint32_t numRows; // K: matrix rows in the block
        std::uint32_t numCols; // N: matrix columns in the block
        std::uint32_t pitch;
        if (rowDot) {
            numCols = a.len;
            pitch = numCols + (inst.flags.skewed ? 1 : 0);
            numRows = dst.len;
            // With norms, a second accumulator array lives `count`
            // words past the dot-product destination.
            MANNA_ASSERT(!withNorms || inst.count >= numRows,
                         "vmm.norms offset %u overlaps dots of %u rows",
                         inst.count, numRows);
        } else {
            MANNA_ASSERT(!withNorms, "vmm.norms requires rowdot mode");
            numRows = a.len;
            numCols = dst.len;
            pitch = numCols;
        }
        MANNA_ASSERT(b.len == numRows * pitch,
                     "vmm block len %u != %u rows x pitch %u", b.len,
                     numRows, pitch);
        MANNA_ASSERT(numRows > 0 && numCols > 0, "vmm with empty block");
        di.op.kind = ReplayKind::Vmm;
        di.op.n = numCols;
        di.op.rows = numRows;
        di.op.pitchA = pitch;
        di.op.flags = static_cast<std::uint8_t>(
            (rowDot ? kReplayRowDot : 0) |
            (withNorms ? kReplayWithNorms : 0) |
            (accumulate ? kReplayAccumulate : 0));
        span(0, kA, a.len);
        span(1, kB, b.len);
        span(2, kD, dst.len);
        if (withNorms)
            span(3, kD, numRows, inst.count);
        if (accumulate)
            di.reads |= isa::kDst;

        const std::size_t lanes = cfg.emacsPerTile;
        if (rowDot) {
            // Each lane owns a row and walks the columns.
            dur = static_cast<Cycle>(numCols) * ceilDiv(numRows, lanes);
            if (withNorms)
                dur *= 2;
            // Column-direction scratchpad traffic: skew-padded (DMAT)
            // blocks read one word per bank per cycle, unskewed blocks
            // serialize on bank conflicts (Section 4.4 / Figure 14).
            di.count(inst.flags.skewed ? TileCounter::SpadConflictFreeWords
                                       : TileCounter::SpadConflictWords,
                     static_cast<double>(numRows) * numCols);
            if (inst.flags.skewed) {
                // Realignment shift of the finished partials,
                // pipelined with the next block (Section 4.4, step 5).
                dur += ceilDiv(numRows, lanes);
            } else {
                // Unskewed block: banked access in the transposed
                // direction partially serializes on conflicts (this is
                // the no-DMAT path of the Figure 14 ablation). The
                // array occupies the whole interval but only the
                // pre-factor base is useful work; the serialization
                // overhead is accounted as stall.bank_conflict, not
                // busy time.
                const Cycle base = dur;
                dur *= cfg.noDmatConflictFactor;
                conflictExtra = static_cast<double>(dur - base);
            }
        } else {
            // Each lane owns a column; rows stream one per cycle
            // group.
            dur = static_cast<Cycle>(numRows) * ceilDiv(numCols, lanes);
        }
        if (conflictExtra > 0.0)
            di.count(stallCounter(TraceLane::Compute,
                                  StallReason::BankConflict),
                     conflictExtra);

        const double macs = static_cast<double>(numRows) * numCols *
                            (withNorms ? 2.0 : 1.0);
        di.charge(arch::EnergyEvent::EmacMac, macs);
        di.charge(arch::EnergyEvent::RegisterFileAccess, 2.0 * macs);
        if (!inst.flags.reuseB)
            di.charge(accessEvent(b.space),
                      static_cast<double>(numRows) * numCols);
        di.charge(accessEvent(a.space), a.len);
        if (!inst.flags.dstResident)
            di.charge(accessEvent(dst.space),
                      static_cast<double>(dst.len) *
                          (accumulate ? 2.0 : 1.0));
        if (inst.flags.skewed)
            di.charge(arch::EnergyEvent::EmacLateralShift,
                      static_cast<double>(numCols) *
                          ceilDiv(numRows, lanes) * lanes);
        di.count(TileCounter::EmacMacOps, macs);
        di.words = static_cast<double>(numRows) * numCols;
        break;
      }
      case isa::OpClass::Elementwise: {
        const std::uint32_t len = dst.len;
        MANNA_ASSERT(len > 0, "elementwise op with empty dst");
        const bool needsA = info.reads & isa::kSrcA;
        const bool needsB = info.reads & isa::kSrcB;
        const bool isMac = info.reads & isa::kDst; // ew.mac: d += a * b
        if (needsA)
            MANNA_ASSERT(a.len == len || a.len == 1,
                         "%s srcA len %u incompatible with dst %u",
                         toString(inst.op), a.len, len);
        if (needsB)
            MANNA_ASSERT(b.len == len || b.len == 1,
                         "%s srcB len %u incompatible with dst %u",
                         toString(inst.op), b.len, len);
        di.op.kind = ReplayKind::Elementwise;
        di.op.op = inst.op;
        di.op.n = len;
        di.op.pitchA = needsA ? a.len : 0;
        di.op.pitchD = needsB ? b.len : 0;
        di.op.imm = inst.imm;
        if (needsA)
            span(0, kA, a.len);
        if (needsB)
            span(1, kB, b.len);
        span(2, kD, len);

        std::size_t penalty = 1;
        if (!cfg.hasEmac && !isMac)
            penalty = cfg.elwisePenaltyNoEmac;
        dur = ceilDiv(len, cfg.emacsPerTile) * penalty;
        if (isMac) {
            di.charge(arch::EnergyEvent::EmacMac, len);
            di.count(TileCounter::EmacMacOps, len);
        } else if (needsA) { // fill does no arithmetic
            di.charge(arch::EnergyEvent::EmacElwise,
                      static_cast<double>(len) * penalty);
            di.count(TileCounter::EmacElwiseOps, len);
        }
        if (needsA)
            di.charge(accessEvent(a.space), a.len == 1 ? 1.0 : len);
        if (needsB)
            di.charge(accessEvent(b.space), b.len == 1 ? 1.0 : len);
        di.charge(accessEvent(dst.space),
                  static_cast<double>(len) * (isMac ? 2.0 : 1.0));
        di.words = len;
        break;
      }
      case isa::OpClass::Sfu: {
        const bool isAcc = info.sfuCost == isa::SfuCost::Acc;
        const bool needsB = info.reads & isa::kSrcB; // sfu.pow's exponent
        const std::uint32_t len = a.len;
        MANNA_ASSERT(len > 0, "SFU op with empty source");
        if (isAcc)
            MANNA_ASSERT(dst.len == 1, "SFU accumulate dst must be scalar");
        else
            MANNA_ASSERT(dst.len == len, "SFU dst len %u != src %u",
                         dst.len, len);
        if (needsB)
            MANNA_ASSERT(b.len == 1, "sfu.pow exponent must be scalar");
        // The SfuPow exponent pointer is recorded, not its value: the
        // tape re-reads it each step because tile code can update it.
        di.op.kind = ReplayKind::Sfu;
        di.op.op = inst.op;
        di.op.n = len;
        span(0, kA, len);
        if (needsB)
            span(1, kB, 1);
        span(2, kD, dst.len);
        // Only the source's read end is noted, not the exponent's.
        di.noted = isa::kSrcA;
        // The SFU path is serial within a tile (Section 7.3's scaling
        // limiter): len elements at perElem cycles each, shared across
        // the tile's sfusPerTile units.
        const std::size_t perElem =
            cfg.*kSfuCycles[static_cast<std::size_t>(info.sfuCost)];
        dur = ceilDiv(static_cast<std::uint64_t>(len) * perElem,
                      cfg.sfusPerTile);
        di.charge(arch::EnergyEvent::SfuOp, len);
        di.charge(accessEvent(a.space), len);
        di.charge(accessEvent(dst.space), dst.len);
        di.count(TileCounter::SfuOps, len);
        di.words = len;
        break;
      }
      default:
        panic("unexpected opcode %s in decodeInst", toString(inst.op));
    }
    di.duration = std::max<Cycle>(dur, 1);
    di.busy = static_cast<double>(di.duration) - conflictExtra;
    di.count(busyCounter(di.lane), di.busy);
    return di;
}

} // namespace

DecodedProgram
decodeProgram(const isa::Program &program, const arch::MannaConfig &cfg,
              const std::vector<compiler::SweepDesc> *sweeps)
{
    DecodedProgram decoded{&program, sweeps, {}};
    decoded.insts.reserve(program.size());
    for (const Instruction &inst : program.instructions())
        decoded.insts.push_back(decodeInst(inst, cfg));
    return decoded;
}

TileCounter
busyCounter(TraceLane lane)
{
    static constexpr TileCounter kBusy[] = {
        TileCounter::EmacBusyCycles, TileCounter::SfuBusyCycles,
        TileCounter::MatDmaBusyCycles, TileCounter::VecDmaBusyCycles};
    static_assert(std::size(kBusy) == kNumLanes);
    return kBusy[static_cast<std::size_t>(lane)];
}

const char *
counterName(TileCounter c)
{
    return kCounterNames[static_cast<std::size_t>(c)];
}

DiffMemTile::DiffMemTile(const arch::MannaConfig &cfg,
                         const arch::EnergyModel &energy,
                         std::size_t tileIndex,
                         const TileLayoutSizes &sizes)
    : cfg_(cfg), energy_(energy), tileIndex_(tileIndex),
      mem_(sizes.matBufWords, sizes.matSpadWords, sizes.vecBufWords,
           sizes.vecSpadWords)
{
}

void
TileCounters::exportStats(StatRegistry &reg,
                          const std::string &prefix) const
{
    // One key buffer, rewritten in place: building the registry is
    // most of a report's cost.
    std::string key;
    for (std::size_t i = 0; i < kNumTileCounters; ++i)
        reg.set(key.assign(prefix).append(".").append(kCounterNames[i]),
                ctr[i]);
}

void
TileCounters::exportOpProfile(StatRegistry &reg,
                              const std::string &prefix) const
{
    std::string key;
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
        if (opOps[i] == 0.0)
            continue;
        key.assign(prefix).append(".").append(
            isa::profileKey(static_cast<Opcode>(i)));
        const std::size_t stem = key.size();
        reg.set(key.append(".cycles"), opCycles[i]);
        reg.set(key.replace(stem, std::string::npos, ".ops"), opOps[i]);
        reg.set(key.replace(stem, std::string::npos, ".words"),
                opWords[i]);
    }
}

void
DiffMemTile::setProgram(const isa::Program *program,
                        const std::vector<compiler::SweepDesc> *sweeps)
{
    MANNA_ASSERT(program != nullptr, "null program");
    ownProgram_ = {program, sweeps, {}};
    setProgram(&ownProgram_);
}

void
DiffMemTile::setProgram(const DecodedProgram *program)
{
    program_ = program;
    pc_ = 0;
    nextSweep_ = 0;
    sweepOpen_ = false;
    stopRecording();
    loopStack_.clear();
    std::fill(std::begin(iters_), std::end(iters_), 0);
    quietDepth_ = 0;
    iterMax_ = 0;
    touched_ = 0;
}

RunStatus
DiffMemTile::runUntilComm()
{
    MANNA_ASSERT(program_ != nullptr, "tile %zu has no program",
                 tileIndex_);
    if (records_ == nullptr) {
        ownRecords_ = std::make_unique<LoopRecords>();
        records_ = ownRecords_.get();
    }
    // Only a raw program can still lack its entries.
    const auto &insts = program_->program->instructions();
    if (program_->insts.size() != insts.size())
        ownProgram_ = decodeProgram(*ownProgram_.program, cfg_,
                                    ownProgram_.sweeps);
    std::size_t mark = sweepMark();
    while (pc_ < insts.size()) {
        if (pc_ == mark) {
            markSweep();
            mark = sweepMark();
            continue;
        }
        const Instruction &inst = insts[pc_];
        switch (inst.op) {
          case Opcode::Loop:
            enterLoop(inst.count);
            break;
          case Opcode::EndLoop:
            endLoopIteration();
            break;
          case Opcode::Halt:
            pc_ = insts.size();
            stopRecording();
            return RunStatus::Done;
          case Opcode::Reduce:
          case Opcode::Broadcast:
            // The open loops reach a communication instruction: they
            // run literally.
            stopRecording();
            return RunStatus::AtComm;
          case Opcode::Nop:
            ++pc_;
            break;
          default:
            execute(program_->insts[pc_]);
            ++pc_;
            break;
        }
    }
    if (pc_ == mark)
        markSweep();
    stopRecording();
    return RunStatus::Done;
}

std::size_t
DiffMemTile::sweepMark() const
{
    const std::vector<compiler::SweepDesc> *sweeps = program_->sweeps;
    if (sweeps == nullptr || nextSweep_ == sweeps->size() ||
        tape_ == nullptr || !tape_->recording())
        return ~std::size_t{0};
    const compiler::SweepDesc &s = (*sweeps)[nextSweep_];
    return sweepOpen_ ? s.end : s.begin;
}

void
DiffMemTile::markSweep()
{
    sweepOpen_ = !sweepOpen_;
    if (!sweepOpen_) {
        tape_->closeSweep();
        ++nextSweep_;
        return;
    }
    // The sweep's operands, resolved as its instructions resolve them.
    const compiler::SweepDesc &s = (*program_->sweeps)[nextSweep_];
    const bool rowDot = s.kind == compiler::SweepKind::RowDot;
    SweepWindow w;
    static_cast<compiler::SweepGrid &>(w) = s;
    w.home = mem_.span(Space::MatBuf, s.matBase,
                       (s.rows - 1) * s.pitch + s.cols);
    for (const compiler::SweepVec &v : s.vecs)
        w.pairs.push_back(
            {mem_.span(v.srcSpace, v.src, rowDot ? s.cols : s.rows),
             mem_.span(v.dstSpace, v.dst, rowDot ? s.rows : s.cols)});
    if (s.withNorms)
        w.norms = mem_.span(s.vecs[0].dstSpace, s.norms, s.rows);
    w.stage = mem_.span(Space::VecSpad, s.stage, 1);
    tape_->openSweep(std::move(w));
}

void
DiffMemTile::enterLoop(std::uint32_t count)
{
    MANNA_ASSERT(loopStack_.size() < isa::kMaxLoopDepth,
                 "loop nesting too deep at pc %zu", pc_);
    LoopFrame &frame = loopStack_.emplace_back();
    frame.bodyPc = pc_ + 1;
    frame.count = count;
    iters_[loopStack_.size() - 1] = 0;
    // A trace lists every instruction, and the first two iterations
    // are needed to see a third repeat the second.
    frame.skippable = count >= 3 && trace_ == nullptr;
    frame.outerTouched = touched_;
    frame.outerIterMax = iterMax_;
    touched_ = 0;
    iterMax_ = 0;
    if (frame.skippable) {
        recording_ = true;
        frame.opsAt[0] = frame.opsAt[1] = records_->ops.size();
        frame.chargesAt[0] = frame.chargesAt[1] =
            records_->charges.size();
    }
    ++pc_;
}

void
DiffMemTile::endLoopIteration()
{
    MANNA_ASSERT(!loopStack_.empty(), "endloop without loop at pc %zu",
                 pc_);
    const std::size_t depth = loopStack_.size();
    LoopFrame &frame = loopStack_.back();
    const Cycle iterMax = iterMax_;
    frame.loopMax = std::max(frame.loopMax, iterMax);
    iterMax_ = 0;
    if (++frame.iter < static_cast<std::int64_t>(frame.count)) {
        if (frame.skippable)
            loopBoundary(frame, iterMax);
        iters_[depth - 1] = frame.iter;
        pc_ = frame.bodyPc;
        return;
    }
    touched_ |= frame.outerTouched;
    iterMax_ = std::max(frame.outerIterMax, frame.loopMax);
    if (quietDepth_ == depth)
        quietDepth_ = 0;
    const bool wasRecorded = frame.skippable;
    loopStack_.pop_back();
    if (wasRecorded)
        updateRecording();
    ++pc_;
}

DiffMemTile::LoopShape
DiffMemTile::loopShape() const
{
    LoopShape s;
    s.touched = touched_;
    s.loaded = dmaLoadCount_ != 0;
    const auto dep = [this](Cycle t) {
        return t > now_ ? static_cast<std::int64_t>(t - now_) : kDead;
    };
    for (std::size_t l = 0; l < kNumLanes; ++l)
        if (touched_ & touchBit(static_cast<TraceLane>(l)))
            s.free[l] = static_cast<std::int64_t>(engineFree_[l] - now_);
    if (touched_ & touchBit(Space::MatSpad)) {
        for (std::size_t k = 0; k < 2; ++k) {
            const std::size_t h = (computeHalf() + k) % 2;
            s.spadWrite[k] = dep(spadWriteEnd_[h]);
            s.spadRead[k] = dep(spadReadEnd_[h]);
            if (s.spadWrite[k] != kDead)
                s.spadWhy[k] = spadWriteWhy_[h];
        }
    }
    for (std::size_t sp = 0; sp < std::size(lastWrite_); ++sp) {
        if (!(touched_ & touchBit(static_cast<Space>(sp))))
            continue;
        s.lastWrite[sp] = dep(lastWrite_[sp]);
        if (s.lastWrite[sp] != kDead)
            s.lastWhy[sp] = lastWriteWhy_[sp];
    }
    return s;
}

void
DiffMemTile::loopBoundary(LoopFrame &frame, Cycle iterMax)
{
    // Iterations 0 .. iter-1 have run. If the timing state after the
    // last one equals (relative to now_) the state after the one
    // before, every remaining iteration repeats the last one shifted
    // in time. Every iteration emits the ops of the same decoded
    // instructions, so they repeat but for their pointers; untimed,
    // inside a skipped loop's final iteration, only those have to.
    const bool timing = timed();
    const LoopShape shape = timing ? loopShape() : LoopShape{};
    if (frame.iter >= 2 && shape == frame.prevShape) {
        skipLoop(frame, iterMax);
        return;
    }
    LoopRecords &rec = *records_;
    frame.prevShape = shape;
    if (timing) {
        frame.prevNow = now_;
        frame.prevLoads = dmaLoadCount_;
        rec.iterStart[loopStack_.size() - 1] = acct_;
    }
    frame.opsAt[0] = frame.opsAt[1];
    frame.opsAt[1] = rec.ops.size();
    frame.chargesAt[0] = frame.chargesAt[1];
    frame.chargesAt[1] = rec.charges.size();
}

void
DiffMemTile::skipLoop(LoopFrame &frame, Cycle iterMax)
{
    LoopRecords &rec = *records_;
    const std::size_t depth = loopStack_.size();
    // r iterations remain, the final one included; each repeats the
    // last one, Δ later.
    const std::uint64_t r =
        frame.count - static_cast<std::uint64_t>(frame.iter);

    // Take the last iteration's ops and charges out of the logs: this
    // loop records no more, and an enclosing one logs what follows.
    const std::size_t numOps = rec.ops.size() - frame.opsAt[1];
    MANNA_ASSERT(frame.opsAt[1] - frame.opsAt[0] == numOps,
                 "loop iterations at pc %zu emitted %zu and %zu ops",
                 frame.bodyPc, frame.opsAt[1] - frame.opsAt[0], numOps);
    rec.stepped.assign(rec.ops.begin() +
                           static_cast<std::ptrdiff_t>(frame.opsAt[1]),
                       rec.ops.end());
    rec.steps.resize(numOps);
    for (std::size_t i = 0; i < numOps; ++i) {
        const ReplayOp &prev = rec.ops[frame.opsAt[0] + i];
        const ReplayOp &cur = rec.stepped[i];
        rec.steps[i] = {wordOf(cur.a) - wordOf(prev.a),
                        wordOf(cur.b) - wordOf(prev.b),
                        wordOf(cur.d) - wordOf(prev.d),
                        wordOf(cur.dn) - wordOf(prev.dn)};
    }
    rec.replay.assign(rec.charges.begin() +
                          static_cast<std::ptrdiff_t>(frame.chargesAt[1]),
                      rec.charges.end());
    frame.skippable = false;
    updateRecording();

    if (timed()) {
        skipTime(frame, iterMax, r);
        quietDepth_ = depth;
    }

    // Addressing is affine in the iteration index: iterations
    // iter .. count-2 emit the last one's ops with every pointer
    // stepped, and the tape takes them as one run. The final iteration
    // runs untimed through the interpreter, so its operands get the
    // first one's bounds checks (in bounds at both ends means in
    // bounds throughout).
    if (tape_ != nullptr)
        tape_->appendRun(rec.stepped, rec.steps, r - 1);
    // An enclosing loop that still records logs them op by op.
    for (std::uint64_t k = 1; k < r && recording_; ++k) {
        for (std::size_t i = 0; i < numOps; ++i)
            rec.stepped[i] = advanced(rec.stepped[i], rec.steps[i], 1);
        rec.ops.insert(rec.ops.end(), rec.stepped.begin(),
                       rec.stepped.end());
        if (rec.ops.size() > kMaxLoggedOps)
            stopRecording();
    }
    frame.iter = frame.count - 1;
}

void
DiffMemTile::skipTime(LoopFrame &frame, Cycle iterMax, std::uint64_t r)
{
    const Cycle shift = r * (now_ - frame.prevNow);
    const std::uint64_t loads = r * (dmaLoadCount_ - frame.prevLoads);

    // Counters and the op profile hold integers (exact below 2^53):
    // advance each by r times the last iteration's increment.
    const TileCounters &from = records_->iterStart[loopStack_.size() - 1];
    const auto times = static_cast<double>(r);
    const auto advance = [times](double *v, const double *start,
                                 std::size_t n) {
        for (std::size_t i = 0; i < n; ++i)
            v[i] += times * (v[i] - start[i]);
    };
    forwardedInsts_ += times * (acct_.counter(TileCounter::Instructions) -
                                from.counter(TileCounter::Instructions));
    ++loopSkips_;
    advance(acct_.ctr, from.ctr, kNumTileCounters);
    advance(acct_.opCycles, from.opCycles, kNumOpcodes);
    advance(acct_.opOps, from.opOps, kNumOpcodes);
    advance(acct_.opWords, from.opWords, kNumOpcodes);

    // Every time the body touches moves by r·Δ (a dead one stays
    // dead); what it never touches stays as it is.
    now_ += shift;
    maxEnd_ = std::max(maxEnd_, iterMax + shift);
    frame.loopMax = std::max(frame.loopMax, iterMax + shift);
    for (std::size_t l = 0; l < kNumLanes; ++l)
        if (touched_ & touchBit(static_cast<TraceLane>(l)))
            engineFree_[l] += shift;
    if (touched_ & touchBit(Space::MatSpad)) {
        for (std::size_t h = 0; h < 2; ++h) {
            spadWriteEnd_[h] += shift;
            spadReadEnd_[h] += shift;
        }
    }
    for (std::size_t sp = 0; sp < std::size(lastWrite_); ++sp)
        if (touched_ & touchBit(static_cast<Space>(sp)))
            lastWrite_[sp] += shift;
    // Halves are compared relative to computeHalf(): an odd number of
    // skipped loads swaps them.
    if (loads % 2 == 1) {
        std::swap(spadWriteEnd_[0], spadWriteEnd_[1]);
        std::swap(spadReadEnd_[0], spadReadEnd_[1]);
        std::swap(spadWriteWhy_[0], spadWriteWhy_[1]);
    }
    dmaLoadCount_ += loads;

    // Energy is re-added charge by charge, in order, never multiplied,
    // so the sum rounds exactly as literal interpretation's does.
    const std::vector<Energy> &charges = records_->replay;
    Energy energy = acct_.energyPj;
    for (std::uint64_t k = 0; k < r; ++k)
        for (const Energy pj : charges)
            energy += pj;
    acct_.energyPj = energy;
    // An enclosing loop's iteration includes them.
    for (std::uint64_t k = 0; k < r && recording_; ++k) {
        records_->charges.insert(records_->charges.end(), charges.begin(),
                                 charges.end());
        if (records_->charges.size() > kMaxLoggedCharges)
            stopRecording();
    }
}

void
DiffMemTile::recordOp(const ReplayOp &op)
{
    records_->ops.push_back(op);
    if (records_->ops.size() > kMaxLoggedOps)
        stopRecording();
}

void
DiffMemTile::recordCharge(Energy pj)
{
    records_->charges.push_back(pj);
    if (records_->charges.size() > kMaxLoggedCharges)
        stopRecording();
}

void
DiffMemTile::updateRecording()
{
    recording_ = false;
    for (const LoopFrame &f : loopStack_)
        recording_ = recording_ || f.skippable;
    if (!recording_ && records_ != nullptr) {
        records_->ops.clear();
        records_->charges.clear();
    }
}

void
DiffMemTile::stopRecording()
{
    for (LoopFrame &f : loopStack_)
        f.skippable = false;
    updateRecording();
}

const Instruction &
DiffMemTile::commInstruction() const
{
    MANNA_ASSERT(program_ && pc_ < program_->insts.size(),
                 "no blocking instruction");
    const Instruction &inst = *program_->insts[pc_].inst;
    MANNA_ASSERT(inst.op == Opcode::Reduce ||
                     inst.op == Opcode::Broadcast,
                 "pc %zu is not a communication instruction", pc_);
    return inst;
}

void
DiffMemTile::resumeAfterComm(Cycle resumeAt)
{
    // The communication instruction is a fence (Section 5.1).
    commInstruction(); // asserts we are actually blocked
    ++pc_;
    alignTo(resumeAt, StallReason::Fence);
    count(TileCounter::CommInstructions);
}

void
DiffMemTile::alignTo(Cycle at, StallReason reason)
{
    MANNA_ASSERT(at >= maxEnd_,
                 "fence at %llu before outstanding work at %llu",
                 static_cast<unsigned long long>(at),
                 static_cast<unsigned long long>(maxEnd_));
    // Two attribution windows per engine: up to the drain point
    // (maxEnd_) an early-finishing engine is waiting on whichever
    // engine drains last; past it, every engine waits for @p reason
    // (the fence/controller/segment event that set `at`).
    TraceLane tail = TraceLane::Compute;
    Cycle tailEnd = engineFree_[0];
    for (std::size_t l = 1; l < kNumLanes; ++l) {
        const auto lane = static_cast<TraceLane>(l);
        if (engineFree_[l] > tailEnd ||
            (engineFree_[l] == tailEnd &&
             producerStall(lane) > producerStall(tail))) {
            tail = lane;
            tailEnd = engineFree_[l];
        }
    }
    const StallReason drainWhy = producerStall(tail);
    for (std::size_t l = 0; l < kNumLanes; ++l) {
        const auto lane = static_cast<TraceLane>(l);
        if (maxEnd_ > engineFree_[l])
            count(stallCounter(lane, drainWhy),
                  static_cast<double>(maxEnd_ - engineFree_[l]));
        if (at > maxEnd_)
            count(stallCounter(lane, reason),
                  static_cast<double>(at - maxEnd_));
        engineFree_[l] = at;
    }
    now_ = at;
    spadWriteEnd_[0] = spadWriteEnd_[1] = at;
    spadReadEnd_[0] = spadReadEnd_[1] = at;
    std::fill(std::begin(lastWrite_), std::end(lastWrite_), at);
    spadWriteWhy_[0] = spadWriteWhy_[1] = reason;
    std::fill(std::begin(lastWriteWhy_), std::end(lastWriteWhy_),
              reason);
    maxEnd_ = at;
}

void
DiffMemTile::reset()
{
    now_ = 0;
    std::fill(std::begin(engineFree_), std::end(engineFree_), 0);
    spadWriteEnd_[0] = spadWriteEnd_[1] = 0;
    spadReadEnd_[0] = spadReadEnd_[1] = 0;
    std::fill(std::begin(lastWrite_), std::end(lastWrite_), 0);
    spadWriteWhy_[0] = spadWriteWhy_[1] = StallReason::Issue;
    std::fill(std::begin(lastWriteWhy_), std::end(lastWriteWhy_),
              StallReason::Issue);
    maxEnd_ = 0;
    dmaLoadCount_ = 0;
    acct_ = TileCounters();
    tape_ = nullptr;
    program_ = nullptr;
    pc_ = 0;
    stopRecording();
    loopStack_.clear();
    std::fill(std::begin(iters_), std::end(iters_), 0);
    quietDepth_ = 0;
    iterMax_ = 0;
    touched_ = 0;
    loopSkips_ = 0;
    forwardedInsts_ = 0.0;
}

inline void
DiffMemTile::attributeStall(TraceLane lane, const StallPicker &picker)
{
    touched_ |= touchBit(lane);
    const Cycle free = freeTime(lane);
    if (picker.at > free)
        count(stallCounter(lane, picker.why),
              static_cast<double>(picker.at - free));
}

inline void
DiffMemTile::readDependency(const Operand &op, StallPicker &p)
{
    touched_ |= touchBit(op.space);
    if (op.space == Space::MatSpad) {
        const std::size_t half = computeHalf();
        p.consider(spadWriteEnd_[half], spadWriteWhy_[half]);
        return;
    }
    const auto s = static_cast<std::size_t>(op.space);
    p.consider(lastWrite_[s], lastWriteWhy_[s]);
}

inline void
DiffMemTile::noteRead(const Operand &op, Cycle end)
{
    if (op.space == Space::MatSpad) {
        const std::size_t half = computeHalf();
        spadReadEnd_[half] = std::max(spadReadEnd_[half], end);
    }
}

void
DiffMemTile::execute(const DecodedInst &di)
{
    const Instruction &inst = *di.inst;
    float *spans[4] = {};
    for (std::size_t k = 0; k < 4; ++k) {
        const DecodedInst::Span &s = di.spans[k];
        if (s.operand != DecodedInst::kNoOperand)
            spans[k] = span(inst.*kOperands[s.operand], s.offset, s.len);
    }
    ReplayOp rop = di.op;
    rop.a = spans[0];
    rop.b = spans[1];
    rop.d = spans[2];
    rop.dn = spans[3];
    emit(rop);
    if (!timed())
        return;

    // Every operand timed below has a span, so it names a space. The
    // destination's pending write delays the start (WAW) and, in the
    // scratchpad, so do its half's pending reads (WAR, a drain). Every
    // scratchpad access but a matrix load's goes to the half compute
    // works on (loadHalf(), computeHalf()).
    const std::size_t half = di.rotates ? loadHalf() : computeHalf();
    const auto dstSpace = static_cast<std::size_t>(inst.dst.space);
    const bool spad = inst.dst.space == Space::MatSpad;
    Cycle &written = spad ? spadWriteEnd_[half] : lastWrite_[dstSpace];
    StallReason &writer =
        spad ? spadWriteWhy_[half] : lastWriteWhy_[dstSpace];
    touched_ |= touchBit(inst.dst.space);
    const Cycle issuedAt = now_;
    StallPicker p(freeTime(di.lane));
    p.consider(now_, StallReason::Issue);
    if (di.reads & isa::kSrcA)
        readDependency(inst.srcA, p);
    if (di.reads & isa::kSrcB)
        readDependency(inst.srcB, p);
    if (spad)
        p.consider(spadReadEnd_[half], StallReason::Drain);
    p.consider(written, writer);
    if (di.reads & isa::kDst)
        readDependency(inst.dst, p);
    const Cycle start = p.at;
    attributeStall(di.lane, p);
    const Cycle end = start + di.duration;
    freeTime(di.lane) = end;
    if (di.noted & isa::kSrcA)
        noteRead(inst.srcA, end);
    if (di.noted & isa::kSrcB)
        noteRead(inst.srcB, end);
    if (end >= written) {
        written = end;
        writer = di.producer;
    }
    if (di.rotates)
        ++dmaLoadCount_;
    maxEnd_ = std::max(maxEnd_, end);
    iterMax_ = std::max(iterMax_, end);
    now_ = start + 1;

    for (std::size_t k = 0; k < di.numCharges; ++k)
        charge(di.charges[k].event, di.charges[k].occurrences);
    for (std::size_t k = 0; k < di.numCounts; ++k)
        count(di.counts[k].counter, di.counts[k].amount);
    const auto opIdx = static_cast<std::size_t>(inst.op);
    acct_.opCycles[opIdx] += di.busy;
    acct_.opOps[opIdx] += 1.0;
    acct_.opWords[opIdx] += di.words;
    if (trace_ != nullptr)
        trace_->record(tileIndex_, issuedAt, maxEnd_, start, end, inst);
}

RunStatus
runAndCompute(DiffMemTile &tile)
{
    ReplayTape tape;
    tape.startRecording();
    tile.setReplayTape(&tape);
    const RunStatus status = tile.runUntilComm();
    tile.setReplayTape(nullptr);
    tape.finishRecording();
    for (const ReplayOp &op : tape.ops())
        execTileOp(op, &tape);
    return status;
}

} // namespace manna::sim
