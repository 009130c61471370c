#include "tile.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>

#include "common/logging.hh"
#include "tensor/dispatch.hh"
#include "tensor/vector_ops.hh"

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

/** Every field of two ops but their pointers' values agrees. */
bool
sameShape(const ReplayOp &x, const ReplayOp &y)
{
    std::uint32_t xi, yi;
    std::memcpy(&xi, &x.imm, sizeof xi);
    std::memcpy(&yi, &y.imm, sizeof yi);
    return x.kind == y.kind && x.op == y.op && x.flags == y.flags &&
           x.n == y.n && x.rows == y.rows && x.pitchA == y.pitchA &&
           x.pitchD == y.pitchD && xi == yi &&
           (x.a == nullptr) == (y.a == nullptr) &&
           (x.b == nullptr) == (y.b == nullptr) &&
           (x.d == nullptr) == (y.d == nullptr) &&
           (x.dn == nullptr) == (y.dn == nullptr);
}

} // namespace

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
    program_ = program;
    pc_ = 0;
    sweeps_ = sweeps;
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
    const auto &insts = program_->instructions();
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
            execute(inst);
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
    if (sweeps_ == nullptr || nextSweep_ == sweeps_->size() ||
        tape_ == nullptr || !tape_->recording())
        return ~std::size_t{0};
    const compiler::SweepDesc &s = (*sweeps_)[nextSweep_];
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
    const compiler::SweepDesc &s = (*sweeps_)[nextSweep_];
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
    // in time. Untimed, inside a skipped loop's final iteration, only
    // the ops have to repeat.
    const bool timing = timed();
    const LoopShape shape = timing ? loopShape() : LoopShape{};
    if (frame.iter >= 2 && shape == frame.prevShape &&
        sameOpShapes(frame)) {
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

bool
DiffMemTile::sameOpShapes(const LoopFrame &frame) const
{
    const std::vector<ReplayOp> &ops = records_->ops;
    const std::size_t prev = frame.opsAt[0], cur = frame.opsAt[1];
    if (cur - prev != ops.size() - cur)
        return false;
    for (std::size_t i = 0; prev + i < cur; ++i)
        if (!sameShape(ops[prev + i], ops[cur + i]))
            return false;
    return true;
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
    lastEnd_ += shift;
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
    MANNA_ASSERT(program_ && pc_ < program_->size(),
                 "no blocking instruction");
    const Instruction &inst = program_->instructions()[pc_];
    MANNA_ASSERT(inst.op == Opcode::Reduce ||
                     inst.op == Opcode::Broadcast,
                 "pc %zu is not a communication instruction", pc_);
    return inst;
}

Operand
DiffMemTile::resolveOperand(const Operand &op) const
{
    Operand resolved = op;
    resolved.base = op.effectiveBase(iters_, loopStack_.size());
    std::fill(std::begin(resolved.stride), std::end(resolved.stride), 0);
    return resolved;
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
    lastEnd_ = 0;
    dmaLoadCount_ = 0;
    acct_ = TileCounters();
    lastOpBusy_ = 0.0;
    lastOpWords_ = 0.0;
    tape_ = nullptr;
    program_ = nullptr;
    pc_ = 0;
    sweeps_ = nullptr;
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
    if (!op.valid())
        return;
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
DiffMemTile::writeDependency(const Operand &op, StallPicker &p)
{
    if (!op.valid())
        return;
    touched_ |= touchBit(op.space);
    if (op.space == Space::MatSpad) {
        // Non-DMA writes (e.g. soft-write updates) modify the half
        // compute is currently working on. The WAR side is a
        // double-buffer drain; the WAW side blames the producer.
        const std::size_t half = computeHalf();
        p.consider(spadReadEnd_[half], StallReason::Drain);
        p.consider(spadWriteEnd_[half], spadWriteWhy_[half]);
        return;
    }
    const auto s = static_cast<std::size_t>(op.space);
    p.consider(lastWrite_[s], lastWriteWhy_[s]);
}

inline void
DiffMemTile::noteWrite(const Operand &op, Cycle end,
                       StallReason producer)
{
    if (!op.valid())
        return;
    if (op.space == Space::MatSpad) {
        const std::size_t half = computeHalf();
        if (end >= spadWriteEnd_[half]) {
            spadWriteEnd_[half] = end;
            spadWriteWhy_[half] = producer;
        }
        return;
    }
    const auto s = static_cast<std::size_t>(op.space);
    if (end >= lastWrite_[s]) {
        lastWrite_[s] = end;
        lastWriteWhy_[s] = producer;
    }
}

inline void
DiffMemTile::noteRead(const Operand &op, Cycle end)
{
    if (!op.valid())
        return;
    if (op.space == Space::MatSpad) {
        const std::size_t half = computeHalf();
        spadReadEnd_[half] = std::max(spadReadEnd_[half], end);
    }
}

arch::EnergyEvent
DiffMemTile::accessEvent(Space space) const
{
    switch (space) {
      case Space::MatBuf:
        return arch::EnergyEvent::MatrixBufferAccess;
      case Space::MatSpad:
        return arch::EnergyEvent::MatrixScratchpadAccess;
      case Space::VecBuf:
        return arch::EnergyEvent::VectorBufferAccess;
      case Space::VecSpad:
        return arch::EnergyEvent::VectorScratchpadAccess;
      case Space::None:
        break;
    }
    panic("accessEvent on invalid space");
}

void
DiffMemTile::finish(Cycle end)
{
    maxEnd_ = std::max(maxEnd_, end);
    iterMax_ = std::max(iterMax_, end);
    lastEnd_ = end;
}

void
DiffMemTile::execute(const Instruction &inst)
{
    if (timed()) {
        count(TileCounter::Instructions);
        charge(arch::EnergyEvent::InstructionIssue, 1.0);
    }
    const Cycle issuedAt = now_;
    lastOpBusy_ = 0.0;
    lastOpWords_ = 0.0;
    switch (isa::opInfo(inst.op).cls) {
      case isa::OpClass::MatrixDma:
        execDmaMatrix(inst);
        break;
      case isa::OpClass::VectorDma:
        execDmaVector(inst);
        break;
      case isa::OpClass::Vmm:
        execVmm(inst);
        break;
      case isa::OpClass::Elementwise:
        execElementwise(inst);
        break;
      case isa::OpClass::Sfu:
        execSfu(inst);
        break;
      default:
        panic("unexpected opcode %s in execute",
              toString(inst.op));
    }
    if (!timed())
        return;
    const auto opIdx = static_cast<std::size_t>(inst.op);
    acct_.opCycles[opIdx] += lastOpBusy_;
    acct_.opOps[opIdx] += 1.0;
    acct_.opWords[opIdx] += lastOpWords_;
    // After dispatch now_ == start + 1, so the op's engine interval is
    // [now_ - 1, lastEnd_].
    if (trace_ != nullptr)
        trace_->record(tileIndex_, issuedAt, maxEnd_, now_ - 1,
                       lastEnd_, inst);
}

void
DiffMemTile::execDmaMatrix(const Instruction &inst)
{
    const Operand src = resolveOperand(inst.srcA);
    const Operand dst = resolveOperand(inst.dst);
    const std::uint32_t rows = inst.count;
    MANNA_ASSERT(rows > 0, "matrix DMA with zero rows");

    const bool isStore = inst.op == Opcode::DmaStoreM;
    const bool isDmat = inst.op == Opcode::DmatLoadM;

    // Row geometry: the non-scratchpad side determines the row width;
    // DMAT pads the scratchpad side by one word per row.
    const Operand &bufSide = isStore ? dst : src;
    const Operand &spadSide = isStore ? src : dst;
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
    const std::uint32_t bufPitch =
        inst.srcB.base != 0 ? inst.srcB.base : rowWords;
    MANNA_ASSERT(bufPitch >= rowWords,
                 "matrix DMA: buffer pitch %u < row width %u", bufPitch,
                 rowWords);

    // Functional copy with pitches. The effective base of the buffer
    // side addresses the first row; subsequent rows advance by
    // bufPitch. The span covers first row start through last row end
    // (every row is in the buffer, so the full extent is too).
    ReplayOp rop;
    rop.kind = ReplayKind::Copy2d;
    rop.n = rowWords;
    rop.rows = rows;
    rop.pitchA = isStore ? spadPitch : bufPitch;
    rop.pitchD = isStore ? bufPitch : spadPitch;
    rop.a = mem_.span(src.space, src.base,
                      (rows - 1) * rop.pitchA + rowWords);
    rop.d = mem_.span(dst.space, dst.base,
                      (rows - 1) * rop.pitchD + rowWords);
    emit(rop);
    if (!timed())
        return;

    // Timing. Loads rotate the double-buffer halves; a load may
    // only overwrite a half once the compute that consumed it has
    // drained (WAR through spadReadEnd_).
    touched_ |= touchBit(Space::MatSpad);
    StallPicker p(freeTime(TraceLane::MatDma));
    p.consider(now_, StallReason::Issue);
    Cycle dur = static_cast<Cycle>(rows) *
                ceilDiv(rowWords, cfg_.matrixBufferWidthWords);
    if (isDmat)
        dur += 1; // pipelined skew-pad insertion
    Cycle start;
    if (isStore) {
        const std::size_t half = computeHalf();
        p.consider(spadWriteEnd_[half],
                   spadWriteWhy_[half]); // data ready
        writeDependency(dst, p);
        start = p.at;
        attributeStall(TraceLane::MatDma, p);
        const Cycle end = start + std::max<Cycle>(dur, 1);
        count(TileCounter::MatDmaBusyCycles,
              static_cast<double>(end - start));
        lastOpBusy_ = static_cast<double>(end - start);
        freeTime(TraceLane::MatDma) = end;
        spadReadEnd_[half] = std::max(spadReadEnd_[half], end);
        noteWrite(dst, end, StallReason::Dma);
        finish(end);
    } else {
        const std::size_t half = loadHalf();
        p.consider(spadReadEnd_[half], StallReason::Drain);
        p.consider(spadWriteEnd_[half], spadWriteWhy_[half]);
        readDependency(src, p);
        start = p.at;
        attributeStall(TraceLane::MatDma, p);
        const Cycle end = start + std::max<Cycle>(dur, 1);
        count(TileCounter::MatDmaBusyCycles,
              static_cast<double>(end - start));
        lastOpBusy_ = static_cast<double>(end - start);
        if (isDmat) {
            count(TileCounter::DmatLoads);
            count(TileCounter::DmatTransferCycles,
                  static_cast<double>(end - start));
        }
        freeTime(TraceLane::MatDma) = end;
        spadWriteEnd_[half] = end;
        spadWriteWhy_[half] = StallReason::Dma;
        ++dmaLoadCount_;
        finish(end);
    }
    now_ = start + 1;

    // Energy: every word moves buffer<->scratchpad once.
    const double words = static_cast<double>(rows) * rowWords;
    charge(accessEvent(bufSide.space), words);
    charge(arch::EnergyEvent::MatrixScratchpadAccess, words);
    count(TileCounter::MatDmaWords, words);
    lastOpWords_ = words;

}

void
DiffMemTile::execDmaVector(const Instruction &inst)
{
    const Operand src = resolveOperand(inst.srcA);
    const Operand dst = resolveOperand(inst.dst);
    MANNA_ASSERT(src.len == dst.len, "vector DMA len %u != %u", src.len,
                 dst.len);

    ReplayOp rop;
    rop.kind = ReplayKind::Copy2d;
    rop.n = src.len;
    rop.rows = 1;
    rop.a = mem_.span(src.space, src.base, src.len);
    rop.d = mem_.span(dst.space, dst.base, dst.len);
    emit(rop);
    if (!timed())
        return;

    StallPicker p(freeTime(TraceLane::VecDma));
    p.consider(now_, StallReason::Issue);
    readDependency(src, p);
    writeDependency(dst, p);
    const Cycle start = p.at;
    attributeStall(TraceLane::VecDma, p);
    const Cycle dur = std::max<Cycle>(
        ceilDiv(src.len, cfg_.vectorDmaWidthWords), 1);
    const Cycle end = start + dur;
    count(TileCounter::VecDmaBusyCycles,
          static_cast<double>(end - start));
    lastOpBusy_ = static_cast<double>(end - start);
    freeTime(TraceLane::VecDma) = end;
    noteRead(src, end);
    noteWrite(dst, end, StallReason::Dma);
    finish(end);
    now_ = start + 1;

    charge(accessEvent(src.space), src.len);
    charge(accessEvent(dst.space), dst.len);
    count(TileCounter::VecDmaWords, src.len);
    lastOpWords_ = src.len;
}

void
DiffMemTile::execVmm(const Instruction &inst)
{
    const Operand vec = resolveOperand(inst.srcA);
    const Operand matBlock = resolveOperand(inst.srcB);
    const Operand dst = resolveOperand(inst.dst);
    const bool rowDot = inst.flags.rowDot;
    const bool withNorms = inst.flags.withNorms;
    const bool accumulate = inst.flags.accumulate;

    std::uint32_t numRows; // K: matrix rows in the block
    std::uint32_t numCols; // N: matrix columns in the block
    std::uint32_t pitch;
    if (rowDot) {
        numCols = vec.len;
        pitch = numCols + (inst.flags.skewed ? 1 : 0);
        numRows = dst.len;
        // With norms, a second accumulator array lives `count` words
        // past the dot-product destination.
        MANNA_ASSERT(!withNorms || inst.count >= numRows,
                     "vmm.norms offset %u overlaps dots of %u rows",
                     inst.count, numRows);
    } else {
        MANNA_ASSERT(!withNorms, "vmm.norms requires rowdot mode");
        numRows = vec.len;
        numCols = dst.len;
        pitch = numCols;
    }
    MANNA_ASSERT(matBlock.len == numRows * pitch,
                 "vmm block len %u != %u rows x pitch %u", matBlock.len,
                 numRows, pitch);
    MANNA_ASSERT(numRows > 0 && numCols > 0, "vmm with empty block");

    // Functional semantics, computed by the tape (sim/replay.cc).
    ReplayOp rop;
    rop.kind = ReplayKind::Vmm;
    rop.n = numCols;
    rop.rows = numRows;
    rop.pitchA = pitch;
    rop.flags = static_cast<std::uint8_t>(
        (rowDot ? kReplayRowDot : 0) |
        (withNorms ? kReplayWithNorms : 0) |
        (accumulate ? kReplayAccumulate : 0));
    rop.a = mem_.span(vec.space, vec.base, vec.len);
    rop.b = mem_.span(matBlock.space, matBlock.base, matBlock.len);
    rop.d = mem_.span(dst.space, dst.base, dst.len);
    rop.dn = withNorms ? mem_.span(dst.space, dst.base + inst.count,
                                   numRows)
                       : nullptr;
    emit(rop);
    if (!timed())
        return;

    // Timing.
    StallPicker p(freeTime(TraceLane::Compute));
    p.consider(now_, StallReason::Issue);
    readDependency(vec, p);
    readDependency(matBlock, p);
    writeDependency(dst, p);
    if (accumulate)
        readDependency(dst, p);
    const Cycle start = p.at;
    attributeStall(TraceLane::Compute, p);

    Cycle dur;
    double conflictExtra = 0.0;
    const std::size_t lanes = cfg_.emacsPerTile;
    if (rowDot) {
        // Each lane owns a row and walks the columns.
        dur = static_cast<Cycle>(numCols) * ceilDiv(numRows, lanes);
        if (withNorms)
            dur *= 2;
        // Column-direction scratchpad traffic: skew-padded (DMAT)
        // blocks read one word per bank per cycle, unskewed blocks
        // serialize on bank conflicts (Section 4.4 / Figure 14).
        count(inst.flags.skewed ? TileCounter::SpadConflictFreeWords
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
            dur *= cfg_.noDmatConflictFactor;
            conflictExtra = static_cast<double>(dur - base);
        }
    } else {
        // Each lane owns a column; rows stream one per cycle
        // group.
        dur = static_cast<Cycle>(numRows) * ceilDiv(numCols, lanes);
    }
    const Cycle end = start + std::max<Cycle>(dur, 1);
    const double busy =
        static_cast<double>(end - start) - conflictExtra;
    count(TileCounter::EmacBusyCycles, busy);
    if (conflictExtra > 0.0)
        count(stallCounter(TraceLane::Compute,
                           StallReason::BankConflict),
              conflictExtra);
    lastOpBusy_ = busy;
    freeTime(TraceLane::Compute) = end;
    noteRead(vec, end);
    noteRead(matBlock, end);
    noteWrite(dst, end, StallReason::Compute);
    finish(end);
    now_ = start + 1;

    // Energy.
    const double macs = static_cast<double>(numRows) * numCols *
                        (withNorms ? 2.0 : 1.0);
    charge(arch::EnergyEvent::EmacMac, macs);
    charge(arch::EnergyEvent::RegisterFileAccess, 2.0 * macs);
    if (!inst.flags.reuseB)
        charge(accessEvent(matBlock.space),
               static_cast<double>(numRows) * numCols);
    charge(accessEvent(vec.space), vec.len);
    if (!inst.flags.dstResident)
        charge(accessEvent(dst.space),
               static_cast<double>(dst.len) *
                   (accumulate ? 2.0 : 1.0));
    if (inst.flags.skewed)
        charge(arch::EnergyEvent::EmacLateralShift,
               static_cast<double>(numCols) *
                   ceilDiv(numRows, lanes) * lanes);
    count(TileCounter::EmacMacOps, macs);
    lastOpWords_ = static_cast<double>(numRows) * numCols;
}

void
DiffMemTile::execElementwise(const Instruction &inst)
{
    const Operand dst = resolveOperand(inst.dst);
    const Operand a = resolveOperand(inst.srcA);
    const Operand b = resolveOperand(inst.srcB);
    const std::uint32_t len = dst.len;
    MANNA_ASSERT(len > 0, "elementwise op with empty dst");

    const std::uint8_t reads = isa::opInfo(inst.op).reads;
    const bool needsA = reads & isa::kSrcA;
    const bool needsB = reads & isa::kSrcB;
    const bool isMac = reads & isa::kDst; // ew.mac: d += a * b
    if (needsA)
        MANNA_ASSERT(a.len == len || a.len == 1,
                     "%s srcA len %u incompatible with dst %u",
                     toString(inst.op), a.len, len);
    if (needsB)
        MANNA_ASSERT(b.len == len || b.len == 1,
                     "%s srcB len %u incompatible with dst %u",
                     toString(inst.op), b.len, len);

    // Functional semantics, computed by the tape (sim/replay.cc).
    ReplayOp rop;
    rop.kind = ReplayKind::Elementwise;
    rop.op = inst.op;
    rop.n = len;
    rop.pitchA = needsA ? a.len : 0;
    rop.pitchD = needsB ? b.len : 0;
    rop.imm = inst.imm;
    rop.a = needsA ? mem_.span(a.space, a.base, a.len) : nullptr;
    rop.b = needsB ? mem_.span(b.space, b.base, b.len) : nullptr;
    rop.d = mem_.span(dst.space, dst.base, len);
    emit(rop);
    if (!timed())
        return;

    StallPicker p(freeTime(TraceLane::Compute));
    p.consider(now_, StallReason::Issue);
    if (needsA)
        readDependency(a, p);
    if (needsB)
        readDependency(b, p);
    writeDependency(dst, p);
    if (isMac)
        readDependency(dst, p);
    const Cycle start = p.at;
    attributeStall(TraceLane::Compute, p);

    std::size_t penalty = 1;
    if (!cfg_.hasEmac && !isMac)
        penalty = cfg_.elwisePenaltyNoEmac;
    const Cycle dur = std::max<Cycle>(
        ceilDiv(len, cfg_.emacsPerTile) * penalty, 1);
    const Cycle end = start + dur;
    count(TileCounter::EmacBusyCycles,
          static_cast<double>(end - start));
    lastOpBusy_ = static_cast<double>(end - start);
    lastOpWords_ = len;
    freeTime(TraceLane::Compute) = end;
    if (needsA)
        noteRead(a, end);
    if (needsB)
        noteRead(b, end);
    noteWrite(dst, end, StallReason::Compute);
    finish(end);
    now_ = start + 1;

    // Energy.
    if (isMac) {
        charge(arch::EnergyEvent::EmacMac, len);
        count(TileCounter::EmacMacOps, len);
    } else if (needsA) { // fill does no arithmetic
        charge(arch::EnergyEvent::EmacElwise,
               static_cast<double>(len) * penalty);
        count(TileCounter::EmacElwiseOps, len);
    }
    if (needsA)
        charge(accessEvent(a.space), a.len == 1 ? 1.0 : len);
    if (needsB)
        charge(accessEvent(b.space), b.len == 1 ? 1.0 : len);
    charge(accessEvent(dst.space),
           static_cast<double>(len) * (isMac ? 2.0 : 1.0));
}

void
DiffMemTile::execSfu(const Instruction &inst)
{
    const Operand dst = resolveOperand(inst.dst);
    const Operand a = resolveOperand(inst.srcA);
    const isa::OpInfo &info = isa::opInfo(inst.op);
    const bool isAcc = info.sfuCost == isa::SfuCost::Acc;
    const bool needsB = info.reads & isa::kSrcB; // sfu.pow's exponent
    const std::uint32_t len = a.len;
    MANNA_ASSERT(len > 0, "SFU op with empty source");
    if (isAcc)
        MANNA_ASSERT(dst.len == 1, "SFU accumulate dst must be scalar");
    else
        MANNA_ASSERT(dst.len == len, "SFU dst len %u != src %u", dst.len,
                     len);

    Operand expOperand;
    const float *pexp = nullptr;
    if (needsB) {
        expOperand = resolveOperand(inst.srcB);
        MANNA_ASSERT(expOperand.len == 1,
                     "sfu.pow exponent must be scalar");
        pexp = mem_.span(expOperand.space, expOperand.base, 1);
    }

    // Functional semantics, computed by the tape (sim/replay.cc). The
    // SfuPow exponent pointer is recorded, not its value: the tape
    // re-reads it each step because tile code can update it.
    ReplayOp rop;
    rop.kind = ReplayKind::Sfu;
    rop.op = inst.op;
    rop.n = len;
    rop.a = mem_.span(a.space, a.base, len);
    rop.b = pexp;
    rop.d = mem_.span(dst.space, dst.base, dst.len);
    emit(rop);
    if (!timed())
        return;

    const std::size_t perElem =
        cfg_.*kSfuCycles[static_cast<std::size_t>(info.sfuCost)];

    StallPicker p(freeTime(TraceLane::Sfu));
    p.consider(now_, StallReason::Issue);
    readDependency(a, p);
    if (needsB)
        readDependency(expOperand, p);
    writeDependency(dst, p);
    const Cycle start = p.at;
    attributeStall(TraceLane::Sfu, p);
    // The SFU path is serial within a tile (Section 7.3's scaling
    // limiter): len elements at perElem cycles each, shared across
    // the tile's sfusPerTile units.
    const Cycle dur = std::max<Cycle>(
        ceilDiv(static_cast<std::uint64_t>(len) * perElem,
                cfg_.sfusPerTile),
        1);
    const Cycle end = start + dur;
    count(TileCounter::SfuBusyCycles,
          static_cast<double>(end - start));
    lastOpBusy_ = static_cast<double>(end - start);
    lastOpWords_ = len;
    freeTime(TraceLane::Sfu) = end;
    noteRead(a, end);
    noteWrite(dst, end, StallReason::SfuSerial);
    finish(end);
    now_ = start + 1;

    charge(arch::EnergyEvent::SfuOp, len);
    charge(accessEvent(a.space), len);
    charge(accessEvent(dst.space), dst.len);
    count(TileCounter::SfuOps, len);
}

const float *
DiffMemTile::operandSpan(const Operand &op) const
{
    const Operand r = resolveOperand(op);
    return mem_.span(r.space, r.base, r.len);
}

float *
DiffMemTile::operandSpanMut(const Operand &op)
{
    const Operand r = resolveOperand(op);
    return mem_.span(r.space, r.base, r.len);
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
