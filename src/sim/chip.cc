#include "chip.hh"

#include <algorithm>
#include <cstdio>

#include "common/error.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "tensor/vector_ops.hh"

namespace manna::sim
{

using compiler::CommTag;
using isa::Instruction;
using isa::Opcode;

double
RunReport::stepsPerJoule() const
{
    const double joules = totalEnergyJoules();
    return joules > 0.0 ? static_cast<double>(steps) / joules : 0.0;
}

double
RunReport::secondsPerStep() const
{
    return steps > 0 ? totalSeconds / static_cast<double>(steps) : 0.0;
}

std::string
RunReport::render() const
{
    std::string out = strformat(
        "steps=%zu cycles=%llu time=%.6f ms energy=%.6f mJ "
        "(leakage %.6f mJ, infra %.6f mJ) steps/J=%.1f\n",
        steps, static_cast<unsigned long long>(totalCycles),
        totalSeconds * 1e3, totalEnergyPj() * 1e-9,
        leakageEnergyPj * 1e-9, infrastructureEnergyPj * 1e-9,
        stepsPerJoule());
    for (const auto &[group, gs] : groups) {
        out += strformat("  %-16s %12llu cycles  %10.3f uJ\n",
                         mann::toString(group),
                         static_cast<unsigned long long>(gs.cycles),
                         gs.energyPj * 1e-6);
    }
    if (!resourceUtilization.empty()) {
        out += "  utilization:";
        for (const auto &[name, util] : resourceUtilization)
            out += strformat(" %s %.1f%%", name.c_str(), util * 100.0);
        out += "\n";
    }
    return out;
}

void
describeRunStats(StatRegistry &reg)
{
    // Engine activity and the stall taxonomy (docs/OBSERVABILITY.md).
    reg.describe("busy_cycles",
                 "cycles the unit was executing an operation");
    reg.describe("idle_cycles",
                 "sum of this unit's stall.* buckets (== cycles-busy)");
    reg.describe("stall.issue",
                 "waiting on the single-issue in-order frontend");
    reg.describe("stall.ctrl",
                 "waiting for the Controller tile forward pass");
    reg.describe("stall.fence",
                 "waiting at a reduce/broadcast synchronization");
    reg.describe("stall.drain",
                 "waiting for a segment/buffer drain to complete");
    reg.describe("stall.dma",
                 "waiting on a DMA transfer (double buffer not ready)");
    reg.describe("stall.compute",
                 "waiting on an eMAC-array result");
    reg.describe("stall.sfu_serial",
                 "waiting on the serial SFU (Fig. 12 limiter)");
    reg.describe("stall.bank_conflict",
                 "lost throughput from scratchpad bank conflicts");
    reg.describe("stall.diffmem_wait",
                 "controller idle while DiffMem tiles execute");
    reg.describe("stall.idle", "no transfer in flight on the NoC");
    // Work counters.
    reg.describe("emac.mac_ops", "multiply-accumulate operations");
    reg.describe("emac.elwise_ops", "element-wise ALU operations");
    reg.describe("sfu.ops", "serial special-function evaluations");
    reg.describe("mat_dma.words", "matrix DMA words transferred");
    reg.describe("vec_dma.words", "vector DMA words transferred");
    reg.describe("dmat.loads", "DMAT matrix-load commands");
    reg.describe("dmat.transfer_cycles",
                 "cycles of DMAT streaming into the scratchpad");
    reg.describe("spad.conflict_free_words",
                 "scratchpad words served without bank conflict");
    reg.describe("spad.conflict_words",
                 "scratchpad words serialized by bank conflicts");
    reg.describe("instructions", "instructions executed by the tile");
    reg.describe("comm_instructions",
                 "reduce/broadcast instructions executed");
    reg.describe("energy_pj", "dynamic energy in picojoules");
    // Per-opcode profile (profile.<tile>.<opcode>.*). These are bare
    // suffix patterns, so exact entries below pin down the NoC/ctrl
    // counters that share a leaf name.
    reg.describe("cycles", "engine-busy cycles charged to this opcode");
    reg.describe("ops", "executed instances of this opcode");
    reg.describe("words", "data words processed by this opcode");
    // NoC and controller-tile counters.
    reg.describe("noc.reduce.ops", "reduce exchanges performed");
    reg.describe("noc.reduce.words", "words reduced to the root");
    reg.describe("noc.reduce.cycles", "cycles spent in reduces");
    reg.describe("noc.reduce.steps", "store-and-forward reduce hops");
    reg.describe("noc.broadcast.ops", "broadcast exchanges performed");
    reg.describe("noc.broadcast.words", "words broadcast to leaves");
    reg.describe("noc.broadcast.cycles", "cycles spent in broadcasts");
    reg.describe("noc.broadcast.steps",
                 "store-and-forward broadcast hops");
    reg.describe("ctrl.cycles",
                 "controller-tile cycles added to chip time");
    reg.describe("ctrl.dense_layers", "dense layers evaluated");
    reg.describe("ctrl.array_passes", "systolic-array passes");
    reg.describe("ctrl.macs", "controller multiply-accumulates");
    reg.describe("ctrl.activations", "controller activation lanes");
    reg.describe("ctrl.forward_passes", "controller forward passes");
    // Chip-level rollups.
    reg.describe("chip.steps", "MANN time steps simulated");
    reg.describe("chip.cycles", "total simulated chip cycles");
    reg.describe("chip.tiles", "DiffMem tile count");
    reg.describe("chip.energy.dynamic_pj", "dynamic energy (pJ)");
    reg.describe("chip.energy.leakage_pj", "leakage energy (pJ)");
    reg.describe("chip.energy.infrastructure_pj",
                 "clock/control/periphery energy (pJ)");
    reg.describe("chip.util.emac", "mean eMAC-array utilization");
    reg.describe("chip.util.sfu", "mean SFU utilization");
    reg.describe("chip.util.mat_dma", "mean matrix-DMA utilization");
    reg.describe("chip.util.vec_dma", "mean vector-DMA utilization");
    // Fidelity markers (emitted in both cycle and fast mode).
    reg.describe("fidelity.fast",
                 "1 when the run used fidelity=fast, else 0");
    reg.describe("fidelity.calibration_steps",
                 "cycle-accurate steps behind a fast-mode report");
    reg.describe("fidelity.extrapolated_steps",
                 "steps covered by linear extrapolation");
    reg.describe("fidelity.analytic_cycles_per_step",
                 "op-counter peak-rate cycles/step estimate");
}

namespace
{

/**
 * Build @p rep from @p s: copy its totals and groups, fill
 * @p rep.stats with the dotted counter hierarchy of a chip run
 * (tile.<n>.*, noc.*, ctrl.*, chip.*) and derive
 * @p rep.resourceUtilization from the per-tile busy-cycle counters.
 */
void
populateRunStats(RunReport &rep, const CounterState &s)
{
    // Engine key prefixes, indexed by TraceLane.
    static constexpr const char *kEngines[kNumLanes] = {
        "emac", "sfu", "mat_dma", "vec_dma"};
    rep.steps = s.steps;
    rep.totalCycles = s.totalCycles;
    rep.totalSeconds = s.totalSeconds;
    rep.dynamicEnergyPj = s.dynamicEnergyPj;
    rep.leakageEnergyPj = s.leakageEnergyPj;
    rep.infrastructureEnergyPj = s.infrastructureEnergyPj;
    rep.groups = s.groups;
    // Every report carries the same descriptions: copy them.
    static const StatRegistry described = [] {
        StatRegistry r;
        describeRunStats(r);
        return r;
    }();
    rep.stats = described;
    StatRegistry &reg = rep.stats;
    const double total = static_cast<double>(rep.totalCycles);
    // Every busy count is an integer-valued double, so these sums are
    // exact in any order.
    double laneBusy[kNumLanes] = {};
    std::string key;
    for (std::size_t t = 0; t < s.tiles.size(); ++t) {
        const TileCounters &tile = s.tiles[t];
        const std::string prefix = strformat("tile.%zu", t);
        tile.exportStats(reg, prefix);
        tile.exportOpProfile(reg, strformat("profile.%zu", t));
        for (std::size_t l = 0; l < kNumLanes; ++l) {
            const auto lane = static_cast<TraceLane>(l);
            const double busy = tile.counter(busyCounter(lane));
            double stalls = 0.0;
            for (std::size_t r = 0; r < kNumStallReasons; ++r)
                stalls += tile.counter(
                    stallCounter(lane, static_cast<StallReason>(r)));
            // Cycle accounting is closed: every engine cycle is
            // either busy or attributed to exactly one stall reason.
            // All values are integer-valued doubles, so the equality
            // is exact (extrapolated counters included); a mismatch
            // means a timing path forgot (or double-counted) an
            // attribution.
            MANNA_ASSERT(busy + stalls == total,
                         "tile %zu %s: busy %g + stalls %g != chip "
                         "cycles %g",
                         t, kEngines[l], busy, stalls, total);
            laneBusy[l] += busy;
            key.assign(prefix).append(".").append(kEngines[l]);
            reg.set(key.append(".idle_cycles"), stalls);
        }
        reg.set(key.assign(prefix).append(".energy_pj"), tile.energyPj);
    }
    s.noc.exportStats(reg, "noc");
    s.ctrl.exportStats(reg, "ctrl");
    // The NoC is busy exactly during the recorded reduce/broadcast
    // exchanges (their intervals never overlap: each one starts at or
    // after the previous chip time); the controller tile is busy for
    // the cycles its forward passes contributed to chip time. The
    // remainder is attributed as a single stall bucket each.
    const double nocBusy = s.noc.counter(NocCounter::ReduceCycles) +
                           s.noc.counter(NocCounter::BroadcastCycles);
    MANNA_ASSERT(nocBusy <= total,
                 "noc busy %g exceeds chip cycles %g", nocBusy, total);
    reg.set("noc.busy_cycles", nocBusy);
    reg.set("noc.stall.idle", total - nocBusy);
    const double ctrlBusy = s.ctrl.counter(CtrlCounter::Cycles);
    MANNA_ASSERT(ctrlBusy <= total,
                 "ctrl busy %g exceeds chip cycles %g", ctrlBusy,
                 total);
    reg.set("ctrl.busy_cycles", ctrlBusy);
    reg.set("ctrl.stall.diffmem_wait", total - ctrlBusy);
    reg.set("chip.steps", static_cast<double>(rep.steps));
    reg.set("chip.cycles", total);
    reg.set("chip.tiles", static_cast<double>(s.tiles.size()));
    reg.set("chip.energy.dynamic_pj", rep.dynamicEnergyPj);
    reg.set("chip.energy.leakage_pj", rep.leakageEnergyPj);
    reg.set("chip.energy.infrastructure_pj",
            rep.infrastructureEnergyPj);
    if (rep.totalCycles > 0 && !s.tiles.empty()) {
        const double denom =
            total * static_cast<double>(s.tiles.size());
        for (std::size_t l = 0; l < kNumLanes; ++l) {
            const double util = laneBusy[l] / denom;
            rep.resourceUtilization[kEngines[l]] = util;
            reg.set(std::string("chip.util.") + kEngines[l], util);
        }
    }
}

} // namespace

ChipEngine::ChipEngine(const arch::MannaConfig &arch,
                       const TileLayoutSizes &sizes,
                       const std::vector<compiler::CompiledSegment> &segments,
                       const mann::MannConfig &shape, Fidelity fidelity)
    : arch_(arch), segments_(segments), shape_(shape), energy_(arch),
      noc_(arch, energy_), ctrlModel_(arch, energy_),
      readVectors_(shape.numReadHeads, tensor::FVec(shape.memM, 0.0f)),
      fidelity_(fidelity)
{
    // Fresh tiles, zeroed memory and empty accounting are already the
    // state reset() restores.
    for (std::size_t t = 0; t < arch_.numTiles; ++t) {
        tiles_.push_back(
            std::make_unique<DiffMemTile>(arch_, energy_, t, sizes));
        tiles_.back()->shareLoopRecords(&loopRecords_);
    }
    for (const compiler::CompiledSegment &segment : segments_)
        for (std::size_t t = 0; t < arch_.numTiles; ++t)
            programs_.push_back(decodeProgram(segment.tilePrograms[t],
                                              arch_,
                                              &segment.tileSweeps[t]));
}

void
ChipEngine::reset()
{
    for (auto &tile : tiles_) {
        tile->memory().clear();
        tile->reset();
    }
    noc_.resetStats();
    ctrlModel_.resetStats();
    readVectors_.assign(shape_.numReadHeads,
                        tensor::FVec(shape_.memM, 0.0f));
    nocBuffer_.clear();
    nocWords_ = 0;
    tape_.clear();
    chipTime_ = 0;
    nocEnergyPj_ = 0.0;
    ctrlEnergyPj_ = 0.0;
    groups_.clear();
    steps_ = 0;
    calib1_ = CounterState();
    calib2_ = CounterState();
}

void
ChipEngine::loadPartition(const compiler::RowPartition &part,
                          const tensor::FMat &source)
{
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
        const std::uint32_t rows = part.rowCount[t];
        const std::uint32_t start = part.rowStart[t];
        for (std::uint32_t r = 0; r < rows; ++r) {
            tiles_[t]->memory().writeRange(
                isa::Space::MatBuf, part.base + r * part.cols,
                source.row(start + r));
        }
    }
}

tensor::FMat
ChipEngine::gatherPartition(const compiler::RowPartition &part,
                            std::size_t totalRows) const
{
    tensor::FMat out(totalRows, part.cols);
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
        const std::uint32_t rows = part.rowCount[t];
        const std::uint32_t start = part.rowStart[t];
        for (std::uint32_t r = 0; r < rows; ++r) {
            out.setRow(start + r,
                       tiles_[t]->memory().readRange(
                           isa::Space::MatBuf,
                           part.base + r * part.cols, part.cols));
        }
    }
    return out;
}

void
ChipEngine::checkCancelled() const
{
    if (cancel_ && cancel_->cancelled())
        throw SimError(strformat(
            "simulation cancelled after %zu completed steps "
            "(watchdog timeout or supervisor abort)",
            steps_));
}

tensor::FVec
ChipEngine::step(mann::Controller &controller, const tensor::FVec &input)
{
    checkCancelled();
    MANNA_ASSERT(input.size() == shape_.inputDim,
                 "chip input size %zu != %zu", input.size(),
                 shape_.inputDim);

    // ---- Controller tile ----
    ctrlInput_.clear();
    ctrlInput_.insert(ctrlInput_.end(), input.begin(), input.end());
    for (const auto &r : readVectors_)
        ctrlInput_.insert(ctrlInput_.end(), r.begin(), r.end());
    mann::ControllerOutput ctrl = controller.forward(ctrlInput_);
    // Augment the hidden state with the constant-one bias lane: the
    // head/interface weight slices carry the bias as an extra column.
    pendingHidden_.assign(ctrl.hidden.begin(), ctrl.hidden.end());
    pendingHidden_.push_back(1.0f);

    // ---- DiffMem tile segments ----
    // Timed steps derive this step's ops; the tape computes them. Fast
    // mode stops timing after its calibration prefix.
    if (fidelity_ == Fidelity::Cycle || steps_ < kFastCalibrationSteps)
        timeStep();
    runTape();

    ++steps_;
    if (fidelity_ == Fidelity::Fast) {
        if (steps_ == kFastCalibrationSteps - 1)
            calib1_ = counterState();
        else if (steps_ == kFastCalibrationSteps)
            calib2_ = counterState();
    }
    return std::move(ctrl.output);
}

void
ChipEngine::timeStep()
{
    const CtrlCost ctrlCost = ctrlModel_.forwardCost(shape_);
    ctrlEnergyPj_ += ctrlCost.energyPj;
    auto &ctrlGroup = groups_[mann::KernelGroup::Controller];
    ctrlGroup.cycles += ctrlCost.cycles;
    ctrlGroup.energyPj += ctrlCost.energyPj;
    chipTime_ += ctrlCost.cycles;
    controllerReady_ = chipTime_;
    for (auto &tile : tiles_)
        tile->alignTo(std::max(tile->quiesceTime(), chipTime_),
                      StallReason::Ctrl);

    // Step 1 records the tape; every later timed step must resolve
    // exactly the recorded ops, or the tape would compute a stale step.
    const bool record = !tape_.ready();
    if (record)
        tape_.startRecording();
    else
        tape_.startCheck();
    for (auto &tile : tiles_)
        tile->setReplayTape(&tape_);
    for (std::size_t s = 0; s < segments_.size(); ++s)
        runSegment(s);
    if (!record) {
        tape_.checkStep(steps_ + 1);
        return;
    }
    tape_.finishRecording();
    if (replayDebug()) {
        double total = 0.0, forwarded = 0.0;
        std::size_t skips = 0;
        for (const auto &tile : tiles_) {
            total += tile->counters().counter(TileCounter::Instructions);
            forwarded += tile->forwardedInstructions();
            skips += tile->loopSkips();
        }
        std::fprintf(stderr,
                     "replay: timing interpreted %.0f instructions, "
                     "fast-forwarded %.0f in %zu loop skips\n",
                     total - forwarded, forwarded, skips);
    }
}

std::vector<tensor::FVec>
ChipEngine::run(mann::Controller &controller,
                const std::vector<tensor::FVec> &inputs)
{
    std::vector<tensor::FVec> outputs;
    outputs.reserve(inputs.size());
    for (const auto &x : inputs)
        outputs.push_back(step(controller, x));
    return outputs;
}

void
ChipEngine::runTape()
{
    for (const ReplayOp &op : tape_.ops()) {
        switch (op.kind) {
          case ReplayKind::Reduce:
          case ReplayKind::ReadVectorOut:
          case ReplayKind::Broadcast:
          case ReplayKind::UsageToAlloc:
            execCommOp(op, tape_, nocBuffer_, readVectors_,
                       pendingHidden_);
            break;
          default:
            execTileOp(op, &tape_);
            break;
        }
    }
}

void
ChipEngine::runSegment(std::size_t s)
{
    const compiler::CompiledSegment &segment = segments_[s];
    const Cycle segStart = chipTime_;
    tileEnergyBefore_.clear();
    for (auto &tile : tiles_)
        tileEnergyBefore_.push_back(tile->energyPj());
    const Energy nocBefore = nocEnergyPj_;

    for (auto &tile : tiles_)
        tile->alignTo(std::max(tile->quiesceTime(), segStart));
    for (std::size_t t = 0; t < tiles_.size(); ++t)
        tiles_[t]->setProgram(&programs_[s * tiles_.size() + t]);
    while (true) {
        checkCancelled();
        bool allDone = true;
        for (auto &tile : tiles_)
            if (tile->runUntilComm() == RunStatus::AtComm)
                allDone = false;
        if (allDone)
            break;

        // SPMD: every tile must block on the same instruction shape.
        const Instruction &inst = tiles_[0]->commInstruction();
        for (std::size_t t = 1; t < tiles_.size(); ++t) {
            const Instruction &other = tiles_[t]->commInstruction();
            MANNA_ASSERT(other.op == inst.op &&
                             other.srcA.len == inst.srcA.len &&
                             other.dst.len == inst.dst.len,
                         "tiles diverged at a communication point");
        }
        handleComm(inst);
    }

    // Close the segment: synchronize all tiles.
    Cycle segEnd = segStart;
    for (auto &tile : tiles_)
        segEnd = std::max(segEnd, tile->quiesceTime());
    for (auto &tile : tiles_)
        tile->alignTo(segEnd);
    chipTime_ = segEnd;

    auto &gs = groups_[segment.group];
    gs.cycles += segEnd - segStart;
    for (std::size_t t = 0; t < tiles_.size(); ++t)
        gs.energyPj += tiles_[t]->energyPj() - tileEnergyBefore_[t];
    gs.energyPj += nocEnergyPj_ - nocBefore;
}

void
ChipEngine::handleComm(const Instruction &inst)
{
    const CommTag tag = compiler::commTagOf(inst.count);

    Cycle commStart = 0;
    for (auto &tile : tiles_)
        commStart = std::max(commStart, tile->quiesceTime());

    ReplayOp rop;
    rop.rows = static_cast<std::uint32_t>(tiles_.size());
    if (inst.op == Opcode::Reduce) {
        const std::size_t words = inst.srcA.len;
        commSrcPtrs_.clear();
        for (auto &tile : tiles_)
            commSrcPtrs_.push_back(tile->operandSpan(inst.srcA));
        rop.kind = ReplayKind::Reduce;
        rop.n = static_cast<std::uint32_t>(words);
        if (inst.flags.reduceOp != isa::ReduceOp::Sum)
            rop.flags |= kReplayReduceMax;
        tape_.append(rop, commSrcPtrs_);
        nocWords_ = words;
        nocEnergyPj_ += noc_.reduceEnergyPj(words);
        noc_.recordReduce(words, noc_.reduceCycles(words));
        chipTime_ = commStart + noc_.reduceCycles(words);

        if (tag == CommTag::ReadVectorOut) {
            const std::uint32_t h = compiler::commIndexOf(inst.count);
            MANNA_ASSERT(h < readVectors_.size(),
                         "read-vector index %u out of range", h);
            ReplayOp out;
            out.kind = ReplayKind::ReadVectorOut;
            out.n = rop.n;
            out.rows = h;
            tape_.append(out);
        } else if (tag == CommTag::UsageToAllocation) {
            // The Controller tile runs the DNC free-list scan (the
            // tape's UsageToAlloc op). Its sort-network latency
            // (~N log2 N cycles) and one SFU-class op per element
            // scanned are charged here.
            const auto n = rop.n;
            ReplayOp scan;
            scan.kind = ReplayKind::UsageToAlloc;
            scan.n = n;
            tape_.append(scan);
            chipTime_ += static_cast<Cycle>(n) *
                         std::max<std::uint32_t>(log2Ceil(n), 1);
            const Energy scanPj =
                static_cast<double>(n) *
                energy_.eventEnergyPj(arch::EnergyEvent::SfuOp);
            ctrlEnergyPj_ += scanPj;
            groups_[mann::KernelGroup::Addressing].energyPj += scanPj;
        }
    } else {
        MANNA_ASSERT(inst.op == Opcode::Broadcast,
                     "unexpected comm opcode");
        if (tag == CommTag::HiddenIn) {
            // Payload comes from the Controller tile at the root; the
            // broadcast cannot start before the controller finished.
            commStart = std::max(commStart, controllerReady_);
            nocWords_ = pendingHidden_.size();
            rop.flags |= kReplayHiddenIn;
        }
        const std::size_t words = inst.dst.len;
        MANNA_ASSERT(nocWords_ == words,
                     "broadcast of %zu words but NoC buffer holds %zu",
                     words, nocWords_);
        commDstPtrs_.clear();
        for (auto &tile : tiles_)
            commDstPtrs_.push_back(tile->operandSpan(inst.dst));
        rop.kind = ReplayKind::Broadcast;
        rop.n = static_cast<std::uint32_t>(words);
        tape_.append(rop, commDstPtrs_);
        nocEnergyPj_ += noc_.broadcastEnergyPj(words);
        noc_.recordBroadcast(words, noc_.broadcastCycles(words));
        chipTime_ = commStart + noc_.broadcastCycles(words);
    }

    for (auto &tile : tiles_)
        tile->resumeAfterComm(chipTime_);
}

CounterState
ChipEngine::counterState() const
{
    CounterState s;
    s.steps = steps_;
    s.totalCycles = chipTime_;
    s.totalSeconds =
        static_cast<double>(chipTime_) * arch_.cyclePeriodSec();
    s.dynamicEnergyPj = ctrlEnergyPj_ + nocEnergyPj_;
    s.tiles.reserve(tiles_.size());
    for (const auto &tile : tiles_) {
        s.dynamicEnergyPj += tile->energyPj();
        s.tiles.push_back(tile->counters());
    }
    s.leakageEnergyPj = energy_.leakageWatts() * s.totalSeconds * 1e12;
    s.infrastructureEnergyPj =
        energy_.infrastructureWatts() * s.totalSeconds * 1e12;
    s.groups = groups_;
    s.noc = noc_.counters();
    s.ctrl = ctrlModel_.counters();
    return s;
}

RunReport
ChipEngine::report() const
{
    RunReport rep;
    if (fidelity_ == Fidelity::Fast && steps_ > kFastCalibrationSteps)
        populateRunStats(rep,
                         extrapolateCounters(calib1_, calib2_, steps_));
    else
        populateRunStats(rep, counterState());
    std::size_t calibrated = 0;
    std::size_t extrapolated = 0;
    if (fidelity_ == Fidelity::Fast) {
        calibrated = std::min(steps_, kFastCalibrationSteps);
        extrapolated = steps_ - calibrated;
    }
    markFidelity(rep, fidelity_, calibrated, extrapolated,
                 analyticCyclesPerStep(shape_, arch_));
    return rep;
}

void
ChipEngine::attachTrace(TraceLogger *logger)
{
    for (auto &tile : tiles_)
        tile->setTraceLogger(logger);
}

// ---------------------------------------------------------------------
// NTM driver
// ---------------------------------------------------------------------

Chip::Chip(const compiler::CompiledModel &model, std::uint64_t seed,
           Fidelity fidelity)
    : model_(model), ntm_(model.mannCfg, seed),
      engine_(model.archCfg,
              {model.layout.matBufWords, model.layout.matSpadWords,
               model.layout.vecBufWords, model.layout.vecSpadWords},
              model.stepSegments, model.mannCfg, fidelity)
{
    loadState();
}

void
Chip::reset()
{
    ntm_.reset();
    engine_.reset();
    loadState();
}

void
Chip::loadState()
{
    const auto &layout = model_.layout;
    const auto &mc = model_.mannCfg;

    // Differentiable memory slices (initial NTM image).
    engine_.loadPartition(layout.memory, ntm_.memory().matrix());

    // Head weight slices (read heads then write heads), with the head
    // bias appended as an extra column multiplied by the augmented
    // constant-one hidden lane; plus the initial previous weighting
    // (all attention on global row 0).
    const std::size_t numHeads = mc.numReadHeads + mc.numWriteHeads;
    for (std::size_t h = 0; h < numHeads; ++h) {
        const bool isWrite = h >= mc.numReadHeads;
        const mann::Head &head =
            isWrite ? ntm_.writeHeads()[h - mc.numReadHeads]
                    : ntm_.readHeads()[h];
        const auto &part = layout.headWeights[h];
        MANNA_ASSERT(part.cols == head.weights().cols() + 1,
                     "head %zu layout cols %u != weights cols %zu + 1",
                     h, part.cols, head.weights().cols());
        for (std::size_t t = 0; t < engine_.numTiles(); ++t) {
            const std::uint32_t rows = part.rowCount[t];
            const std::uint32_t start = part.rowStart[t];
            for (std::uint32_t r = 0; r < rows; ++r) {
                tensor::FVec row = head.weights().row(start + r);
                row.push_back(head.bias()[start + r]);
                engine_.tile(t).memory().writeRange(
                    isa::Space::MatBuf, part.base + r * part.cols,
                    row);
            }
        }

        for (std::size_t t = 0; t < engine_.numTiles(); ++t) {
            const std::uint32_t rows = layout.memory.rowCount[t];
            if (rows == 0)
                continue;
            std::vector<float> wPrev(rows, 0.0f);
            if (layout.memory.rowStart[t] == 0)
                wPrev[0] = 1.0f; // matches Ntm::reset()
            engine_.tile(t).memory().writeRange(
                isa::Space::VecBuf, layout.wPrevBase[h], wPrev);
        }
    }
}

tensor::FMat
Chip::gatherMemory() const
{
    return engine_.gatherPartition(model_.layout.memory,
                                   model_.mannCfg.memN);
}

} // namespace manna::sim
