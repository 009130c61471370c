/**
 * @file
 * Cycle-level model of one DiffMem tile (Section 4.2).
 *
 * The tile interprets its compiled program for timing only. Every
 * instruction is timed through resource timelines:
 *
 *  - the eMAC array (compute instructions),
 *  - the SFU (serial special functions),
 *  - the matrix DMA/DMAT engine and the vector DMA engine,
 *  - the two halves of the double-buffered Matrix-Scratchpad.
 *
 * An instruction starts at the maximum of its resource-free time and
 * its data dependencies, and the issue pointer advances by one cycle,
 * so DMA transfers naturally run ahead of compute (double buffering)
 * while the per-half write/read trackers enforce buffer reuse
 * ordering. Communication instructions (Reduce/Broadcast) suspend the
 * tile; the Chip performs the exchange and resumes every tile at the
 * synchronized time (the paper's fence semantics).
 *
 * A tile program has no data-dependent control flow, and only its
 * operands' bases move with the loop counters: decodeProgram() works
 * out everything else about each static instruction once per machine
 * (its op's shape, lane, duration, counter increments and energy
 * charges), and the chip decodes its programs once, at construction.
 * At run time one path resolves an instruction's bases, bounds-checks
 * its spans and hands the resolved functional operation to the
 * attached ReplayTape, whose execTileOp() (sim/replay.hh) is the one
 * place tile math runs; a timed run then elects its start time and
 * applies its decoded accounting.
 *
 * No duration depends on data or on an address, and every timing
 * rule is invariant under a shift of all times. So once a static
 * loop's timing state, taken relative to the issue pointer, repeats
 * from one iteration to the next, every later iteration repeats the
 * last one shifted in time: runUntilComm() then advances the rest of
 * the loop in closed form (docs/PERF.md, "Checked timing steps"), with
 * every counter, energy and emitted op exactly as literal
 * interpretation gives them.
 */

#ifndef MANNA_SIM_TILE_HH
#define MANNA_SIM_TILE_HH

#include <cstdint>
#include <iterator>
#include <memory>
#include <vector>

#include "arch/energy_model.hh"
#include "arch/manna_config.hh"
#include "common/stat_registry.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "sim/replay.hh"
#include "sim/tile_memory.hh"
#include "sim/trace.hh"

namespace manna::sim
{

/** Why runUntilComm() returned. */
enum class RunStatus
{
    Done,  ///< program finished (end or Halt)
    AtComm ///< blocked on a Reduce/Broadcast
};

/**
 * Per-tile event counters, one array slot each. The 15 base counters
 * come first; the kNumLanes x kNumStallReasons stall counters follow
 * engine-major (TraceLane order) x reason-minor (StallReason order),
 * so stallCounter() is an index computation. Names are the dotted
 * registry keys of counterName().
 */
enum class TileCounter : std::uint8_t
{
    EmacBusyCycles,
    EmacMacOps,
    EmacElwiseOps,
    SfuBusyCycles,
    SfuOps,
    MatDmaBusyCycles,
    MatDmaWords,
    VecDmaBusyCycles,
    VecDmaWords,
    DmatLoads,
    DmatTransferCycles,
    SpadConflictFreeWords,
    SpadConflictWords,
    Instructions,
    CommInstructions,
    FirstStall,
    NumCounters = FirstStall + kNumLanes * kNumStallReasons,
};

constexpr std::size_t kNumTileCounters =
    static_cast<std::size_t>(TileCounter::NumCounters);

/** The counter charged while @p lane waits on @p reason. */
constexpr TileCounter
stallCounter(TraceLane lane, StallReason reason)
{
    return static_cast<TileCounter>(
        static_cast<std::size_t>(TileCounter::FirstStall) +
        static_cast<std::size_t>(lane) * kNumStallReasons +
        static_cast<std::size_t>(reason));
}

/** The busy-cycle counter of an engine lane. */
TileCounter busyCounter(TraceLane lane);

/** Registry key of a tile counter ("emac.busy_cycles", ...). */
const char *counterName(TileCounter c);

using isa::kNumOpcodes;

/**
 * A tile's accounting: event counters, per-opcode profile and
 * dynamic energy. Plain arrays, so a snapshot is a copy; the chip
 * report exports them into the stats registry.
 */
struct TileCounters
{
    /** Event counters, indexed by TileCounter. Every one is exported
     * (zero or not), so profile consumers and the docs catalog lint
     * see the full key set even for stall reasons a workload never
     * hits. */
    double ctr[kNumTileCounters] = {};
    /** Per-opcode totals, indexed by isa::Opcode. */
    double opCycles[kNumOpcodes] = {};
    double opOps[kNumOpcodes] = {};
    double opWords[kNumOpcodes] = {};
    Energy energyPj = 0.0;

    double counter(TileCounter c) const
    {
        return ctr[static_cast<std::size_t>(c)];
    }

    /** Write every counter into @p reg as "<prefix>.<name>". */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;

    /**
     * Write the per-opcode execution profile into @p reg as
     * "<prefix>.<opcode>.{cycles,ops,words}" (opcode names via
     * isa::profileKey()), covering every executed non-communication
     * instruction. `cycles` is the engine-busy time attributed to the
     * opcode, so per engine lane the profile cycles sum exactly to
     * that engine's busy_cycles.
     */
    void exportOpProfile(StatRegistry &reg,
                         const std::string &prefix) const;
};

/**
 * One static instruction of a tile program, decoded for one machine
 * (decodeProgram()): everything about executing it but its operands'
 * bases and its start time.
 */
struct DecodedInst
{
    /** Operand indices: srcA, srcB, dst (kNoOperand: none). */
    static constexpr std::uint8_t kNoOperand = 3;
    /** Where one of the op's pointers points: @p len words from
     * @p offset past the resolved base of an operand. */
    struct Span
    {
        std::uint8_t operand = kNoOperand;
        std::uint32_t offset = 0;
        std::uint32_t len = 0;
    };
    struct Charge
    {
        arch::EnergyEvent event;
        double occurrences;
    };
    struct Count
    {
        TileCounter counter;
        double amount;
    };

    /** The instruction, holding the unresolved operands. */
    const isa::Instruction *inst = nullptr;
    /** The op it emits, with null pointers. */
    ReplayOp op;
    /** The op's a, b, d and dn, in that order. */
    Span spans[4];
    /** isa::OperandRead bits of the operands whose pending writes
     * delay the start (kDst: an accumulating read of the destination,
     * which every compute instruction also writes), and of those whose
     * read ends free a scratchpad half. */
    std::uint8_t reads = 0;
    std::uint8_t noted = 0;
    /** A matrix load: it writes the scratchpad half it rotates to. */
    bool rotates = false;
    TraceLane lane = TraceLane::Compute;
    /** The stall reason a reader of the destination reports. */
    StallReason producer = StallReason::Issue;
    Cycle duration = 0;
    double busy = 0.0;  ///< duration less bank-conflict cycles
    double words = 0.0; ///< the op profile's words
    /** Energy charges, in order, and counter increments. */
    std::uint8_t numCharges = 0;
    std::uint8_t numCounts = 0;
    Charge charges[7];
    Count counts[5];

    void charge(arch::EnergyEvent ev, double occurrences)
    {
        MANNA_ASSERT(numCharges < std::size(charges), "too many charges");
        charges[numCharges++] = {ev, occurrences};
    }
    void count(TileCounter c, double amount = 1.0)
    {
        MANNA_ASSERT(numCounts < std::size(counts), "too many counts");
        counts[numCounts++] = {c, amount};
    }
};

/** A tile program and its memory sweeps, decoded for one machine: one
 * entry per instruction (control and communication ones stay empty). */
struct DecodedProgram
{
    const isa::Program *program = nullptr;
    const std::vector<compiler::SweepDesc> *sweeps = nullptr;
    std::vector<DecodedInst> insts;
};

/** Decode @p program for @p cfg; a malformed instruction fails here.
 * The program and sweeps are referenced, not copied. */
DecodedProgram
decodeProgram(const isa::Program &program, const arch::MannaConfig &cfg,
              const std::vector<compiler::SweepDesc> *sweeps = nullptr);

/**
 * Scratch records of the loop fast-forward (DiffMemTile::
 * runUntilComm()): the ops and energy charges of the open skippable
 * loops' last two iterations, and each loop's counters at the start
 * of its current iteration. A chip's tiles share one (a tile leaves
 * nothing in it when runUntilComm() returns), so its buffers grow once
 * and are reused across tiles and steps; both logs are bounded.
 */
struct LoopRecords
{
    std::vector<ReplayOp> ops;
    std::vector<Energy> charges;
    TileCounters iterStart[isa::kMaxLoopDepth];
    // A skip's working copies: the last iteration's ops (the tape's
    // run body, stepped once per iteration an enclosing loop logs),
    // their per-iteration pointer steps, and its charges.
    std::vector<ReplayOp> stepped;
    std::vector<ReplayStep> steps;
    std::vector<Energy> replay;
};

/** Per-space word counts for the tile's functional storage. */
struct TileLayoutSizes
{
    std::size_t matBufWords = 0;
    std::size_t matSpadWords = 0;
    std::size_t vecBufWords = 0;
    std::size_t vecSpadWords = 0;
};

/**
 * One DiffMem tile, running a decoded program (setProgram()).
 */
class DiffMemTile
{
  public:
    DiffMemTile(const arch::MannaConfig &cfg,
                const arch::EnergyModel &energy, std::size_t tileIndex,
                const TileLayoutSizes &sizes);
    /** Neither copied nor moved: it may point at its own program. */
    DiffMemTile(DiffMemTile &&) = delete;

    /** Install a decoded program and reset the program counter / loop
     * state (timing state is preserved across programs). While the
     * attached tape records, the ops of each of its sweeps' loop nests
     * are marked on it as that sweep's window. */
    void setProgram(const DecodedProgram *program);
    /** Install a raw program: the next runUntilComm() decodes it. */
    void setProgram(const isa::Program *program,
                    const std::vector<compiler::SweepDesc> *sweeps =
                        nullptr);

    /**
     * Run until the program ends or a communication instruction. A
     * loop of three or more iterations that reaches no communication
     * instruction is fast-forwarded once its timing reaches steady
     * state, unless a TraceLogger is attached (a trace lists every
     * instruction).
     */
    RunStatus runUntilComm();

    /** The communication instruction currently blocking (AtComm). */
    const isa::Instruction &commInstruction() const;

    /**
     * Advance past the blocking communication instruction and fence
     * all timing state to @p resumeAt (idle time charged to
     * `stall.fence`).
     */
    void resumeAfterComm(Cycle resumeAt);

    /**
     * Fence all timing state to @p at (segment boundaries). Each
     * engine's idle time up to the drain point is attributed to the
     * engine that finished last (e.g. `stall.sfu_serial` when the
     * serial SFU is the tail); the remaining wait until @p at is
     * charged to @p reason.
     */
    void alignTo(Cycle at, StallReason reason = StallReason::Drain);

    /** Zero all timing state, counters, and energy (chip reset). The
     * functional memory is the chip's to reinitialize. */
    void reset();

    /** Time at which every outstanding operation has completed. */
    Cycle quiesceTime() const { return maxEnd_; }

    /** Current issue-pointer time. */
    Cycle now() const { return now_; }

    /** Accumulated dynamic energy in pJ. */
    Energy energyPj() const { return acct_.energyPj; }

    /** Functional storage (for loading weights / inspecting state;
     * the replay tape's ops point into it). */
    TileMemory &memory() { return mem_; }
    const TileMemory &memory() const { return mem_; }

    std::size_t tileIndex() const { return tileIndex_; }

    /** Every event counter (macs, elwise ops, sfu ops, stalls, ...),
     * the op profile and the energy. */
    const TileCounters &counters() const { return acct_; }

    /** Attach (or detach, with nullptr) an instruction tracer. */
    void setTraceLogger(TraceLogger *logger) { trace_ = logger; }

    /**
     * Attach (or detach, with nullptr) the replay tape that receives
     * every executed instruction's resolved functional operation (see
     * sim/replay.hh). reset() detaches.
     */
    void setReplayTape(ReplayTape *tape) { tape_ = tape; }

    /** Keep the loop fast-forward's records in @p records (one per
     * chip, shared by its tiles); by default a tile allocates its own
     * on first use. */
    void shareLoopRecords(LoopRecords *records) { records_ = records; }

    /** Loops fast-forwarded since reset(), and the instructions they
     * advanced in closed form; the rest of the `instructions` counter
     * was interpreted. */
    std::size_t loopSkips() const { return loopSkips_; }
    double forwardedInstructions() const { return forwardedInsts_; }

    /** Resolved span of @p op against current loop state (for the
     * chip's comm-op recording). */
    float *operandSpan(const isa::Operand &op)
    {
        return span(op, 0, op.len);
    }

  private:
    /** @p len words from @p offset past @p op's base, resolved against
     * the loop counters and bounds-checked. */
    float *span(const isa::Operand &op, std::uint32_t offset,
                std::uint32_t len)
    {
        return mem_.span(op.space,
                         op.effectiveBase(iters_, loopStack_.size()) +
                             offset,
                         len);
    }

    /** Hand @p op to the attached tape, if any; the tile itself never
     * executes it. */
    void emit(const ReplayOp &op)
    {
        if (tape_ != nullptr)
            tape_->append(op);
        if (recording_)
            recordOp(op);
    }

    /** The pc at which the next sweep window opens or closes on a
     * recording tape, or none. */
    std::size_t sweepMark() const;
    /** Open or close that window. */
    void markSweep();

    /** False during the final iteration of a fast-forwarded loop,
     * which only resolves, checks and emits its ops. */
    bool timed() const { return quietDepth_ == 0; }

    /** Emit a compute instruction's op and, when timed, time it and
     * apply its decoded accounting. */
    void execute(const DecodedInst &di);

    /**
     * Start-time election with stall attribution: starts at the
     * engine's free time and takes the max over every candidate
     * constraint, remembering which one won (ties go to the higher
     * StallReason enumerator — the more specific explanation).
     */
    struct StallPicker
    {
        Cycle at;
        StallReason why = StallReason::Issue;

        explicit StallPicker(Cycle engineFree) : at(engineFree) {}

        void consider(Cycle t, StallReason r)
        {
            if (t > at || (t == at && r > why)) {
                at = t;
                why = r;
            }
        }
    };

    /** Charge the gap between the engine's free time and the elected
     * start to the winning stall reason. */
    void attributeStall(TraceLane lane, const StallPicker &picker);

    /** Data-dependency constraint for reading a resolved operand. */
    void readDependency(const isa::Operand &op, StallPicker &p);

    /** Record a read's completion (for scratchpad-half reuse). */
    void noteRead(const isa::Operand &op, Cycle end);

    /**
     * Matrix-Scratchpad half selection. The double-buffered halves
     * rotate with each matrix DMA load: loads target alternating
     * halves and every MatSpad access between two loads belongs to
     * the most recently loaded half. This models the paper's
     * fill-one-half-while-computing-on-the-other pipeline (Figure 8)
     * without requiring the compiler to alternate addresses.
     */
    std::size_t loadHalf() const { return dmaLoadCount_ % 2; }
    std::size_t computeHalf() const
    {
        return dmaLoadCount_ == 0 ? 0 : (dmaLoadCount_ - 1) % 2;
    }

    /** Charge energy for @p occurrences of an event. */
    void charge(arch::EnergyEvent ev, double occurrences)
    {
        const Energy pj = energy_.eventEnergyPj(ev) * occurrences;
        acct_.energyPj += pj;
        if (recording_)
            recordCharge(pj);
    }

    /** Add @p amount to an event counter. */
    void count(TileCounter c, double amount = 1.0)
    {
        acct_.ctr[static_cast<std::size_t>(c)] += amount;
    }

    // --- loop fast-forward ---------------------------------------------
    /**
     * The timing state a loop body sees, relative to now_: the engine
     * free times and the scratchpad-half (indexed from computeHalf())
     * and per-space dependency times the body touches, with their
     * stall tags. A dependency time before now_ can never win a
     * start-time election (each first considers now_), so it is
     * "dead", whatever its value. One equal to now_ is dead too: only
     * the last op on a lane can leave it, and then it equals that
     * lane's free time, which the shape keeps raw.
     */
    struct LoopShape
    {
        std::uint16_t touched = 0;
        bool loaded = false; ///< dmaLoadCount_ != 0
        std::int64_t free[kNumLanes] = {};
        std::int64_t spadWrite[2] = {}, spadRead[2] = {};
        std::int64_t lastWrite[5] = {};
        StallReason spadWhy[2] = {}, lastWhy[5] = {};
        bool operator==(const LoopShape &) const = default;
    };
    LoopShape loopShape() const;

    struct LoopFrame;
    void enterLoop(std::uint32_t count);
    void endLoopIteration();
    /** At the end of a skippable loop's iteration: skip the rest of
     * the loop if the last two iterations match, else remember this
     * one. */
    void loopBoundary(LoopFrame &frame, Cycle iterMax);
    void skipLoop(LoopFrame &frame, Cycle iterMax);
    /** Advance the timing state, counters and energy by @p r more
     * iterations like the last one. */
    void skipTime(LoopFrame &frame, Cycle iterMax, std::uint64_t r);

    void recordOp(const ReplayOp &op);
    void recordCharge(Energy pj);
    /** Recompute recording_; empty the logs when nothing records. */
    void updateRecording();
    /** No open loop may be skipped any more. */
    void stopRecording();

    // touched_ bits: one per engine lane, then one per memory space
    // (the MatSpad bit covers both scratchpad halves).
    static constexpr std::uint16_t touchBit(TraceLane lane)
    {
        return static_cast<std::uint16_t>(1u << static_cast<unsigned>(lane));
    }
    static constexpr std::uint16_t touchBit(isa::Space space)
    {
        return static_cast<std::uint16_t>(
            1u << (kNumLanes + static_cast<unsigned>(space)));
    }

    // --- configuration ------------------------------------------------
    const arch::MannaConfig &cfg_;
    const arch::EnergyModel &energy_;
    std::size_t tileIndex_;

    // --- functional state ----------------------------------------------
    TileMemory mem_;

    // --- program state ---------------------------------------------------
    const DecodedProgram *program_ = nullptr;
    /** A raw program setProgram() installed, decoded by runUntilComm(),
     * where a malformed instruction fails the run. */
    DecodedProgram ownProgram_;
    std::size_t pc_ = 0;
    std::size_t nextSweep_ = 0; ///< the next sweep to open or close
    bool sweepOpen_ = false;
    struct LoopFrame
    {
        std::size_t bodyPc = 0;  ///< pc of the first body instruction
        std::uint32_t count = 0; ///< trip count
        std::int64_t iter = 0;   ///< current iteration
        // Fast-forward state (runUntilComm()).
        bool skippable = false;
        std::uint16_t outerTouched = 0; ///< enclosing body's touched_
        Cycle outerIterMax = 0;         ///< enclosing body's iterMax_
        Cycle loopMax = 0; ///< latest end of this loop's iterations
        // At the end of the previous iteration:
        LoopShape prevShape;
        Cycle prevNow = 0;
        std::uint64_t prevLoads = 0;
        /** Where the previous and the current iteration begin in
         * LoopRecords::ops and ::charges. */
        std::size_t opsAt[2] = {0, 0};
        std::size_t chargesAt[2] = {0, 0};
    };
    std::vector<LoopFrame> loopStack_;
    std::int64_t iters_[isa::kMaxLoopDepth] = {0, 0, 0};

    /** Engine free time, indexed by TraceLane. */
    Cycle &freeTime(TraceLane lane)
    {
        return engineFree_[static_cast<std::size_t>(lane)];
    }
    Cycle freeTime(TraceLane lane) const
    {
        return engineFree_[static_cast<std::size_t>(lane)];
    }

    // --- timing state ------------------------------------------------------
    Cycle now_ = 0;
    Cycle engineFree_[kNumLanes] = {0, 0, 0, 0};
    Cycle spadWriteEnd_[2] = {0, 0};
    Cycle spadReadEnd_[2] = {0, 0};
    Cycle lastWrite_[5] = {0, 0, 0, 0, 0}; ///< indexed by Space
    /** Stall reason a reader blames while waiting on spadWriteEnd_ /
     * lastWrite_ (who produced the pending value). */
    StallReason spadWriteWhy_[2] = {StallReason::Issue,
                                    StallReason::Issue};
    StallReason lastWriteWhy_[5] = {
        StallReason::Issue, StallReason::Issue, StallReason::Issue,
        StallReason::Issue, StallReason::Issue};
    Cycle maxEnd_ = 0;
    std::uint64_t dmaLoadCount_ = 0; ///< matrix loads issued (parity)
    /** Latest end within the innermost loop's current iteration. */
    Cycle iterMax_ = 0;
    /** Lanes and spaces the innermost loop's body has used so far. */
    std::uint16_t touched_ = 0;

    // --- accounting ----------------------------------------------------------
    TileCounters acct_;
    TraceLogger *trace_ = nullptr;
    ReplayTape *tape_ = nullptr;

    // --- loop fast-forward -----------------------------------------------
    LoopRecords *records_ = nullptr;
    std::unique_ptr<LoopRecords> ownRecords_;
    /** Some open loop is skippable: log ops and charges. */
    bool recording_ = false;
    /** Depth (1-based) of the loop whose final iteration runs untimed;
     * 0 while timing. */
    std::size_t quietDepth_ = 0;
    std::size_t loopSkips_ = 0;
    double forwardedInsts_ = 0.0;
};

/**
 * Run @p tile's program on its own, without a chip: time it up to
 * its end or next communication instruction, recording its ops on a
 * scratch tape, then compute them with execTileOp(). Any tape
 * attached to @p tile is detached.
 */
RunStatus runAndCompute(DiffMemTile &tile);

} // namespace manna::sim

#endif // MANNA_SIM_TILE_HH
