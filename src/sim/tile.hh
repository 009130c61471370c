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
 * No instruction's duration depends on data, so the tile computes
 * nothing: it bounds-checks each instruction's operands and hands the
 * resolved functional operation to the attached ReplayTape, whose
 * execTileOp() (sim/replay.hh) is the one place tile math runs.
 */

#ifndef MANNA_SIM_TILE_HH
#define MANNA_SIM_TILE_HH

#include <cstdint>
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

constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(isa::Opcode::NumOpcodes);

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

/** Per-space word counts for the tile's functional storage. */
struct TileLayoutSizes
{
    std::size_t matBufWords = 0;
    std::size_t matSpadWords = 0;
    std::size_t vecBufWords = 0;
    std::size_t vecSpadWords = 0;
};

/**
 * One DiffMem tile.
 */
class DiffMemTile
{
  public:
    DiffMemTile(const arch::MannaConfig &cfg,
                const arch::EnergyModel &energy, std::size_t tileIndex,
                const TileLayoutSizes &sizes);

    /** Install a program and reset the program counter / loop state
     * (timing state is preserved across programs). */
    void setProgram(const isa::Program *program);

    /** Run until the program ends or a communication instruction. */
    RunStatus runUntilComm();

    /** The communication instruction currently blocking (AtComm). */
    const isa::Instruction &commInstruction() const;

    /**
     * Resolve an operand against the current loop iteration state
     * (applies the per-level strides to the base address).
     */
    isa::Operand resolveOperand(const isa::Operand &op) const;

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

    /** Resolved span of @p op against current loop state (for the
     * chip's comm-op recording). */
    const float *operandSpan(const isa::Operand &op) const;
    float *operandSpanMut(const isa::Operand &op);

  private:
    /** Hand @p op to the attached tape, if any; the tile itself never
     * executes it. */
    void emit(const ReplayOp &op)
    {
        if (tape_ != nullptr)
            tape_->append(op);
    }

    // --- execution helpers -------------------------------------------
    void execute(const isa::Instruction &inst);
    void execDmaMatrix(const isa::Instruction &inst);
    void execDmaVector(const isa::Instruction &inst);
    void execVmm(const isa::Instruction &inst);
    void execElementwise(const isa::Instruction &inst);
    void execSfu(const isa::Instruction &inst);

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
    void readDependency(const isa::Operand &op, StallPicker &p) const;

    /** Constraint for writing a resolved operand (WAR/WAW). */
    void writeDependency(const isa::Operand &op, StallPicker &p) const;

    /** Record a write's completion for later dependents, tagged with
     * the stall reason its consumers will report while waiting. */
    void noteWrite(const isa::Operand &op, Cycle end,
                   StallReason producer);

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
        acct_.energyPj += energy_.eventEnergyPj(ev) * occurrences;
    }

    /** Add @p amount to an event counter. */
    void count(TileCounter c, double amount = 1.0)
    {
        acct_.ctr[static_cast<std::size_t>(c)] += amount;
    }

    /** Energy event for accessing a space. */
    arch::EnergyEvent accessEvent(isa::Space space) const;

    void finish(Cycle end);

    // --- configuration ------------------------------------------------
    const arch::MannaConfig &cfg_;
    const arch::EnergyModel &energy_;
    std::size_t tileIndex_;

    // --- functional state ----------------------------------------------
    TileMemory mem_;

    // --- program state ---------------------------------------------------
    const isa::Program *program_ = nullptr;
    std::size_t pc_ = 0;
    struct LoopFrame
    {
        std::size_t bodyPc;    ///< pc of the first body instruction
        std::uint32_t count;   ///< trip count
        std::int64_t iter;     ///< current iteration
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
    Cycle lastEnd_ = 0; ///< end time of the most recent instruction
    std::uint64_t dmaLoadCount_ = 0; ///< matrix loads issued (parity)

    // --- accounting ----------------------------------------------------------
    TileCounters acct_;
    /** Set by each exec* for execute()'s per-opcode accounting. */
    double lastOpBusy_ = 0.0;
    double lastOpWords_ = 0.0;
    TraceLogger *trace_ = nullptr;
    ReplayTape *tape_ = nullptr;
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
