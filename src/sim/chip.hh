/**
 * @file
 * Top-level Manna chip simulator: DiffMem tiles + H-tree NoC +
 * Controller tile, executing a compiled MANN step-by-step.
 *
 * ChipEngine is the part every MANN variant shares; Chip drives it
 * for the NTM and sim::DncChip (sim/dnc_chip.hh) for the DNC.
 *
 * The NTM chip owns its own Ntm instance (constructed from the same
 * seed as the golden model, so weights are bit-identical) and uses it
 * for (i) loading head weights and the memory image onto the tiles,
 * and (ii) the functional forward pass of the controller, whose
 * timing comes from the ControllerTileModel. Everything else — heads,
 * addressing, key similarity, soft read, soft write — is timed
 * instruction by instruction on the DiffMem tile models and computed
 * by the replay tape those instructions record (sim/replay.hh), so
 * the chip's outputs validate the entire compiler + simulator stack
 * against the golden model.
 */

#ifndef MANNA_SIM_CHIP_HH
#define MANNA_SIM_CHIP_HH

#include <map>
#include <memory>
#include <vector>

#include "arch/energy_model.hh"
#include "common/cancel.hh"
#include "common/stat_registry.hh"
#include "compiler/compiled_model.hh"
#include "mann/controller.hh"
#include "mann/ntm.hh"
#include "sim/controller_tile.hh"
#include "sim/fidelity.hh"
#include "sim/noc.hh"
#include "sim/tile.hh"

namespace manna::sim
{

/** Per-kernel-group accounting for one run. */
struct GroupStats
{
    Cycle cycles = 0;
    Energy energyPj = 0.0;
};

/** Results of a simulated inference run. */
struct RunReport
{
    std::size_t steps = 0;
    Cycle totalCycles = 0;
    Seconds totalSeconds = 0.0;
    Energy dynamicEnergyPj = 0.0;
    Energy leakageEnergyPj = 0.0;
    Energy infrastructureEnergyPj = 0.0; ///< clock/control/periphery

    std::map<mann::KernelGroup, GroupStats> groups;

    /**
     * Average fraction of cycles each tile resource class was busy
     * ("emac", "sfu", "mat_dma", "vec_dma"), across all tiles over
     * the whole run.
     */
    std::map<std::string, double> resourceUtilization;

    /**
     * Hierarchical per-component counters under dotted paths:
     * "tile.<n>.<engine>.*", "noc.*", "ctrl.*", "chip.*". Populated
     * by populateRunStats(); the full catalog is documented in
     * docs/OBSERVABILITY.md.
     */
    StatRegistry stats;

    Energy totalEnergyPj() const
    {
        return dynamicEnergyPj + leakageEnergyPj +
               infrastructureEnergyPj;
    }
    double totalEnergyJoules() const { return totalEnergyPj() * 1e-12; }

    /** Steps per joule (the paper's energy-efficiency metric). */
    double stepsPerJoule() const;

    /** Seconds per step. */
    double secondsPerStep() const;

    std::string render() const;
};

/**
 * Every raw counter a chip report is built from, with the report's
 * totals. It holds arrays, not registry keys, so a calibration
 * snapshot is a copy; populateRunStats() (chip.cc) builds the one
 * stats registry from it at report time.
 */
struct CounterState
{
    std::size_t steps = 0;
    Cycle totalCycles = 0;
    Seconds totalSeconds = 0.0;
    Energy dynamicEnergyPj = 0.0;
    Energy leakageEnergyPj = 0.0;
    Energy infrastructureEnergyPj = 0.0;
    std::map<mann::KernelGroup, GroupStats> groups;
    std::vector<TileCounters> tiles;
    NocCounters noc;
    CtrlCounters ctrl;
};

/**
 * Register human-readable descriptions (suffix patterns, see
 * StatRegistry::describe()) for every counter family a chip report
 * emits (populateRunStats() in chip.cc). Called by it; exposed so
 * aggregated registries (sweep stats) can re-attach descriptions for
 * --dump-stats.
 */
void describeRunStats(StatRegistry &reg);

/**
 * The chip engine shared by every MANN variant: DiffMem tiles, H-tree
 * NoC, Controller tile model, the recurrent chip state, accounting,
 * fidelity=fast calibration and the replay tape. A driver (Chip,
 * DncChip) owns the golden model it mirrors, loads its state onto the
 * tiles after reset(), passes its controller to step(), and gathers
 * its distributed state back for validation. Every CommTag, the DNC's
 * UsageToAllocation included, is handled here by the tag the program
 * carries.
 */
class ChipEngine
{
  public:
    /**
     * @p shape is the MANN shape the Controller tile costs and the
     * analytic estimate reads; @p segments are run in order every
     * step. @p arch and @p segments are referenced, not copied: they
     * belong to the compiled model, which must outlive the engine.
     * Every step is computed by the replay tape. Fidelity::Cycle times
     * every step; Fidelity::Fast times only the first
     * kFastCalibrationSteps and report() extrapolates the rest (see
     * sim/fidelity.hh).
     */
    ChipEngine(const arch::MannaConfig &arch, const TileLayoutSizes &sizes,
               const std::vector<compiler::CompiledSegment> &segments,
               const mann::MannConfig &shape, Fidelity fidelity);

    /** Zero tile memory, recurrent state and all statistics. */
    void reset();

    /** One time step: @p controller runs on the input concatenated
     * with the read vectors, the tile segments are timed (unless fast
     * mode is past calibration), then the tape computes them. Throws
     * SimError if a timed step's ops differ from the recorded tape.
     * Returns the controller output. */
    tensor::FVec step(mann::Controller &controller,
                      const tensor::FVec &input);

    /** step() over a sequence of inputs. */
    std::vector<tensor::FVec> run(mann::Controller &controller,
                                  const std::vector<tensor::FVec> &in);

    /** Accounting for everything since the last reset(). The stats
     * registry is built once, here: from the live counters, or in
     * fast mode past calibration from the extrapolation of the two
     * calibration snapshots (sim/fidelity.hh). */
    RunReport report() const;

    const std::vector<tensor::FVec> &readVectors() const
    {
        return readVectors_;
    }
    Fidelity fidelity() const { return fidelity_; }
    DiffMemTile &tile(std::size_t t) { return *tiles_[t]; }
    const DiffMemTile &tile(std::size_t t) const { return *tiles_[t]; }
    std::size_t numTiles() const { return tiles_.size(); }
    /** The replay tape: sealed by the first step. */
    const ReplayTape &tape() const { return tape_; }

    /** Write @p source's rows into their MatBuf slices. */
    void loadPartition(const compiler::RowPartition &part,
                       const tensor::FMat &source);
    /** Reassemble a row-partitioned MatBuf matrix. */
    tensor::FMat gatherPartition(const compiler::RowPartition &part,
                                 std::size_t totalRows) const;

    /** Attach an instruction tracer to every tile (nullptr detaches). */
    void attachTrace(TraceLogger *logger);

    /**
     * Attach a cooperative cancellation token (nullptr detaches). The
     * step loops poll it once per time step and once per
     * communication round; when it fires, the chip throws SimError so
     * a hung or runaway simulation unwinds cleanly instead of wedging
     * its worker thread.
     */
    void setCancelToken(const CancelToken *token) { cancel_ = token; }

    /** Record the next tape raw: no fusion, merge or tile sharing
     * (the reference the tape's passes are tested against). */
    void setRawTape(bool raw) { rawTape_ = raw; }

  private:
    /** Time segment @p s on every tile. */
    void runSegment(std::size_t s);
    void handleComm(const isa::Instruction &inst);
    void checkCancelled() const;
    /** The live counters and totals: what report() builds from in
     * cycle mode, and fast mode's calibration snapshots. */
    CounterState counterState() const;
    /** Time one step: the controller, then every segment. The first
     * timed step records the tape; later ones check it. */
    void timeStep();
    /** Compute one time step from the recorded tape. */
    void runTape();

    const arch::MannaConfig &arch_;
    const std::vector<compiler::CompiledSegment> &segments_;
    const mann::MannConfig shape_;
    arch::EnergyModel energy_;
    Noc noc_;
    ControllerTileModel ctrlModel_;

    std::vector<std::unique_ptr<DiffMemTile>> tiles_;
    /** Every (segment, tile) program, decoded once, segment-major. */
    std::vector<DecodedProgram> programs_;
    /** The tiles' shared loop fast-forward scratch. */
    LoopRecords loopRecords_;

    // Recurrent state held at the chip (controller side).
    std::vector<tensor::FVec> readVectors_;
    tensor::FVec pendingHidden_;
    Cycle controllerReady_ = 0;

    // NoC data in flight (result of the last Reduce), computed by the
    // tape, and its word count as the timed step tracks it.
    std::vector<float> nocBuffer_;
    std::size_t nocWords_ = 0;

    // Reusable hot-path buffers: the concatenated controller input.
    // Steady-state steps allocate nothing.
    tensor::FVec ctrlInput_;
    std::vector<Energy> tileEnergyBefore_;

    // Accounting.
    Cycle chipTime_ = 0;
    Energy nocEnergyPj_ = 0.0;
    Energy ctrlEnergyPj_ = 0.0;
    std::map<mann::KernelGroup, GroupStats> groups_;
    std::size_t steps_ = 0;

    // fidelity=fast calibration state: snapshots after the first and
    // second cycle-accurate steps.
    Fidelity fidelity_ = Fidelity::Cycle;
    CounterState calib1_;
    CounterState calib2_;

    // The step-replay tape: recorded by the first timed step, checked
    // by every later one, and run to compute every step. The ptr
    // scratch vectors stage per-tile comm spans for it.
    ReplayTape tape_;
    bool rawTape_ = false;
    std::vector<const float *> commSrcPtrs_;
    std::vector<float *> commDstPtrs_;

    const CancelToken *cancel_ = nullptr;
};

/**
 * The Manna chip running a compiled NTM.
 */
class Chip
{
  public:
    /**
     * Build a chip for a compiled model. @p seed must match the seed
     * of the golden Ntm the run is compared against. Tensor results
     * are bit-identical across fidelities.
     */
    Chip(const compiler::CompiledModel &model, std::uint64_t seed = 1,
         Fidelity fidelity = Fidelity::Cycle);

    /** Reset memory, recurrent state, and all statistics. */
    void reset();

    /** Execute one NTM time step; returns the output vector. */
    tensor::FVec step(const tensor::FVec &input)
    {
        return engine_.step(ntm_.controller(), input);
    }

    /** Run a sequence of inputs. */
    std::vector<tensor::FVec> run(const std::vector<tensor::FVec> &in)
    {
        return engine_.run(ntm_.controller(), in);
    }

    /** Accounting for everything since the last reset(). */
    RunReport report() const { return engine_.report(); }

    /** Current read vectors (for validation against the golden). */
    const std::vector<tensor::FVec> &readVectors() const
    {
        return engine_.readVectors();
    }

    /** Reassemble the distributed external memory (validation). */
    tensor::FMat gatherMemory() const;

    const arch::MannaConfig &config() const { return model_.archCfg; }
    const mann::MannConfig &mannConfig() const { return model_.mannCfg; }
    const compiler::CompiledModel &model() const { return model_; }
    Fidelity fidelity() const { return engine_.fidelity(); }
    const ChipEngine &engine() const { return engine_; }
    ChipEngine &engine() { return engine_; }

    /** See ChipEngine::attachTrace(). */
    void attachTrace(TraceLogger *logger) { engine_.attachTrace(logger); }

    /** See ChipEngine::setCancelToken(). */
    void setCancelToken(const CancelToken *token)
    {
        engine_.setCancelToken(token);
    }

  private:
    void loadState();

    const compiler::CompiledModel &model_;
    mann::Ntm ntm_; ///< weights + functional controller
    ChipEngine engine_;
};

} // namespace manna::sim

#endif // MANNA_SIM_CHIP_HH
