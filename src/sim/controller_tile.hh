/**
 * @file
 * Timing/energy model of the Controller tile (Section 4.3): a
 * systolic-array DNN accelerator with weight and unified buffers.
 *
 * The paper simulates the controller with the performance simulator
 * from Bit-Fusion [32]; we substitute a standard weight-stationary
 * systolic timing model (tiled matrix-vector products over the
 * rows x cols array, with fill latency and buffer traffic). The
 * functional forward pass is executed by the Chip through the shared
 * mann::Controller implementation, so controller math is identical
 * to the golden model by construction.
 */

#ifndef MANNA_SIM_CONTROLLER_TILE_HH
#define MANNA_SIM_CONTROLLER_TILE_HH

#include <string>

#include "arch/energy_model.hh"
#include "arch/manna_config.hh"
#include "common/stat_registry.hh"
#include "common/types.hh"
#include "mann/mann_config.hh"

namespace manna::sim
{

/** Cost of a unit of controller-tile work. */
struct CtrlCost
{
    Cycle cycles = 0;
    Energy energyPj = 0.0;

    CtrlCost &operator+=(const CtrlCost &o)
    {
        cycles += o.cycles;
        energyPj += o.energyPj;
        return *this;
    }
};

/** Controller-tile work counters (registry keys in
 * CtrlCounters::exportStats()). */
enum class CtrlCounter : std::uint8_t
{
    DenseLayers,
    ArrayPasses,
    Macs,
    Cycles,
    Activations,
    ForwardPasses,
    NumCounters,
};

constexpr std::size_t kNumCtrlCounters =
    static_cast<std::size_t>(CtrlCounter::NumCounters);

/** The controller tile's counters, plus which were recorded since
 * construction (the exported key set; a reset keeps it). */
struct CtrlCounters
{
    double value[kNumCtrlCounters] = {};
    bool touched[kNumCtrlCounters] = {};

    double counter(CtrlCounter c) const
    {
        return value[static_cast<std::size_t>(c)];
    }

    /** Write every recorded counter into @p reg as
     * "<prefix>.<name>". */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;
};

/** Analytic systolic-array model. */
class ControllerTileModel
{
  public:
    ControllerTileModel(const arch::MannaConfig &cfg,
                        const arch::EnergyModel &energy);

    /**
     * One dense matrix-vector product of outDim x inDim (batch 1,
     * weight stationary): ceil(out/rows) x ceil(in/cols) array passes,
     * each streaming `cols` activations with a pipeline-fill latency.
     */
    CtrlCost denseLayer(std::size_t outDim, std::size_t inDim) const;

    /** Element-wise activation over n outputs (one lane per column). */
    CtrlCost activation(std::size_t n) const;

    /** Whole controller forward pass for one time step. */
    CtrlCost forwardCost(const mann::MannConfig &mc) const;

    /** Every work counter (forward passes, layer passes, macs,
     * cycles) and its recorded bit. The cost queries are const (they
     * are pure timing math); the counters are mutable bookkeeping on
     * the side. */
    const CtrlCounters &counters() const { return ctr_; }

    /** Zero all counters (chip reset; keys are retained). */
    void resetStats();

  private:
    void count(CtrlCounter c, double amount = 1.0) const
    {
        const auto i = static_cast<std::size_t>(c);
        ctr_.value[i] += amount;
        ctr_.touched[i] = true;
    }

    const arch::MannaConfig &cfg_;
    const arch::EnergyModel &energy_;
    mutable CtrlCounters ctr_;
};

} // namespace manna::sim

#endif // MANNA_SIM_CONTROLLER_TILE_HH
