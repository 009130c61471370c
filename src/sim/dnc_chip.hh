/**
 * @file
 * Manna chip running a compiled Differentiable Neural Computer.
 *
 * The DNC driver of the shared sim::ChipEngine, for the DNC-on-Manna
 * programs produced by compiler::compileDnc: the same tiles, NoC and
 * Controller tile as the NTM chip. The Controller tile additionally
 * evaluates the allocation free-list scan: the tiles reduce their
 * usage slices to the root (UsageToAllocation), the root applies
 * mann::dncAllocationFromUsage — the exact function the golden model
 * uses — and the result broadcasts back.
 */

#ifndef MANNA_SIM_DNC_CHIP_HH
#define MANNA_SIM_DNC_CHIP_HH

#include <vector>

#include "compiler/dnc_codegen.hh"
#include "mann/dnc.hh"
#include "sim/chip.hh"

namespace manna::sim
{

/**
 * The DNC-programmed Manna chip.
 */
class DncChip
{
  public:
    /** Same fidelity semantics as sim::Chip: Fidelity::Fast times a
     * calibration prefix, then only replays the tape, with the report
     * extrapolated (bit-identical tensor results). */
    DncChip(const compiler::CompiledDnc &model, std::uint64_t seed = 1,
            Fidelity fidelity = Fidelity::Cycle);

    void reset();

    /** One DNC time step; returns the controller output. */
    tensor::FVec step(const tensor::FVec &input)
    {
        return engine_.step(dnc_.controller(), input);
    }

    std::vector<tensor::FVec> run(const std::vector<tensor::FVec> &in)
    {
        return engine_.run(dnc_.controller(), in);
    }

    RunReport report() const { return engine_.report(); }

    const std::vector<tensor::FVec> &readVectors() const
    {
        return engine_.readVectors();
    }

    /** Reassemble distributed state for validation. */
    tensor::FMat gatherMemory() const;
    tensor::FMat gatherLink() const;
    tensor::FVec gatherUsage() const;

    const compiler::CompiledDnc &model() const { return model_; }
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

    const compiler::CompiledDnc &model_;
    mann::Dnc dnc_; ///< weights + functional controller
    ChipEngine engine_;
};

} // namespace manna::sim

#endif // MANNA_SIM_DNC_CHIP_HH
