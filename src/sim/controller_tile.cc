#include "controller_tile.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace manna::sim
{

namespace
{

/** Registry keys, indexed by CtrlCounter. */
constexpr const char *kCounterNames[] = {
    "dense_layers", "array_passes", "macs",
    "cycles",       "activations",  "forward_passes",
};
static_assert(std::size(kCounterNames) == kNumCtrlCounters,
              "one name per CtrlCounter");

} // namespace

ControllerTileModel::ControllerTileModel(const arch::MannaConfig &cfg,
                                         const arch::EnergyModel &energy)
    : cfg_(cfg), energy_(energy)
{
}

CtrlCost
ControllerTileModel::denseLayer(std::size_t outDim,
                                std::size_t inDim) const
{
    const std::size_t rows = cfg_.systolicRows;
    const std::size_t cols = cfg_.systolicCols;
    const std::size_t rowPasses = ceilDiv(outDim, rows);
    const std::size_t colPasses = ceilDiv(inDim, cols);

    CtrlCost cost;
    // Weight-stationary batch-1 matvec: each (rowPass, colPass) tile
    // performs rows x cols MACs in one array pass (each column
    // receives a distinct activation element), so throughput is one
    // tile pass per cycle, limited by streaming a full tile of
    // weights per cycle from the Weight Buffer. Pipeline fill adds
    // rows + cols cycles per layer.
    cost.cycles = static_cast<Cycle>(rowPasses * colPasses) + rows +
                  cols;

    const double macs = static_cast<double>(outDim) * inDim;
    count(CtrlCounter::DenseLayers);
    count(CtrlCounter::ArrayPasses,
          static_cast<double>(rowPasses * colPasses));
    count(CtrlCounter::Macs, macs);
    count(CtrlCounter::Cycles, static_cast<double>(cost.cycles));
    cost.energyPj =
        macs * energy_.eventEnergyPj(arch::EnergyEvent::SystolicMac) +
        // weights + activations + outputs through the buffers
        (macs + static_cast<double>(inDim) + outDim) *
            energy_.eventEnergyPj(
                arch::EnergyEvent::ControllerBufferAccess);
    return cost;
}

CtrlCost
ControllerTileModel::activation(std::size_t n) const
{
    CtrlCost cost;
    cost.cycles = ceilDiv(n, cfg_.systolicCols);
    count(CtrlCounter::Activations, static_cast<double>(n));
    count(CtrlCounter::Cycles, static_cast<double>(cost.cycles));
    cost.energyPj =
        static_cast<double>(n) *
        (energy_.eventEnergyPj(arch::EnergyEvent::SfuOp) +
         2.0 * energy_.eventEnergyPj(
                   arch::EnergyEvent::ControllerBufferAccess));
    return cost;
}

CtrlCost
ControllerTileModel::forwardCost(const mann::MannConfig &mc) const
{
    count(CtrlCounter::ForwardPasses);
    CtrlCost total;
    std::size_t inDim = mc.controllerInputDim();
    const std::size_t width = mc.hiddenDim();
    for (std::size_t l = 0; l < mc.controllerLayers; ++l) {
        if (mc.controllerKind == mann::ControllerKind::LSTM) {
            // Four gate matrices on the input and four recurrent
            // matrices, plus the gate nonlinearities and element-wise
            // cell updates.
            total += denseLayer(4 * width, inDim);
            total += denseLayer(4 * width, width);
            total += activation(5 * width);
        } else {
            total += denseLayer(width, inDim);
            total += activation(width);
        }
        inDim = width;
    }
    total += denseLayer(mc.outputDim, width);
    return total;
}

void
CtrlCounters::exportStats(StatRegistry &reg,
                          const std::string &prefix) const
{
    for (std::size_t i = 0; i < kNumCtrlCounters; ++i)
        if (touched[i])
            reg.set(prefix + "." + kCounterNames[i], value[i]);
}

void
ControllerTileModel::resetStats()
{
    std::fill(std::begin(ctr_.value), std::end(ctr_.value), 0.0);
}

} // namespace manna::sim
