#include "energy_model.hh"

#include <algorithm>
#include <cmath>

namespace manna::arch
{

namespace
{

// Logic per-op energies (pJ), representative of a 15 nm-class node
// including pipeline registers and local wiring.
constexpr Energy kEmacMacPj = 1.5;
constexpr Energy kEmacElwisePj = 1.0;
constexpr Energy kLateralShiftPj = 0.2;
constexpr Energy kSfuOpPj = 4.0;
constexpr Energy kNocHopWordPj = 1.2;
constexpr Energy kSystolicMacPj = 1.5;
constexpr Energy kInstructionIssuePj = 6.0;
constexpr Energy kHbmAccessPj = 40.0; // ~10 pJ/bit HBM2 x 32 bits / 8

// Leakage: capacity-proportional SRAM leakage plus a fixed logic
// floor per tile.
constexpr double kLeakWattsPerMiB = 0.008;
constexpr double kLeakWattsPerTile = 0.012;

// Clock tree, instruction control, and SRAM peripheral circuitry,
// charged per second of execution. In memory-dominated designs this
// infrastructure is the largest power component; the constants are
// set so the 16-tile baseline's busy power lands near the paper's
// 16 W envelope.
constexpr double kInfraWattsPerTile = 0.45;
constexpr double kInfraWattsController = 0.8;

} // namespace

Energy
EnergyModel::sramAccessPj(Bytes bankBytes)
{
    // CACTI-like trend: energy per 32-bit access grows with the square
    // root of bank capacity. Constants calibrated so that the 16-tile
    // baseline's busy power lands near the paper's 16 W envelope.
    const double kib = static_cast<double>(bankBytes) / 1024.0;
    return 0.40 + 0.65 * std::sqrt(kib);
}

EnergyModel::EnergyModel(const MannaConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();

    const auto set = [this](EnergyEvent ev, Energy pj) {
        eventPj_[static_cast<std::size_t>(ev)] = pj;
    };
    // Highly banked structures are charged at their bank granularity.
    const Bytes matrixBufferBank =
        cfg_.matrixBufferBytes / cfg_.matrixScratchpadBanks();
    const Bytes matrixSpadBank =
        cfg_.matrixScratchpadBytes / cfg_.matrixScratchpadBanks();
    set(EnergyEvent::MatrixBufferAccess, sramAccessPj(matrixBufferBank));
    set(EnergyEvent::MatrixScratchpadAccess,
        sramAccessPj(std::max<Bytes>(matrixSpadBank, 256)));
    set(EnergyEvent::VectorBufferAccess,
        sramAccessPj(cfg_.vectorBufferBytes));
    set(EnergyEvent::VectorScratchpadAccess,
        sramAccessPj(cfg_.vectorScratchpadBytes / 2));
    set(EnergyEvent::RegisterFileAccess, 0.12); // small flop-based RF
    set(EnergyEvent::EmacMac, kEmacMacPj);
    set(EnergyEvent::EmacElwise, kEmacElwisePj);
    set(EnergyEvent::EmacLateralShift, kLateralShiftPj);
    set(EnergyEvent::SfuOp, kSfuOpPj);
    set(EnergyEvent::NocHopWord, kNocHopWordPj);
    set(EnergyEvent::SystolicMac, kSystolicMacPj);
    set(EnergyEvent::ControllerBufferAccess,
        sramAccessPj(cfg_.controllerBufferBytes / 16)); // banked
    set(EnergyEvent::InstructionIssue, kInstructionIssuePj);
    set(EnergyEvent::HbmAccess, kHbmAccessPj);
}

double
EnergyModel::leakageWatts()
const
{
    const double mib =
        static_cast<double>(cfg_.totalOnChipBytes()) / (1024.0 * 1024.0);
    return kLeakWattsPerMiB * mib +
           kLeakWattsPerTile * static_cast<double>(cfg_.numTiles + 1);
}

double
EnergyModel::infrastructureWatts() const
{
    return kInfraWattsPerTile * static_cast<double>(cfg_.numTiles) +
           kInfraWattsController;
}

double
EnergyModel::busyPowerWatts() const
{
    // Per tile per cycle at full throughput: matrixBufferWidthWords
    // buffer reads feeding the scratchpad, emacsPerTile scratchpad
    // reads feeding the eMACs, emacsPerTile MACs, and RF traffic.
    const Energy matrixBufferPj =
        eventEnergyPj(EnergyEvent::MatrixBufferAccess);
    const Energy matrixSpadPj =
        eventEnergyPj(EnergyEvent::MatrixScratchpadAccess);
    const double perTilePerCyclePj =
        static_cast<double>(cfg_.matrixBufferWidthWords) *
            (matrixBufferPj + matrixSpadPj) +
        static_cast<double>(cfg_.emacsPerTile) *
            (matrixSpadPj + kEmacMacPj +
             2.0 * eventEnergyPj(EnergyEvent::RegisterFileAccess)) +
        kInstructionIssuePj;

    // Controller tile: full systolic array + buffer traffic.
    const double ctrlPerCyclePj =
        static_cast<double>(cfg_.systolicRows * cfg_.systolicCols) *
            kSystolicMacPj +
        static_cast<double>(cfg_.systolicRows + cfg_.systolicCols) *
            eventEnergyPj(EnergyEvent::ControllerBufferAccess);

    const double cyclesPerSec = cfg_.clockMhz * 1e6;
    const double dynamicWatts =
        (static_cast<double>(cfg_.numTiles) * perTilePerCyclePj +
         ctrlPerCyclePj) *
        1e-12 * cyclesPerSec;
    return dynamicWatts + infrastructureWatts() + leakageWatts();
}

} // namespace manna::arch
