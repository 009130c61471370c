/**
 * @file
 * Per-event energy model for the Manna simulator.
 *
 * The paper estimates power by synthesizing RTL to the 15 nm Nangate
 * Open Cell library (logic) and CACTI-P (SRAMs) and folding the
 * resulting per-component powers into the cycle-level simulator. We
 * do not have those tools offline, so this module substitutes an
 * analytic calibration (documented in DESIGN.md):
 *
 *  - SRAM access energy scales with the square root of the accessed
 *    bank's capacity (the standard CACTI trend) with constants chosen
 *    so the busy-chip power of the 16-tile baseline lands near the
 *    paper's 16 W TDP at 500 MHz.
 *  - Logic (eMAC, SFU, systolic MAC, NoC) energies use representative
 *    15 nm-class per-op values.
 *  - A capacity-proportional leakage power is charged for every cycle.
 *
 * Only *ratios* between designs and kernels depend on the simulator's
 * event counts; the constants here set the absolute scale.
 */

#ifndef MANNA_ARCH_ENERGY_MODEL_HH
#define MANNA_ARCH_ENERGY_MODEL_HH

#include <array>
#include <cstddef>

#include "arch/manna_config.hh"
#include "common/types.hh"

namespace manna::arch
{

/** Event classes the simulator charges energy for. */
enum class EnergyEvent
{
    MatrixBufferAccess,     ///< one 32-bit word, Matrix-Buffer
    MatrixScratchpadAccess, ///< one 32-bit word, Matrix-Scratchpad
    VectorBufferAccess,     ///< one 32-bit word, Vector-Buffer
    VectorScratchpadAccess, ///< one 32-bit word, Vector-Scratchpad
    RegisterFileAccess,     ///< one 32-bit word, eMAC RF
    EmacMac,                ///< one FP32 fused multiply-accumulate
    EmacElwise,             ///< one FP32 element-wise add/sub/mul
    EmacLateralShift,       ///< one word moved over a lateral link
    SfuOp,                  ///< one special-function evaluation
    NocHopWord,             ///< one word across one H-tree hop
    SystolicMac,            ///< one MAC in the controller tile array
    ControllerBufferAccess, ///< one word, controller tile buffers
    InstructionIssue,       ///< decode/control overhead per instruction
    HbmAccess,              ///< one 32-bit word from/to HBM
    NumEvents,
};

constexpr std::size_t kNumEnergyEvents =
    static_cast<std::size_t>(EnergyEvent::NumEvents);

/**
 * Energy model bound to a configuration.
 *
 * All energies are in picojoules; leakage is in watts.
 */
class EnergyModel
{
  public:
    explicit EnergyModel(const MannaConfig &cfg);

    /** Energy of one event occurrence in pJ (a table read: the tiles
     * charge every executed instruction through it). */
    Energy eventEnergyPj(EnergyEvent ev) const
    {
        return eventPj_[static_cast<std::size_t>(ev)];
    }

    /** Static (leakage) power of the whole chip in watts. */
    double leakageWatts() const;

    /**
     * Clock-tree / control / SRAM-periphery power in watts, charged
     * per second of execution on top of the event energies. In
     * memory-dominated accelerators this infrastructure is the
     * largest component of active power.
     */
    double infrastructureWatts() const;

    /**
     * Busy-chip dynamic power estimate in watts: all eMACs computing,
     * all Matrix-Buffers streaming at full width, NoC idle. Used for
     * calibration checks and the Table 3 TDP column.
     */
    double busyPowerWatts() const;

    /**
     * SRAM access energy per 32-bit word given the *bank* capacity,
     * following an analytic CACTI-like sqrt trend.
     */
    static Energy sramAccessPj(Bytes bankBytes);

    const MannaConfig &config() const { return cfg_; }

  private:
    MannaConfig cfg_;

    /** Per-event energies (pJ), indexed by EnergyEvent; filled once
     * by the constructor. */
    std::array<Energy, kNumEnergyEvents> eventPj_{};
};

} // namespace manna::arch

#endif // MANNA_ARCH_ENERGY_MODEL_HH
