/**
 * @file
 * Execution-fidelity selection for the chip simulators.
 *
 * fidelity=cycle is the default: every time step is timed against
 * the resource timelines (the per-cycle accounting in tile.cc).
 *
 * In both fidelities the timing interpreter computes nothing: step 1
 * records the resolved operations on a replay tape (sim/replay.hh),
 * which computes every step, so tensor results are bit-identical
 * across fidelities by construction.
 *
 * fidelity=fast replaces the per-step timing loop with a calibrated
 * analytic model: only the first kFastCalibrationSteps time steps are
 * timed, and because every instruction duration in the timing model
 * depends only on static operand shapes (never on data values), the
 * per-step cost reaches a steady state immediately — the remaining
 * steps only replay the tape. After each calibration step the chip
 * copies its raw counter arrays (a CounterState, sim/chip.hh);
 * report() extrapolates every counter linearly from the delta of the
 * two snapshots and builds the stats registry once, from the result.
 * Both fidelities' reports carry the same stats key set, including
 * the fidelity.* markers.
 */

#ifndef MANNA_SIM_FIDELITY_HH
#define MANNA_SIM_FIDELITY_HH

#include <cstddef>
#include <optional>
#include <string_view>

#include "arch/manna_config.hh"
#include "mann/op_counter.hh"

namespace manna::sim
{

struct CounterState;
struct RunReport;

/** How a chip run charges time: per-cycle or calibrated-analytic. */
enum class Fidelity
{
    Cycle,
    Fast,
};

/** "cycle" or "fast". */
const char *toString(Fidelity f);

/** Parse "cycle"/"fast" (case-insensitive); nullopt otherwise. */
std::optional<Fidelity> parseFidelity(std::string_view text);

/**
 * Fidelity from the MANNA_FIDELITY environment variable; Cycle when
 * unset or (with a warning) unparseable.
 */
Fidelity defaultFidelity();

/**
 * Timed (cycle-accurate) steps before fast mode stops timing and only
 * replays the tape. The counter snapshots taken after steps 1 and 2
 * bound the steady-state per-step delta; step 1 additionally absorbs
 * any cold-start effects (empty double-buffer halves) so the delta is
 * taken between warmed steps. Step 1 records the tape; step 2 checks
 * it (sim/replay.hh).
 */
inline constexpr std::size_t kFastCalibrationSteps = 2;

/**
 * Linear extrapolation of a run to @p steps time steps from two
 * counter snapshots taken after consecutive cycle-accurate steps
 * (s1.steps + 1 == s2.steps, steps >= s2.steps). Every counter,
 * energy, total and kernel-group tally v is extended to
 * v2 + (v2 - v1) * (steps - s2.steps). Every counter but the energies
 * is an integer-valued double, so the keys report time derives from
 * them (idle cycles, NoC and controller stalls, utilization) equal
 * the extrapolation of the derived keys, and the per-engine closure
 * (busy + stalls == total) holds exactly.
 */
CounterState extrapolateCounters(const CounterState &s1,
                                 const CounterState &s2,
                                 std::size_t steps);

/**
 * Pure analytic cycles-per-step estimate from the op-counter work
 * model and the architecture's peak rates (eMAC lanes, serial SFU
 * throughput, DMA width) plus an H-tree hop term per kernel barrier.
 * Informational: emitted as fidelity.analytic_cycles_per_step.
 */
double analyticCyclesPerStep(const mann::MannConfig &mc,
                             const arch::MannaConfig &ac);

/**
 * Stamp the fidelity.* marker keys onto a report. Both fidelities
 * emit the same key set; @p calibrated is the number of
 * cycle-accurate steps actually run and @p extrapolated the number of
 * replay-only steps covered by extrapolation (both 0 in cycle
 * mode).
 */
void markFidelity(RunReport &rep, Fidelity f, std::size_t calibrated,
                  std::size_t extrapolated, double analyticPerStep);

} // namespace manna::sim

#endif // MANNA_SIM_FIDELITY_HH
