/**
 * @file
 * H-tree NoC model (Section 4.4 "NoC Design").
 *
 * With MDistrib = 1 the only communication patterns are reduce across
 * all tiles and broadcast to all tiles, so the NoC is a fixed-routing
 * H-tree with the Controller tile at the root. A reduction or
 * broadcast of L words completes in lg(NumTiles)+1 store-and-forward
 * steps, each costing the hop latency plus the link serialization of
 * L words.
 */

#ifndef MANNA_SIM_NOC_HH
#define MANNA_SIM_NOC_HH

#include <vector>

#include "arch/energy_model.hh"
#include "arch/manna_config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/isa.hh"

namespace manna::sim
{

/** Latency/energy model of the H-tree; functional combining is done
 * by the chip, which owns the tiles' data. */
class Noc
{
  public:
    Noc(const arch::MannaConfig &cfg, const arch::EnergyModel &energy);

    /** Tree depth from leaves to the root Controller tile. */
    std::size_t depth() const;

    /** Cycles to reduce @p words from all leaves to the root. */
    Cycle reduceCycles(std::size_t words) const;

    /** Cycles to broadcast @p words from the root to all leaves. */
    Cycle broadcastCycles(std::size_t words) const;

    /** Energy of a reduce of @p words (all link traversals). */
    Energy reduceEnergyPj(std::size_t words) const;

    /** Energy of a broadcast of @p words. */
    Energy broadcastEnergyPj(std::size_t words) const;

    /** Functional element-wise combine across per-tile vectors:
     * @p out is assigned the combined vector, reusing its capacity.
     * @p out must not be an element of @p perTile. */
    static void
    combineInto(const std::vector<std::vector<float>> &perTile,
                isa::ReduceOp op, std::vector<float> &out);

    /** Account one reduce of @p words costing @p cycles (called by
     * the chip when it performs the exchange). */
    void recordReduce(std::size_t words, Cycle cycles);

    /** Account one broadcast of @p words costing @p cycles. */
    void recordBroadcast(std::size_t words, Cycle cycles);

    /** Operation counters (reduce/broadcast ops, words, step cycles). */
    const StatGroup &stats() const { return stats_; }

    /** Zero all counters (chip reset; keys are retained). */
    void resetStats() { stats_.clear(); }

  private:
    const arch::MannaConfig &cfg_;
    const arch::EnergyModel &energy_;
    StatGroup stats_{"noc"};
};

} // namespace manna::sim

#endif // MANNA_SIM_NOC_HH
