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

#include <string>
#include <vector>

#include "arch/energy_model.hh"
#include "arch/manna_config.hh"
#include "common/stat_registry.hh"
#include "common/types.hh"
#include "isa/isa.hh"

namespace manna::sim
{

/** NoC operation counters (registry keys in
 * NocCounters::exportStats()). */
enum class NocCounter : std::uint8_t
{
    ReduceOps,
    ReduceWords,
    ReduceCycles,
    ReduceSteps,
    BroadcastOps,
    BroadcastWords,
    BroadcastCycles,
    BroadcastSteps,
    NumCounters,
};

constexpr std::size_t kNumNocCounters =
    static_cast<std::size_t>(NocCounter::NumCounters);

/** The NoC's counters, plus which were recorded since construction
 * (the exported key set; a reset keeps it). */
struct NocCounters
{
    double value[kNumNocCounters] = {};
    bool touched[kNumNocCounters] = {};

    double counter(NocCounter c) const
    {
        return value[static_cast<std::size_t>(c)];
    }

    /** Write every recorded counter into @p reg as
     * "<prefix>.<name>". */
    void exportStats(StatRegistry &reg, const std::string &prefix) const;
};

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

    /** Functional element-wise combine of @p tiles spans of @p words
     * each (the replay tape's Reduce): @p out is assigned tile 0's
     * span, then every later tile folds in, in tile order, reusing its
     * capacity. @p out must not alias any span. */
    static void combineInto(const float *const *perTile, std::size_t tiles,
                            std::size_t words, isa::ReduceOp op,
                            std::vector<float> &out);

    /** Account one reduce of @p words costing @p cycles (called by
     * the chip when it performs the exchange). */
    void recordReduce(std::size_t words, Cycle cycles);

    /** Account one broadcast of @p words costing @p cycles. */
    void recordBroadcast(std::size_t words, Cycle cycles);

    /** Every operation counter (reduce/broadcast ops, words, cycles)
     * and its recorded bit. */
    const NocCounters &counters() const { return ctr_; }

    /** Zero all counters (chip reset; keys are retained). */
    void resetStats();

  private:
    void count(NocCounter c, double amount = 1.0)
    {
        const auto i = static_cast<std::size_t>(c);
        ctr_.value[i] += amount;
        ctr_.touched[i] = true;
    }

    const arch::MannaConfig &cfg_;
    const arch::EnergyModel &energy_;
    NocCounters ctr_;
};

} // namespace manna::sim

#endif // MANNA_SIM_NOC_HH
