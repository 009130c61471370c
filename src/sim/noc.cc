#include "noc.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace manna::sim
{

namespace
{

/** Registry keys, indexed by NocCounter. */
constexpr const char *kCounterNames[] = {
    "reduce.ops",       "reduce.words",    "reduce.cycles",
    "reduce.steps",     "broadcast.ops",   "broadcast.words",
    "broadcast.cycles", "broadcast.steps",
};
static_assert(std::size(kCounterNames) == kNumNocCounters,
              "one name per NocCounter");

} // namespace

Noc::Noc(const arch::MannaConfig &cfg, const arch::EnergyModel &energy)
    : cfg_(cfg), energy_(energy)
{
}

std::size_t
Noc::depth() const
{
    // lg(NumTiles) levels within the tile tree plus the root link to
    // the Controller tile.
    return log2Ceil(cfg_.numTiles) + 1;
}

Cycle
Noc::reduceCycles(std::size_t words) const
{
    const Cycle serialization =
        ceilDiv(words, cfg_.nocLinkWordsPerCycle);
    return static_cast<Cycle>(depth()) *
           (static_cast<Cycle>(cfg_.nocHopCycles) + serialization);
}

Cycle
Noc::broadcastCycles(std::size_t words) const
{
    // Symmetric to the reduction on this fixed-routing tree.
    return reduceCycles(words);
}

Energy
Noc::reduceEnergyPj(std::size_t words) const
{
    // Every tile-to-parent link carries `words` words once; there are
    // (numTiles - 1) internal links plus the root link.
    const double wordHops =
        static_cast<double>(words) * static_cast<double>(cfg_.numTiles);
    return wordHops *
           energy_.eventEnergyPj(arch::EnergyEvent::NocHopWord);
}

Energy
Noc::broadcastEnergyPj(std::size_t words) const
{
    return reduceEnergyPj(words);
}

void
Noc::recordReduce(std::size_t words, Cycle cycles)
{
    count(NocCounter::ReduceOps);
    count(NocCounter::ReduceWords, static_cast<double>(words));
    count(NocCounter::ReduceCycles, static_cast<double>(cycles));
    count(NocCounter::ReduceSteps, static_cast<double>(depth()));
}

void
Noc::recordBroadcast(std::size_t words, Cycle cycles)
{
    count(NocCounter::BroadcastOps);
    count(NocCounter::BroadcastWords, static_cast<double>(words));
    count(NocCounter::BroadcastCycles, static_cast<double>(cycles));
    count(NocCounter::BroadcastSteps, static_cast<double>(depth()));
}

void
NocCounters::exportStats(StatRegistry &reg,
                         const std::string &prefix) const
{
    for (std::size_t i = 0; i < kNumNocCounters; ++i)
        if (touched[i])
            reg.set(prefix + "." + kCounterNames[i], value[i]);
}

void
Noc::resetStats()
{
    std::fill(std::begin(ctr_.value), std::end(ctr_.value), 0.0);
}

void
Noc::combineInto(const float *const *perTile, std::size_t tiles,
                 std::size_t words, isa::ReduceOp op,
                 std::vector<float> &out)
{
    MANNA_ASSERT(tiles > 0, "combine over zero tiles");
    out.assign(perTile[0], perTile[0] + words);
    for (std::size_t t = 1; t < tiles; ++t) {
        const float *src = perTile[t];
        if (op == isa::ReduceOp::Sum) {
            for (std::size_t i = 0; i < words; ++i)
                out[i] += src[i];
        } else {
            for (std::size_t i = 0; i < words; ++i)
                out[i] = std::max(out[i], src[i]);
        }
    }
}

} // namespace manna::sim
