#include "fidelity.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <string>

#include "common/logging.hh"
#include "sim/chip.hh"

namespace manna::sim
{

const char *
toString(Fidelity f)
{
    return f == Fidelity::Fast ? "fast" : "cycle";
}

std::optional<Fidelity>
parseFidelity(std::string_view text)
{
    std::string lower;
    lower.reserve(text.size());
    for (char c : text)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    if (lower == "cycle")
        return Fidelity::Cycle;
    if (lower == "fast")
        return Fidelity::Fast;
    return std::nullopt;
}

Fidelity
defaultFidelity()
{
    const char *env = std::getenv("MANNA_FIDELITY");
    if (env == nullptr || *env == '\0')
        return Fidelity::Cycle;
    const auto parsed = parseFidelity(env);
    if (!parsed) {
        warn("MANNA_FIDELITY=%s not recognized (want cycle|fast); "
             "using cycle",
             env);
        return Fidelity::Cycle;
    }
    return *parsed;
}

CounterState
extrapolateCounters(const CounterState &s1, const CounterState &s2,
                    std::size_t steps)
{
    MANNA_ASSERT(s1.steps + 1 == s2.steps,
                 "calibration snapshots must be consecutive steps "
                 "(%zu then %zu)",
                 s1.steps, s2.steps);
    MANNA_ASSERT(steps >= s2.steps,
                 "cannot extrapolate %zu steps backwards from %zu",
                 steps, s2.steps);
    MANNA_ASSERT(s2.totalCycles >= s1.totalCycles,
                 "chip time went backwards between snapshots");
    MANNA_ASSERT(s1.tiles.size() == s2.tiles.size(),
                 "snapshots of %zu and %zu tiles", s1.tiles.size(),
                 s2.tiles.size());
    const auto extraSteps = static_cast<Cycle>(steps - s2.steps);
    const double extra = static_cast<double>(extraSteps);
    const auto lerp = [extra](double v1, double v2) {
        return v2 + (v2 - v1) * extra;
    };
    const auto lerpAll = [&lerp](auto &out, const auto &a1,
                                 const auto &a2) {
        for (std::size_t i = 0; i < std::size(out); ++i)
            out[i] = lerp(a1[i], a2[i]);
    };

    CounterState out = s2; // keeps the tile count and recorded bits
    out.steps = steps;
    out.totalCycles =
        s2.totalCycles + (s2.totalCycles - s1.totalCycles) * extraSteps;
    out.totalSeconds = lerp(s1.totalSeconds, s2.totalSeconds);
    out.dynamicEnergyPj = lerp(s1.dynamicEnergyPj, s2.dynamicEnergyPj);
    out.leakageEnergyPj = lerp(s1.leakageEnergyPj, s2.leakageEnergyPj);
    out.infrastructureEnergyPj =
        lerp(s1.infrastructureEnergyPj, s2.infrastructureEnergyPj);

    for (auto &[group, gs] : out.groups) {
        GroupStats prev; // groups absent at step 1 extrapolate from 0
        const auto it = s1.groups.find(group);
        if (it != s1.groups.end())
            prev = it->second;
        gs.cycles += (gs.cycles - prev.cycles) * extraSteps;
        gs.energyPj = lerp(prev.energyPj, gs.energyPj);
    }

    for (std::size_t t = 0; t < out.tiles.size(); ++t) {
        const TileCounters &t1 = s1.tiles[t];
        const TileCounters &t2 = s2.tiles[t];
        TileCounters &o = out.tiles[t];
        lerpAll(o.ctr, t1.ctr, t2.ctr);
        lerpAll(o.opCycles, t1.opCycles, t2.opCycles);
        lerpAll(o.opOps, t1.opOps, t2.opOps);
        lerpAll(o.opWords, t1.opWords, t2.opWords);
        o.energyPj = lerp(t1.energyPj, t2.energyPj);
    }
    lerpAll(out.noc.value, s1.noc.value, s2.noc.value);
    lerpAll(out.ctrl.value, s1.ctrl.value, s2.ctrl.value);
    return out;
}

double
analyticCyclesPerStep(const mann::MannConfig &mc,
                      const arch::MannaConfig &ac)
{
    const mann::OpCounter counter(mc);
    const mann::KernelWork total = counter.totalWork();
    const double tiles = static_cast<double>(ac.numTiles);
    const double emacLanes =
        tiles * static_cast<double>(ac.emacsPerTile);
    const double emacCycles =
        static_cast<double>(total.macOps + total.elwiseOps) /
        emacLanes;
    // The serial SFU is the known scaling limiter; charge the average
    // exp-class latency per special op.
    const double sfuCycles =
        static_cast<double>(total.specialOps) *
        static_cast<double>(ac.sfuExpCycles) /
        (tiles * static_cast<double>(ac.sfusPerTile));
    const double dmaCycles =
        static_cast<double>(total.memReads + total.memWrites) /
        (tiles * static_cast<double>(ac.vectorDmaWidthWords));
    // One H-tree barrier per kernel: log2(tiles) store-and-forward
    // hops each way.
    const double hops = tiles > 1.0 ? std::ceil(std::log2(tiles)) : 0.0;
    const double nocCycles =
        static_cast<double>(mann::kNumKernels) * 2.0 * hops *
        static_cast<double>(ac.nocHopCycles);
    return emacCycles + sfuCycles + dmaCycles + nocCycles;
}

void
markFidelity(RunReport &rep, Fidelity f, std::size_t calibrated,
             std::size_t extrapolated, double analyticPerStep)
{
    rep.stats.set("fidelity.fast", f == Fidelity::Fast ? 1.0 : 0.0);
    rep.stats.set("fidelity.calibration_steps",
                  static_cast<double>(calibrated));
    rep.stats.set("fidelity.extrapolated_steps",
                  static_cast<double>(extrapolated));
    rep.stats.set("fidelity.analytic_cycles_per_step",
                  analyticPerStep);
}

} // namespace manna::sim
