#include "cluster.hh"

#include "common/error.hh"
#include "common/strutil.hh"
#include "common/types.hh"
#include "compiler/compile_cache.hh"

namespace manna::harness
{

void
ClusterConfig::validate() const
{
    if (chips == 0 || !isPowerOfTwo(chips))
        throw ConfigError(strformat(
            "cluster size must be a nonzero power of two (got %zu)",
            chips));
    if (linkGBs <= 0.0 || hopSeconds < 0.0)
        throw ConfigError(strformat(
            "invalid cluster interconnect parameters (linkGBs=%g, "
            "hopSeconds=%g)",
            linkGBs, hopSeconds));
}

ClusterResult
evaluateCluster(const workloads::Benchmark &benchmark,
                const arch::MannaConfig &chipConfig,
                const ClusterConfig &cluster, std::size_t steps,
                std::uint64_t seed)
{
    cluster.validate();

    // Each chip's share of the memory rows, kept tile-aligned.
    workloads::Benchmark share = benchmark;
    share.config.memN = std::max<std::size_t>(
        roundUp(benchmark.config.memN / cluster.chips,
                chipConfig.numTiles),
        chipConfig.numTiles);

    const MannaResult perChip =
        simulateManna(share, chipConfig, steps, seed);

    ClusterResult result;
    result.chips = cluster.chips;
    result.secondsPerStep = perChip.secondsPerStep;
    result.joulesPerStep =
        perChip.joulesPerStep * static_cast<double>(cluster.chips);
    if (cluster.chips == 1)
        return result;

    // Inter-chip overhead per step: every reduce/broadcast of the
    // compiled step also crosses the chip-to-chip tree. The cache
    // shares this compile with the per-chip simulation above (same
    // scaled-down shape), so varying only the cluster parameters
    // compiles nothing new.
    const auto model = compiler::compileCached(share.config, chipConfig);
    const std::size_t depth = log2Ceil(cluster.chips);
    double comm = 0.0;
    for (const auto &segment : model->stepSegments) {
        for (const auto &inst :
             segment.tilePrograms[0].instructions()) {
            if (isa::opInfo(inst.op).cls != isa::OpClass::Comm)
                continue;
            const std::size_t words = inst.op == isa::Opcode::Reduce
                                          ? inst.srcA.len
                                          : inst.dst.len;
            ++result.commEvents;
            result.commWords += words;
            comm += static_cast<double>(depth) *
                    (cluster.hopSeconds +
                     static_cast<double>(words) * kWordBytes /
                         (cluster.linkGBs * 1e9));
        }
    }
    result.commSecondsPerStep = comm;
    result.secondsPerStep += comm;
    // Link energy is negligible next to the chips; ignore.
    return result;
}

} // namespace manna::harness
