/**
 * @file
 * End-to-end validation of the DNC-on-Manna stack: the compiled
 * per-tile programs running on the cycle-level chip must reproduce
 * the golden DNC's outputs, read vectors, memory, link matrix, and
 * usage vector within FP reassociation tolerance.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "baselines/ablation.hh"
#include "common/error.hh"
#include "common/hash.hh"
#include "compiler/compiler.hh"
#include "compiler/dnc_codegen.hh"
#include "sim/chip.hh"
#include "sim/dnc_chip.hh"
#include "tensor/vector_ops.hh"
#include "workloads/benchmarks.hh"

namespace manna::sim
{
namespace
{

using mann::DncConfig;
using tensor::FVec;

DncConfig
makeConfig(std::size_t memN, std::size_t memM, std::size_t readHeads)
{
    DncConfig cfg;
    cfg.memN = memN;
    cfg.memM = memM;
    cfg.numReadHeads = readHeads;
    cfg.controllerWidth = 32;
    cfg.inputDim = 6;
    cfg.outputDim = 5;
    return cfg;
}

struct Deviation
{
    float output = 0.0f;
    float reads = 0.0f;
    float memory = 0.0f;
    float link = 0.0f;
    float usage = 0.0f;
};

Deviation
compareToGolden(const DncConfig &dc, const arch::MannaConfig &ac,
                std::size_t steps, std::uint64_t seed = 17)
{
    const auto model = compiler::compileDnc(dc, ac);
    DncChip chip(model, seed);
    mann::Dnc golden(dc, seed);
    Rng rng(seed * 13 + 5);

    Deviation dev;
    for (std::size_t t = 0; t < steps; ++t) {
        FVec x(dc.inputDim);
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        const auto goldTrace = golden.step(x);
        const FVec out = chip.step(x);
        dev.output = std::max(
            dev.output, tensor::maxAbsDiff(out, goldTrace.output));
        for (std::size_t h = 0; h < dc.numReadHeads; ++h)
            dev.reads = std::max(
                dev.reads,
                tensor::maxAbsDiff(chip.readVectors()[h],
                                   goldTrace.readVectors[h]));
        dev.memory = std::max(dev.memory,
                              chip.gatherMemory().maxAbsDiff(
                                  golden.memory().matrix()));
        dev.link = std::max(
            dev.link,
            chip.gatherLink().maxAbsDiff(golden.linkMatrix()));
        dev.usage = std::max(
            dev.usage,
            tensor::maxAbsDiff(chip.gatherUsage(), golden.usage()));
    }
    return dev;
}

TEST(DncChip, MatchesGoldenSmall)
{
    const auto dev = compareToGolden(
        makeConfig(32, 16, 1), arch::MannaConfig::withTiles(4), 5);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.reads, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
    EXPECT_LT(dev.link, 1e-3f);
    EXPECT_LT(dev.usage, 1e-3f);
}

TEST(DncChip, MatchesGoldenMultiHead)
{
    const auto dev = compareToGolden(
        makeConfig(48, 20, 3), arch::MannaConfig::withTiles(4), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.reads, 1e-3f);
    EXPECT_LT(dev.link, 1e-3f);
}

TEST(DncChip, MatchesGoldenSixteenTiles)
{
    const auto dev = compareToGolden(
        makeConfig(64, 24, 2), arch::MannaConfig::baseline16(), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
    EXPECT_LT(dev.link, 1e-3f);
    EXPECT_LT(dev.usage, 1e-3f);
}

TEST(DncChip, MatchesGoldenNonDivisibleRows)
{
    const auto dev = compareToGolden(
        makeConfig(35, 12, 2), arch::MannaConfig::withTiles(8), 4);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.memory, 1e-3f);
    EXPECT_LT(dev.link, 1e-3f);
}

TEST(DncChip, MatchesGoldenWithoutDmat)
{
    const auto dev = compareToGolden(
        makeConfig(32, 16, 2), arch::MannaConfig::memHeavy(), 3);
    EXPECT_LT(dev.output, 1e-3f);
    EXPECT_LT(dev.link, 1e-3f);
}

class DncChipSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>>
{
};

TEST_P(DncChipSweep, MatchesGolden)
{
    const auto [memN, memM, heads, tiles] = GetParam();
    const auto dev = compareToGolden(
        makeConfig(static_cast<std::size_t>(memN),
                   static_cast<std::size_t>(memM),
                   static_cast<std::size_t>(heads)),
        arch::MannaConfig::withTiles(static_cast<std::size_t>(tiles)),
        3);
    EXPECT_LT(dev.output, 2e-3f);
    EXPECT_LT(dev.reads, 2e-3f);
    EXPECT_LT(dev.memory, 2e-3f);
    EXPECT_LT(dev.link, 2e-3f);
    EXPECT_LT(dev.usage, 2e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DncChipSweep,
    ::testing::Values(std::tuple{16, 8, 1, 2},
                      std::tuple{40, 16, 2, 8},
                      std::tuple{64, 12, 4, 16},
                      std::tuple{33, 10, 2, 4}));

TEST(DncChip, DeterministicAndResettable)
{
    const DncConfig dc = makeConfig(32, 16, 1);
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    DncChip a(model, 3);
    DncChip b(model, 3);
    const FVec x(dc.inputDim, 0.25f);
    const FVec first = a.step(x);
    EXPECT_EQ(first, b.step(x));
    a.step(x);
    a.reset();
    EXPECT_EQ(a.report().steps, 0u);
    EXPECT_EQ(a.step(x), first);
}

TEST(DncChip, HonorsCancellation)
{
    const DncConfig dc = makeConfig(32, 16, 1);
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    const FVec x(dc.inputDim, 0.25f);

    // A fired token stops the step before any work...
    CancelToken fired;
    fired.cancel();
    DncChip cancelled(model, 3);
    cancelled.setCancelToken(&fired);
    EXPECT_THROW(cancelled.step(x), SimError);

    // ...and a token that never fires must not perturb results.
    CancelToken idle;
    DncChip watched(model, 3);
    DncChip plain(model, 3);
    watched.setCancelToken(&idle);
    for (int t = 0; t < 3; ++t)
        EXPECT_EQ(watched.step(x), plain.step(x));
    EXPECT_EQ(watched.report().totalCycles, plain.report().totalCycles);
}

TEST(DncChip, ReportCoversSegments)
{
    const DncConfig dc = makeConfig(32, 16, 2);
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    DncChip chip(model, 3);
    chip.step(FVec(dc.inputDim, 0.1f));
    const RunReport rep = chip.report();
    EXPECT_GT(rep.totalCycles, 0u);
    EXPECT_GT(rep.totalEnergyPj(), 0.0);
    // Addressing (usage/allocation/linkage) must be a visible cost.
    EXPECT_GT(rep.groups.at(mann::KernelGroup::Addressing).cycles,
              0u);
    EXPECT_GT(rep.groups.at(mann::KernelGroup::SoftWrite).cycles, 0u);
}

TEST(DncChip, LinkMatrixCostDominatesForTallMemories)
{
    // memN >> memM: the O(N^2) linkage and link-product kernels
    // should be a large share of the step (the scaling point the
    // dnc_memory example makes).
    const DncConfig dc = makeConfig(128, 8, 1);
    const auto model =
        compiler::compileDnc(dc, arch::MannaConfig::withTiles(4));
    DncChip chip(model, 3);
    chip.step(FVec(dc.inputDim, 0.1f));
    const RunReport rep = chip.report();
    const double addressing = static_cast<double>(
        rep.groups.at(mann::KernelGroup::Addressing).cycles);
    const double total = static_cast<double>(rep.totalCycles);
    EXPECT_GT(addressing / total, 0.3);
}

// ---------------------------------------------------------------------
// Pinned counters: both chip drivers share one engine, so a refactor
// of it must leave every cycle, energy and stats counter of both MANN
// variants byte-identical, in both fidelities. The tensor digests pin
// the computed bits too: they were recorded when cycle mode still
// executed every instruction unfused as it was interpreted, so they
// hold the replay tape's passes (fusion, staging elision, block ops)
// to that per-instruction reference on real compiled programs.
// ---------------------------------------------------------------------

struct PinnedCounters
{
    /** "ntm" / "dnc": the memN 40 shapes of the test; "dnc512": the
     * 512-row DNC; any other name: that Table-2 benchmark. */
    const char *name;
    std::size_t tiles;
    Fidelity fidelity;
    Cycle totalCycles;
    std::uint64_t energyBits; ///< bit pattern of totalEnergyPj()
    std::uint64_t statsDigest;
    std::uint64_t groupsDigest;
    /** FNV-1a over every step's output and read vectors, then the
     * gathered memory (and the DNC's link matrix and usage). */
    std::uint64_t tensorDigest;
};

/** FNV-1a over the stats keys and f64 values (perfbench's scheme). */
std::uint64_t
statsDigestOf(const RunReport &rep)
{
    Fnv1a h;
    for (const auto &[key, value] : rep.stats.entries())
        h.bytes(key.data(), key.size()).f64(value);
    return h.value();
}

/** FNV-1a over the per-kernel-group cycles and energy, which the
 * stats entries do not carry. */
std::uint64_t
groupsDigestOf(const RunReport &rep)
{
    Fnv1a h;
    for (const auto &[group, gs] : rep.groups)
        h.u64(static_cast<std::uint64_t>(group))
            .u64(gs.cycles)
            .f64(gs.energyPj);
    return h.value();
}

void
hashBits(Fnv1a &h, const FVec &v)
{
    h.bytes(v.data(), v.size() * sizeof(float));
}

void
hashBits(Fnv1a &h, const tensor::FMat &m)
{
    for (std::size_t r = 0; r < m.rows(); ++r)
        hashBits(h, m.row(r));
}

void
hashEndState(Fnv1a &h, const Chip &chip)
{
    hashBits(h, chip.gatherMemory());
}

void
hashEndState(Fnv1a &h, const DncChip &chip)
{
    hashBits(h, chip.gatherMemory());
    hashBits(h, chip.gatherLink());
    hashBits(h, chip.gatherUsage());
}

template <typename ChipT, typename ModelT>
RunReport
runPinned(const ModelT &model, std::size_t inputDim, Fidelity fidelity,
          std::uint64_t *tensorDigest)
{
    ChipT chip(model, 5, fidelity);
    Rng rng(77);
    Fnv1a h;
    for (std::size_t t = 0; t < 6; ++t) {
        FVec x(inputDim);
        for (auto &v : x)
            v = static_cast<float>(rng.uniform(-1.0, 1.0));
        hashBits(h, chip.step(x));
        for (const FVec &r : chip.readVectors())
            hashBits(h, r);
    }
    hashEndState(h, chip);
    *tensorDigest = h.value();
    return chip.report();
}

TEST(ChipEngine, PinnedCountersBothDrivers)
{
    mann::MannConfig mc;
    mc.memN = 40;
    mc.memM = 16;
    mc.numReadHeads = 2;
    mc.controllerWidth = 32;
    mc.inputDim = 6;
    mc.outputDim = 5;
    const DncConfig dc = makeConfig(40, 16, 2);
    // perfbench's dnc512 shape.
    DncConfig dnc512 = makeConfig(512, 64, 2);
    dnc512.controllerWidth = 128;
    dnc512.inputDim = workloads::benchmarkByName("travers").config.inputDim;
    dnc512.outputDim =
        workloads::benchmarkByName("travers").config.outputDim;

    // 1 tile is where lazily created NoC/controller keys could differ
    // from the multi-tile key set; 16 is the baseline chip. The memN 40
    // loops are short; copy at 1 tile (its loop 16 x loop 8 x loop 64
    // soft-write nest), sort at 16 tiles and dnc512 at 1 tile pin long
    // loop nests too.
    const PinnedCounters expected[] = {
        {"ntm", 1, Fidelity::Cycle, 23700, 0x418e7197ad2ec26full,
         0x68fc8cc541e356a9ull, 0xeae3ed7540b7c340ull,
         0x99921fc0225aa6f2ull},
        {"ntm", 1, Fidelity::Fast, 23700, 0x418e7197ad2ec26dull,
         0xe19fdb4d8ae4f419ull, 0x34387f2461b4d6a8ull,
         0x99921fc0225aa6f2ull},
        {"dnc", 1, Fidelity::Cycle, 25638, 0x41909efe996d3d86ull,
         0xc1c1e25c0a33d2e2ull, 0xcb5e9fd55ffb15a3ull,
         0x279405590d3acfbaull},
        {"dnc", 1, Fidelity::Fast, 25638, 0x41909efe996d3d82ull,
         0x0f7ad41975009e24ull, 0x0a49e484e5f5f0abull,
         0x279405590d3acfbaull},
        {"ntm", 4, Fidelity::Cycle, 10656, 0x418c8c372a08a882ull,
         0x1ca69ff73fb251d4ull, 0x6e4cb38e4901c7b9ull,
         0xc71ff4ece9004a6aull},
        {"ntm", 4, Fidelity::Fast, 10656, 0x418c8c372a08a885ull,
         0x7d4fd2400492196eull, 0x8b581e35782d770cull,
         0xc71ff4ece9004a6aull},
        {"dnc", 4, Fidelity::Cycle, 12672, 0x41911d1a44a69270ull,
         0x8b08ea650baa498eull, 0x3c8434e7f022ccb3ull,
         0xc9e3a24fae1f0442ull},
        {"dnc", 4, Fidelity::Fast, 12672, 0x41911d1a44a69270ull,
         0x984ded97170c522dull, 0xfda80f2347895e2cull,
         0xc9e3a24fae1f0442ull},
        {"ntm", 16, Fidelity::Cycle, 9522, 0x41a37d2a26148301ull,
         0x2e7d3aff986dc349ull, 0x934d82db54e11d5bull,
         0xaa1feb8ab5c12d19ull},
        {"ntm", 16, Fidelity::Fast, 9522, 0x41a37d2a26148301ull,
         0x00a0bc9ec7acd6aeull, 0xb6f7c4b427bbb7eeull,
         0xaa1feb8ab5c12d19ull},
        {"dnc", 16, Fidelity::Cycle, 11586, 0x41a7c93b6c2a5909ull,
         0xa0a8ae47042286cdull, 0x1a86f1186b61dcc5ull,
         0xa2b9b02c9b185d5dull},
        {"dnc", 16, Fidelity::Fast, 11586, 0x41a7c93b6c2a590bull,
         0xcff9d20229d6d0b7ull, 0xd7e9d6a721d4ddaeull,
         0xa2b9b02c9b185d5dull},
        {"copy", 1, Fidelity::Cycle, 880056, 0x41e2413a2d53ca34ull,
         0xdf4d365cdb70370bull, 0x9c0b766954213874ull,
         0xaead27dd3fafc615ull},
        {"copy", 1, Fidelity::Fast, 880056, 0x41e2413a2d53ce1full,
         0xeb21300bd989b303ull, 0x09038b78394b0829ull,
         0xaead27dd3fafc615ull},
        {"sort", 16, Fidelity::Cycle, 102738, 0x41db73bb3b6ec7beull,
         0xf7811f18b564e825ull, 0xb4cd9e8f79cbf62cull,
         0x1298100a10aa5134ull},
        {"sort", 16, Fidelity::Fast, 102738, 0x41db73bb3b6ec770ull,
         0x9fdc6455cc7bbf2dull, 0x60583d9a1a24783full,
         0x1298100a10aa5134ull},
        {"dnc512", 1, Fidelity::Cycle, 750186, 0x41dfb7dada55fe56ull,
         0x815bf85a0a40bef1ull, 0xac1fa1c1604778c0ull,
         0x41782aa375f439c3ull},
        {"dnc512", 1, Fidelity::Fast, 750186, 0x41dfb7dada560db4ull,
         0xb47606fc94034474ull, 0x1004e1b3446d99daull,
         0x41782aa375f439c3ull},
    };
    for (const PinnedCounters &want : expected) {
        const auto ac = arch::MannaConfig::withTiles(want.tiles);
        const std::string name = want.name;
        std::uint64_t tensorDigest = 0;
        RunReport rep;
        if (name == "dnc" || name == "dnc512") {
            const DncConfig &cfg = name == "dnc" ? dc : dnc512;
            rep = runPinned<DncChip>(compiler::compileDnc(cfg, ac),
                                     cfg.inputDim, want.fidelity,
                                     &tensorDigest);
        } else {
            const mann::MannConfig &cfg =
                name == "ntm"
                    ? mc
                    : workloads::benchmarkByName(name).config;
            rep = runPinned<Chip>(compiler::compile(cfg, ac),
                                  cfg.inputDim, want.fidelity,
                                  &tensorDigest);
        }
        const double energy = rep.totalEnergyPj();
        std::uint64_t energyBits = 0;
        std::memcpy(&energyBits, &energy, sizeof(energyBits));
        SCOPED_TRACE(name + " x" +
                     std::to_string(want.tiles) + " " +
                     toString(want.fidelity));
        EXPECT_EQ(rep.totalCycles, want.totalCycles);
        EXPECT_EQ(energyBits, want.energyBits) << std::hex << energyBits;
        EXPECT_EQ(statsDigestOf(rep), want.statsDigest)
            << std::hex << statsDigestOf(rep);
        EXPECT_EQ(groupsDigestOf(rep), want.groupsDigest)
            << std::hex << groupsDigestOf(rep);
        EXPECT_EQ(tensorDigest, want.tensorDigest) << std::hex
                                                   << tensorDigest;
    }
}

// The Figure 14 ablation machines, which take the timing paths the
// baseline chip never does: unskewed row-dot Vmms serialize on bank
// conflicts (noDmatConflictFactor) without the DMAT, and element-wise
// ops pay elwisePenaltyNoEmac without the eMAC.
TEST(ChipEngine, PinnedAblationCounters)
{
    struct Row
    {
        const char *machine; ///< a figure14Variants() name
        const char *model;   ///< "ntm" or "dnc": the memN 40 shapes
        std::size_t tiles;
        Fidelity fidelity;
        Cycle totalCycles;
        std::uint64_t energyBits;
        std::uint64_t statsDigest;
        std::uint64_t tensorDigest;
    };
    mann::MannConfig mc;
    mc.memN = 40;
    mc.memM = 16;
    mc.numReadHeads = 2;
    mc.controllerWidth = 32;
    mc.inputDim = 6;
    mc.outputDim = 5;
    const DncConfig dc = makeConfig(40, 16, 2);
    const Row expected[] = {
        {"MemHeavy", "ntm", 1, Fidelity::Cycle, 49158,
         0x419f6e402a8a946dull, 0x8d009cb0583667faull, 0x99921fc0225aa6f2ull},
        {"MemHeavy", "ntm", 1, Fidelity::Fast, 49158,
         0x419f6e402a8a946cull, 0xbb5e2aaca66598c7ull, 0x99921fc0225aa6f2ull},
        {"MemHeavy", "ntm", 4, Fidelity::Cycle, 23538,
         0x419f532adb378774ull, 0xa0ed0b40d8795e18ull, 0xc71ff4ece9004a6aull},
        {"MemHeavy", "ntm", 4, Fidelity::Fast, 23538,
         0x419f532adb378776ull, 0x00af60cf5a7148eeull, 0xc71ff4ece9004a6aull},
        {"MemHeavy", "dnc", 1, Fidelity::Cycle, 71508,
         0x41a6ec1af6569ec2ull, 0xf2be004f72698c1eull, 0x279405590d3acfbaull},
        {"MemHeavy", "dnc", 1, Fidelity::Fast, 71508,
         0x41a6ec1af6569ec2ull, 0x9610d9cffd65b2caull, 0x279405590d3acfbaull},
        {"MemHeavy", "dnc", 4, Fidelity::Cycle, 30594,
         0x41a47108aca01604ull, 0xe26eb273ba306a5cull, 0xc9e3a24fae1f0442ull},
        {"MemHeavy", "dnc", 4, Fidelity::Fast, 30594,
         0x41a47108aca01607ull, 0x585d1b8705cba0cbull, 0xc9e3a24fae1f0442ull},
        {"MemHeavy-Transpose", "ntm", 1, Fidelity::Cycle, 41484,
         0x419a907d2b97613aull, 0x7c4b686ba7666887ull, 0x99921fc0225aa6f2ull},
        {"MemHeavy-Transpose", "ntm", 1, Fidelity::Fast, 41484,
         0x419a907d2b976137ull, 0x2ec491a9a7018bb4ull, 0x99921fc0225aa6f2ull},
        {"MemHeavy-Transpose", "ntm", 4, Fidelity::Cycle, 18738,
         0x4199000688045441ull, 0xbe881f549c553ab2ull, 0xc71ff4ece9004a6aull},
        {"MemHeavy-Transpose", "ntm", 4, Fidelity::Fast, 18738,
         0x4199000688045440ull, 0xe10fc1cd2aaf5a21ull, 0xc71ff4ece9004a6aull},
        {"MemHeavy-Transpose", "dnc", 1, Fidelity::Cycle, 59106,
         0x41a2fd72a5f69ec2ull, 0x4532f299686e9448ull, 0x279405590d3acfbaull},
        {"MemHeavy-Transpose", "dnc", 1, Fidelity::Fast, 59106,
         0x41a2fd72a5f69ec1ull, 0xc0e7378cfc7360ceull, 0x279405590d3acfbaull},
        {"MemHeavy-Transpose", "dnc", 4, Fidelity::Cycle, 24870,
         0x41a0ab8db2d34938ull, 0x25a7a43c63643624ull, 0xc9e3a24fae1f0442ull},
        {"MemHeavy-Transpose", "dnc", 4, Fidelity::Fast, 24870,
         0x41a0ab8db2d34938ull, 0x9d4261ebdf680fc6ull, 0xc9e3a24fae1f0442ull},
        {"MemHeavy-eMAC", "ntm", 1, Fidelity::Cycle, 31374,
         0x4194168ed58a946bull, 0x14584fea57eb74e5ull, 0x99921fc0225aa6f2ull},
        {"MemHeavy-eMAC", "ntm", 1, Fidelity::Fast, 31374,
         0x4194168ed58a9469ull, 0xc5125bc27c685432ull, 0x99921fc0225aa6f2ull},
        {"MemHeavy-eMAC", "ntm", 4, Fidelity::Cycle, 15450,
         0x4194973957378774ull, 0xc2a24c116c2e6a64ull, 0xc71ff4ece9004a6aull},
        {"MemHeavy-eMAC", "ntm", 4, Fidelity::Fast, 15450,
         0x4194973957378776ull, 0xa73b6fcc7ff0e89aull, 0xc71ff4ece9004a6aull},
        {"MemHeavy-eMAC", "dnc", 1, Fidelity::Cycle, 38040,
         0x41987c4f3a2d3d86ull, 0xe56481d283430464ull, 0x279405590d3acfbaull},
        {"MemHeavy-eMAC", "dnc", 1, Fidelity::Fast, 38040,
         0x41987c4f3a2d3d80ull, 0x349d3db03d685027ull, 0x279405590d3acfbaull},
        {"MemHeavy-eMAC", "dnc", 4, Fidelity::Cycle, 18372,
         0x41989ff5f4402c09ull, 0x7b3d9c46482082b3ull, 0xc9e3a24fae1f0442ull},
        {"MemHeavy-eMAC", "dnc", 4, Fidelity::Fast, 18372,
         0x41989ff5f4402c0aull, 0x85562d26ea36bfccull, 0xc9e3a24fae1f0442ull},
    };
    for (const Row &want : expected) {
        const std::string machine = want.machine;
        arch::MannaConfig ac;
        for (const baselines::AblationVariant &v :
             baselines::figure14Variants())
            if (v.name == machine)
                ac = v.config;
        ac.numTiles = want.tiles;
        std::uint64_t tensorDigest = 0;
        const RunReport rep =
            std::string(want.model) == "dnc"
                ? runPinned<DncChip>(compiler::compileDnc(dc, ac),
                                     dc.inputDim, want.fidelity,
                                     &tensorDigest)
                : runPinned<Chip>(compiler::compile(mc, ac), mc.inputDim,
                                  want.fidelity, &tensorDigest);
        const double energy = rep.totalEnergyPj();
        std::uint64_t energyBits = 0;
        std::memcpy(&energyBits, &energy, sizeof(energyBits));
        SCOPED_TRACE(machine + " " + want.model + " x" +
                     std::to_string(want.tiles) + " " +
                     toString(want.fidelity));
        EXPECT_EQ(rep.totalCycles, want.totalCycles);
        EXPECT_EQ(energyBits, want.energyBits) << std::hex << energyBits;
        EXPECT_EQ(statsDigestOf(rep), want.statsDigest)
            << std::hex << statsDigestOf(rep);
        EXPECT_EQ(tensorDigest, want.tensorDigest) << std::hex
                                                   << tensorDigest;
    }
}

/**
 * FNV-1a over every op of @p engine's sealed tape: its fields, each
 * pointer as (tile, space, word offset) and each pool offset as the
 * pool entries it names, so neither host addresses nor the pools'
 * layout enter the digest.
 */
std::uint64_t
sealedTapeDigest(const ChipEngine &engine)
{
    using isa::Space;
    Fnv1a h;
    auto ptr = [&](const float *p) {
        const auto at = reinterpret_cast<std::uintptr_t>(p);
        for (std::size_t t = 0; p != nullptr && t < engine.numTiles(); ++t)
            for (const Space space : {Space::MatBuf, Space::MatSpad,
                                      Space::VecBuf, Space::VecSpad}) {
                const TileMemory &mem = engine.tile(t).memory();
                const auto base =
                    reinterpret_cast<std::uintptr_t>(mem.span(space, 0, 0));
                if (at >= base &&
                    at < base + mem.words(space) * sizeof(float)) {
                    h.u64(t).u64(static_cast<std::uint64_t>(space))
                        .u64((at - base) / sizeof(float));
                    return;
                }
            }
        EXPECT_EQ(p, nullptr) << "a tape pointer outside every tile";
        h.u64(~std::uint64_t{0});
    };
    const ReplayTape &tape = engine.tape();
    for (const ReplayOp &op : tape.ops()) {
        float imm = op.imm;
        std::uint32_t immBits = 0;
        std::memcpy(&immBits, &imm, sizeof immBits);
        const bool fused = op.kind == ReplayKind::FusedRowUpdate ||
                           op.kind == ReplayKind::FusedLinkUpdate;
        const bool sweep = op.kind == ReplayKind::RowDotSweep ||
                           op.kind == ReplayKind::ColumnSweep;
        const bool poolA = fused || op.kind == ReplayKind::Reduce ||
                           op.kind == ReplayKind::Broadcast;
        h.u64(static_cast<std::uint64_t>(op.kind))
            .u64(static_cast<std::uint64_t>(op.op))
            .u64(op.flags)
            .u64(op.vecs)
            .u64(op.n)
            .u64(op.rows)
            .u64(poolA ? 0 : op.pitchA)
            .u64(sweep ? 0 : op.pitchD)
            .u64(immBits)
            .u64(op.block);
        for (const float *p : {op.a, op.b, static_cast<const float *>(op.d),
                               static_cast<const float *>(op.dn)})
            ptr(p);
        if (fused)
            ptr(tape.srcPtrs(op.pitchA)[0]);
        for (std::uint32_t t = 0; op.kind == ReplayKind::Reduce && t < op.rows;
             ++t)
            ptr(tape.srcPtrs(op.pitchA)[t]);
        for (std::uint32_t t = 0;
             op.kind == ReplayKind::Broadcast && t < op.rows; ++t)
            ptr(tape.dstPtrs(op.pitchA)[t]);
        for (std::uint32_t v = 0; sweep && v < op.vecs; ++v) {
            ptr(tape.sweepPairs(op.pitchD)[v].v);
            ptr(tape.sweepPairs(op.pitchD)[v].d);
        }
    }
    return h.u64(tape.ops().size()).value();
}

// The tape every step replays, pinned op by op after step 1: the ten
// Table-2 shapes at 4 tiles and the 512-row DNC at 16. The digests
// were recorded while the tape still searched the recorded ops for the
// compiler's sweeps; they hold the sweeps the compiler names to the
// same sealed ops.
TEST(ChipEngine, SealedTapeDigestsPinned)
{
    const std::pair<const char *, std::uint64_t> expected[] = {
        {"copy", 0x9d00b8b4e4ce4d84ull},
        {"rptcopy", 0x0ff2a5983cbcd23dull},
        {"recall", 0x2595083d22d5a073ull},
        {"ngrams", 0x65ce0df42012baa8ull},
        {"sort", 0xfafed0aca8dcbf16ull},
        {"bAbI", 0x075ba706ed4ffd3full},
        {"short", 0x0b51223bee75068dull},
        {"travers", 0x902863d574759abbull},
        {"inf", 0xb6fc629b7fced750ull},
        {"shrdlu", 0xfec9aecff9a6a975ull},
        {"dnc512", 0x69b61a49a74d6281ull},
    };
    for (const auto &[name, digest] : expected) {
        SCOPED_TRACE(name);
        std::uint64_t got = 0;
        if (std::string(name) == "dnc512") {
            DncConfig dc = makeConfig(512, 64, 2);
            dc.controllerWidth = 128;
            const auto model = compiler::compileDnc(
                dc, arch::MannaConfig::withTiles(16));
            DncChip chip(model, 5, Fidelity::Fast);
            chip.step(FVec(dc.inputDim, 0.5f));
            got = sealedTapeDigest(chip.engine());
        } else {
            const mann::MannConfig &mc =
                workloads::benchmarkByName(name).config;
            const auto model =
                compiler::compile(mc, arch::MannaConfig::withTiles(4));
            Chip chip(model, 5, Fidelity::Fast);
            chip.step(FVec(mc.inputDim, 0.5f));
            got = sealedTapeDigest(chip.engine());
        }
        EXPECT_EQ(got, digest) << std::hex << got;
    }
}

// A row width that is not a multiple of the 32-word Matrix-Buffer
// width: every memory sweep ends in a 4-word column block. The digests
// were recorded before the replay tape merged column-blocked sweeps,
// so they hold those merged ops to the per-block arithmetic.
TEST(ChipEngine, PinnedTensorDigestRaggedColumns)
{
    mann::MannConfig mc;
    mc.memN = 64;
    mc.memM = 100;
    mc.numReadHeads = 2;
    mc.controllerWidth = 32;
    mc.inputDim = 6;
    mc.outputDim = 5;
    const DncConfig dc = makeConfig(64, 100, 2);
    const auto ac = arch::MannaConfig::withTiles(4);
    const struct
    {
        bool dnc;
        Fidelity fidelity;
        std::uint64_t tensorDigest;
    } expected[] = {
        {false, Fidelity::Cycle, 0x6f925a8bca2c8205ull},
        {false, Fidelity::Fast, 0x6f925a8bca2c8205ull},
        {true, Fidelity::Cycle, 0x71929b69d8cd4c00ull},
        {true, Fidelity::Fast, 0x71929b69d8cd4c00ull},
    };
    for (const auto &want : expected) {
        SCOPED_TRACE(std::string(want.dnc ? "dnc " : "ntm ") +
                     toString(want.fidelity));
        std::uint64_t tensorDigest = 0;
        if (want.dnc)
            runPinned<DncChip>(compiler::compileDnc(dc, ac), dc.inputDim,
                               want.fidelity, &tensorDigest);
        else
            runPinned<Chip>(compiler::compile(mc, ac), mc.inputDim,
                            want.fidelity, &tensorDigest);
        EXPECT_EQ(tensorDigest, want.tensorDigest) << std::hex
                                                   << tensorDigest;
    }
}

// The widest similarity sweep: five read heads and the write head give
// six keys, plus the row norms, so seven (row, vector) pairs per row;
// a batch of eight pairs straddles rows. The digest was recorded with
// the per-pair row-dot kernel, so it pins that batching changed no bit.
TEST(ChipEngine, PinnedTensorDigestSevenPairSweep)
{
    mann::MannConfig mc;
    mc.memN = 64;
    mc.memM = 1400;
    mc.numReadHeads = 5;
    mc.controllerWidth = 32;
    mc.inputDim = 6;
    mc.outputDim = 5;
    const auto model =
        compiler::compile(mc, arch::MannaConfig::withTiles(4));
    for (const Fidelity fidelity : {Fidelity::Cycle, Fidelity::Fast}) {
        SCOPED_TRACE(toString(fidelity));
        std::uint64_t tensorDigest = 0;
        runPinned<Chip>(model, mc.inputDim, fidelity, &tensorDigest);
        EXPECT_EQ(tensorDigest, 0x37fa3681fcbab4e8ull)
            << std::hex << tensorDigest;
    }
}

TEST(DncChipValidation, CompileRejectsTooManyTiles)
{
    try {
        compiler::compileDnc(makeConfig(8, 8, 1),
                             arch::MannaConfig::baseline16());
        FAIL() << "expected AssemblyError";
    } catch (const AssemblyError &e) {
        EXPECT_NE(std::string(e.what()).find("unsupported"),
                  std::string::npos);
        EXPECT_EQ(e.kind(), ErrorKind::Assembly);
    }
}

TEST(DncChipValidation, StrictCapacityThrowsAssemblyError)
{
    // 512 locations on one tile overflow the Vector Buffer. The error
    // must be catchable (a sweep isolates the failing point) and name
    // the configuration.
    arch::MannaConfig ac = arch::MannaConfig::withTiles(1);
    ac.strictCapacity = true;
    try {
        compiler::compileDnc(makeConfig(512, 64, 2), ac);
        FAIL() << "strict-capacity compile succeeded unexpectedly";
    } catch (const AssemblyError &e) {
        EXPECT_NE(std::string(e.what()).find("capacity violation"),
                  std::string::npos)
            << e.what();
        EXPECT_EQ(e.context().fingerprint, ac.fingerprint());
    }

    // Program length is checked against the instruction memory too.
    arch::MannaConfig tinyInstMem = arch::MannaConfig::withTiles(4);
    tinyInstMem.instMemEntries = 16;
    const auto model =
        compiler::compileDnc(makeConfig(40, 16, 2), tinyInstMem);
    ASSERT_EQ(model.warnings.size(), 1u);
    EXPECT_NE(model.warnings[0].find("instruction memory"),
              std::string::npos)
        << model.warnings[0];
}

TEST(DncChip, CommSequencesAlignedAcrossTiles)
{
    const auto model = compiler::compileDnc(
        makeConfig(35, 12, 2), arch::MannaConfig::withTiles(8));
    for (const auto &seg : model.stepSegments) {
        std::vector<std::vector<std::pair<int, std::uint32_t>>> comms(
            seg.tilePrograms.size());
        for (std::size_t t = 0; t < seg.tilePrograms.size(); ++t) {
            for (const auto &inst :
                 seg.tilePrograms[t].instructions()) {
                if (inst.op == isa::Opcode::Reduce)
                    comms[t].push_back({0, inst.srcA.len});
                else if (inst.op == isa::Opcode::Broadcast)
                    comms[t].push_back({1, inst.dst.len});
            }
        }
        for (std::size_t t = 1; t < comms.size(); ++t)
            EXPECT_EQ(comms[t], comms[0]) << seg.name << " tile " << t;
    }
}

TEST(DncChip, CompiledProgramsValid)
{
    const auto model = compiler::compileDnc(
        makeConfig(64, 24, 2), arch::MannaConfig::baseline16());
    EXPECT_EQ(model.stepSegments.size(), 9u);
    for (const auto &seg : model.stepSegments)
        for (const auto &p : seg.tilePrograms)
            EXPECT_EQ(p.validate(), "") << seg.name;
    EXPECT_NE(model.disassembleTile(0).find("linkage"),
              std::string::npos);
}

} // namespace
} // namespace manna::sim
