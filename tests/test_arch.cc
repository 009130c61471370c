/**
 * @file
 * Tests for the architecture models: configuration validation, the
 * energy model's calibration and trends, and the area/TDP model
 * (including the Section 7.3 HBM accounting).
 */

#include <gtest/gtest.h>

#include "arch/area_model.hh"
#include "arch/energy_model.hh"
#include "arch/manna_config.hh"
#include "common/error.hh"

namespace manna::arch
{
namespace
{

TEST(MannaConfig, BaselineMatchesPaperSection61)
{
    const MannaConfig cfg = MannaConfig::baseline16();
    EXPECT_EQ(cfg.numTiles, 16u);
    EXPECT_EQ(cfg.emacsPerTile, 32u);
    EXPECT_EQ(cfg.matrixBufferBytes, 2_MiB);
    EXPECT_EQ(cfg.matrixScratchpadBytes, 16_KiB);
    EXPECT_EQ(cfg.vectorBufferBytes, 32_KiB);
    EXPECT_EQ(cfg.vectorScratchpadBytes, 4_KiB);
    EXPECT_DOUBLE_EQ(cfg.clockMhz, 500.0);
    EXPECT_EQ(cfg.systolicRows, 8u);
    EXPECT_EQ(cfg.systolicCols, 8u);
    EXPECT_EQ(cfg.controllerBufferBytes, 5_MiB);
    EXPECT_NO_FATAL_FAILURE(cfg.validate());
}

TEST(MannaConfig, OnChipStorageNearPaperTotal)
{
    // Table 3 reports 38 MiB of on-chip memory for Manna.
    const MannaConfig cfg = MannaConfig::baseline16();
    const double mib = static_cast<double>(cfg.totalOnChipBytes()) /
                       (1024.0 * 1024.0);
    EXPECT_GT(mib, 36.0);
    EXPECT_LT(mib, 40.0);
}

TEST(MannaConfig, AggregateBandwidthNearPaper)
{
    // ~1.2 TB/s of effective differentiable-memory bandwidth.
    const MannaConfig cfg = MannaConfig::baseline16();
    EXPECT_GT(cfg.aggregateMatrixBandwidthGBs(), 900.0);
    EXPECT_LT(cfg.aggregateMatrixBandwidthGBs(), 1300.0);
}

TEST(MannaConfig, DerivedQuantities)
{
    const MannaConfig cfg = MannaConfig::baseline16();
    EXPECT_DOUBLE_EQ(cfg.cyclePeriodSec(), 2e-9);
    EXPECT_EQ(cfg.matrixScratchpadHalfBytes(), 8_KiB);
    EXPECT_EQ(cfg.matrixScratchpadHalfWords(), 2048u);
    EXPECT_EQ(cfg.matrixScratchpadBanks(), 32u);
}

TEST(MannaConfig, TileSweepPreset)
{
    const MannaConfig cfg = MannaConfig::withTiles(64);
    EXPECT_EQ(cfg.numTiles, 64u);
    EXPECT_EQ(cfg.emacsPerTile, 32u); // per-tile resources unchanged
}

TEST(MannaConfig, AblationPresets)
{
    EXPECT_FALSE(MannaConfig::memHeavy().hasDmat);
    EXPECT_FALSE(MannaConfig::memHeavy().hasEmac);
    EXPECT_TRUE(MannaConfig::memHeavyTranspose().hasDmat);
    EXPECT_FALSE(MannaConfig::memHeavyTranspose().hasEmac);
    EXPECT_FALSE(MannaConfig::memHeavyEmac().hasDmat);
    EXPECT_TRUE(MannaConfig::memHeavyEmac().hasEmac);
    EXPECT_TRUE(MannaConfig::baseline16().hasDmat);
    EXPECT_TRUE(MannaConfig::baseline16().hasEmac);
}

/** Expect validate() to throw a ConfigError mentioning @p needle and
 * carrying the config's own fingerprint as context. */
void
expectRejected(const MannaConfig &cfg, const std::string &needle)
{
    try {
        cfg.validate();
        FAIL() << "validate() accepted an invalid config (expected "
               << needle << ")";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
            << e.what();
        EXPECT_EQ(e.kind(), ErrorKind::Config);
        EXPECT_EQ(e.context().fingerprint, cfg.fingerprint());
    }
}

TEST(MannaConfigValidation, RejectsNonPowerOfTwoTiles)
{
    MannaConfig cfg;
    cfg.numTiles = 12;
    expectRejected(cfg, "power of two");
}

TEST(MannaConfigValidation, RejectsOverWideBuffer)
{
    MannaConfig cfg;
    cfg.matrixBufferWidthWords = 64; // > emacsPerTile
    expectRejected(cfg, "matrixBufferWidthWords");
}

TEST(MannaConfigValidation, RejectsTinyScratchpad)
{
    MannaConfig cfg;
    cfg.matrixScratchpadBytes = 64; // 16 words, below one padded row
    expectRejected(cfg, "padded row");
}

TEST(MannaConfig, DescribeMentionsKeyFields)
{
    const std::string desc = MannaConfig::baseline16().describe();
    EXPECT_NE(desc.find("16"), std::string::npos);
    EXPECT_NE(desc.find("2 MiB"), std::string::npos);
    EXPECT_NE(desc.find("DMAT"), std::string::npos);
}

// ---------------------------------------------------------------------
// EnergyModel
// ---------------------------------------------------------------------

TEST(EnergyModel, SramEnergyGrowsWithCapacity)
{
    const Energy small = EnergyModel::sramAccessPj(4_KiB);
    const Energy medium = EnergyModel::sramAccessPj(64_KiB);
    const Energy large = EnergyModel::sramAccessPj(1_MiB);
    EXPECT_LT(small, medium);
    EXPECT_LT(medium, large);
    EXPECT_GT(small, 0.0);
}

TEST(EnergyModel, AllEventsPositive)
{
    const MannaConfig cfg = MannaConfig::baseline16();
    const EnergyModel model(cfg);
    for (std::size_t e = 0; e < kNumEnergyEvents; ++e)
        EXPECT_GT(model.eventEnergyPj(static_cast<EnergyEvent>(e)),
                  0.0);
}

TEST(EnergyModel, BusyPowerNearPaperEnvelope)
{
    // Table 3: Manna TDP is 16 W. Busy power should land in that
    // neighbourhood (TDP bounds typical power from above).
    const EnergyModel model(MannaConfig::baseline16());
    EXPECT_GT(model.busyPowerWatts(), 8.0);
    EXPECT_LT(model.busyPowerWatts(), 20.0);
}

TEST(EnergyModel, MatrixBufferCostsMoreThanScratchpad)
{
    const EnergyModel model(MannaConfig::baseline16());
    EXPECT_GT(model.eventEnergyPj(EnergyEvent::MatrixBufferAccess),
              model.eventEnergyPj(
                  EnergyEvent::MatrixScratchpadAccess));
    EXPECT_GT(model.eventEnergyPj(EnergyEvent::MatrixScratchpadAccess),
              model.eventEnergyPj(EnergyEvent::RegisterFileAccess));
}

TEST(EnergyModel, LeakageAndInfrastructureScaleWithTiles)
{
    const EnergyModel small(MannaConfig::withTiles(4));
    const EnergyModel large(MannaConfig::withTiles(64));
    EXPECT_LT(small.leakageWatts(), large.leakageWatts());
    EXPECT_LT(small.infrastructureWatts(),
              large.infrastructureWatts());
}

// ---------------------------------------------------------------------
// Area model
// ---------------------------------------------------------------------

TEST(AreaModel, BaselineNearPaper40mm2)
{
    const AreaBreakdown area = areaOf(MannaConfig::baseline16());
    EXPECT_GT(area.total(), 34.0);
    EXPECT_LT(area.total(), 46.0);
    // SRAM dominates ("investing most of the die area ... in highly
    // banked on-chip memories").
    EXPECT_GT(area.sram / area.total(), 0.75);
}

TEST(AreaModel, HbmExtensionMatchesSection73)
{
    MannaConfig cfg = MannaConfig::baseline16();
    cfg.hasHbm = true;
    const AreaBreakdown area = areaOf(cfg);
    // 40 mm^2 -> ~180 mm^2 with four ~35 mm^2 HBM controllers.
    EXPECT_NEAR(area.hbmPhy, 140.0, 1.0);
    EXPECT_GT(area.total(), 170.0);
    EXPECT_LT(area.total(), 190.0);

    // TDP rises toward ~116 W with four 25 W HBM modules.
    const double watts = tdpWatts(cfg);
    EXPECT_GT(watts, 100.0);
    EXPECT_LT(watts, 125.0);
}

TEST(AreaModel, RenderMentionsComponents)
{
    const std::string text =
        renderArea(areaOf(MannaConfig::baseline16()));
    EXPECT_NE(text.find("SRAM"), std::string::npos);
    EXPECT_NE(text.find("total"), std::string::npos);
}

class TileAreaSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(TileAreaSweep, AreaMonotonicInTiles)
{
    const auto tiles = static_cast<std::size_t>(GetParam());
    const double a = areaOf(MannaConfig::withTiles(tiles)).total();
    const double b =
        areaOf(MannaConfig::withTiles(tiles * 2)).total();
    EXPECT_LT(a, b);
}

INSTANTIATE_TEST_SUITE_P(Tiles, TileAreaSweep,
                         ::testing::Values(2, 4, 8, 16, 32));

} // namespace
} // namespace manna::arch
