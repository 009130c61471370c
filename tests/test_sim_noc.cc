/**
 * @file
 * Tests for the H-tree NoC model and the controller tile model.
 */

#include <gtest/gtest.h>

#include "arch/energy_model.hh"
#include "sim/controller_tile.hh"
#include "sim/noc.hh"

namespace manna::sim
{
namespace
{

struct NocFixture
{
    arch::MannaConfig cfg;
    arch::EnergyModel energy{cfg};
    Noc noc{cfg, energy};
};

TEST(Noc, DepthIsLogTilesPlusRoot)
{
    NocFixture f;
    EXPECT_EQ(f.noc.depth(), 5u); // lg(16) + 1

    arch::MannaConfig four = arch::MannaConfig::withTiles(4);
    arch::EnergyModel energy(four);
    Noc noc(four, energy);
    EXPECT_EQ(noc.depth(), 3u);
}

TEST(Noc, LatencyScalesWithPayload)
{
    NocFixture f;
    const Cycle small = f.noc.reduceCycles(1);
    const Cycle large = f.noc.reduceCycles(1024);
    EXPECT_LT(small, large);
    // Serialization term: 1024 words over 8-wide links is 128 cycles
    // per level.
    EXPECT_EQ(large,
              f.noc.depth() * (f.cfg.nocHopCycles + 1024 / 8));
    EXPECT_EQ(f.noc.broadcastCycles(1024), large);
}

TEST(Noc, EnergyScalesWithPayloadAndTiles)
{
    NocFixture f;
    EXPECT_GT(f.noc.reduceEnergyPj(100), f.noc.reduceEnergyPj(10));

    arch::MannaConfig big = arch::MannaConfig::withTiles(64);
    arch::EnergyModel bigEnergy(big);
    Noc bigNoc(big, bigEnergy);
    EXPECT_GT(bigNoc.reduceEnergyPj(100), f.noc.reduceEnergyPj(100));
}

TEST(Noc, CombineSum)
{
    const float t0[] = {1.0f, 2.0f}, t1[] = {3.0f, 4.0f},
                t2[] = {5.0f, 6.0f};
    const float *const perTile[] = {t0, t1, t2};
    std::vector<float> out;
    Noc::combineInto(perTile, 3, 2, isa::ReduceOp::Sum, out);
    EXPECT_EQ(out, (std::vector<float>{9.0f, 12.0f}));
}

TEST(Noc, CombineMax)
{
    const float t0[] = {1.0f, 9.0f}, t1[] = {3.0f, 4.0f},
                t2[] = {-5.0f, 6.0f};
    const float *const perTile[] = {t0, t1, t2};
    std::vector<float> out;
    Noc::combineInto(perTile, 3, 2, isa::ReduceOp::Max, out);
    EXPECT_EQ(out, (std::vector<float>{3.0f, 9.0f}));
}

// ---------------------------------------------------------------------
// Controller tile model
// ---------------------------------------------------------------------

struct CtrlFixture
{
    arch::MannaConfig cfg;
    arch::EnergyModel energy{cfg};
    ControllerTileModel model{cfg, energy};
};

TEST(ControllerTile, DenseLayerScalesWithMatrixSize)
{
    CtrlFixture f;
    const CtrlCost small = f.model.denseLayer(8, 8);
    const CtrlCost big = f.model.denseLayer(256, 256);
    EXPECT_LT(small.cycles, big.cycles);
    EXPECT_LT(small.energyPj, big.energyPj);
    // 256x256 on an 8x8 array: 32x32 tile passes plus fill.
    EXPECT_EQ(big.cycles, 32u * 32u + 16u);
}

TEST(ControllerTile, ForwardCostCoversAllLayers)
{
    CtrlFixture f;
    mann::MannConfig one;
    one.controllerLayers = 1;
    one.controllerWidth = 64;
    mann::MannConfig three = one;
    three.controllerLayers = 3;
    EXPECT_LT(f.model.forwardCost(one).cycles,
              f.model.forwardCost(three).cycles);
}

TEST(ControllerTile, LstmCostsMoreThanMlp)
{
    CtrlFixture f;
    mann::MannConfig mlp;
    mlp.controllerWidth = 128;
    mann::MannConfig lstm = mlp;
    lstm.controllerKind = mann::ControllerKind::LSTM;
    EXPECT_GT(f.model.forwardCost(lstm).cycles,
              f.model.forwardCost(mlp).cycles);
    EXPECT_GT(f.model.forwardCost(lstm).energyPj,
              f.model.forwardCost(mlp).energyPj);
}

TEST(ControllerTile, ActivationThroughput)
{
    CtrlFixture f;
    EXPECT_EQ(f.model.activation(64).cycles, 8u);
}

TEST(Noc, ExportsRecordedCountersAndResetKeepsKeys)
{
    NocFixture f;
    StatRegistry none;
    f.noc.counters().exportStats(none, "noc");
    EXPECT_TRUE(none.empty()); // nothing recorded yet

    f.noc.recordReduce(16, 40);
    f.noc.recordReduce(4, 10);
    StatRegistry reg;
    f.noc.counters().exportStats(reg, "noc");
    EXPECT_EQ(reg.size(), 4u); // reduce.* only
    EXPECT_EQ(reg.get("noc.reduce.ops"), 2.0);
    EXPECT_EQ(reg.get("noc.reduce.words"), 20.0);
    EXPECT_EQ(reg.get("noc.reduce.cycles"), 50.0);
    EXPECT_EQ(f.noc.counters().counter(NocCounter::ReduceCycles), 50.0);
    EXPECT_FALSE(reg.has("noc.broadcast.ops"));

    f.noc.resetStats();
    StatRegistry after;
    f.noc.counters().exportStats(after, "noc");
    EXPECT_EQ(after.size(), 4u);
    EXPECT_EQ(after.get("noc.reduce.ops"), 0.0);
}

TEST(ControllerTile, ExportsRecordedCounters)
{
    CtrlFixture f;
    f.model.activation(64);
    StatRegistry reg;
    f.model.counters().exportStats(reg, "ctrl");
    EXPECT_EQ(reg.size(), 2u); // activations + cycles
    EXPECT_EQ(reg.get("ctrl.activations"), 64.0);
    EXPECT_EQ(reg.get("ctrl.cycles"), 8.0);
    EXPECT_EQ(f.model.counters().counter(CtrlCounter::Cycles), 8.0);
}

} // namespace
} // namespace manna::sim
