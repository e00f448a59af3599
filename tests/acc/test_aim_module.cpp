/**
 * @file
 * Unit tests for the AIM near-memory module: DIMM ownership
 * handover, closed-row handback invariant, and the near-memory
 * power column.
 */

#include <gtest/gtest.h>

#include <memory>

#include "acc/aim_module.hh"
#include "sim/simulator.hh"

using namespace reach;
using namespace reach::acc;

namespace
{

struct AimFixture : ::testing::Test
{
    void
    SetUp() override
    {
        mem::DramTimings t;
        t.tREFI = 1'000'000'000;
        dimm = std::make_unique<mem::Dimm>(sim, "dimm", t);

        noc::LinkConfig lc;
        lc.bandwidth = 18e9;
        local = std::make_unique<noc::Link>(sim, "local", lc);

        aim = std::make_unique<AimModule>(sim, "aim", *dimm);
        aim->setInputPath(Path{}.via(*local));
        aim->setOutputPath(Path{}.via(*local));
        aim->configure(findKernel("GeMM-ZCU9"));
    }

    sim::Simulator sim;
    std::unique_ptr<mem::Dimm> dimm;
    std::unique_ptr<noc::Link> local;
    std::unique_ptr<AimModule> aim;
};

} // namespace

TEST_F(AimFixture, LevelIsNearMem)
{
    EXPECT_EQ(aim->level(), Level::NearMem);
}

TEST_F(AimFixture, OwnsDimmWhileExecuting)
{
    WorkUnit w;
    w.ops = 1e8;
    w.bytesIn = 16 << 20;

    bool checked = false;
    aim->execute(w);
    // Midway through execution, the DIMM must be acc-owned.
    sim.events().schedule(aim->freeAt() / 2, [&] {
        EXPECT_TRUE(dimm->isAccOwned());
        checked = true;
    });
    sim.run();
    EXPECT_TRUE(checked);
    EXPECT_FALSE(dimm->isAccOwned());
}

TEST_F(AimFixture, HandsBackWithAllRowsClosed)
{
    // Dirty the DIMM's banks first (host-side open rows).
    dimm->serviceBurst(0, false, 0, mem::RowPolicy::Open);
    EXPECT_FALSE(dimm->allRowsClosed());

    WorkUnit w;
    w.ops = 1e6;
    w.bytesIn = 1 << 20;
    aim->execute(w);
    sim.run();
    // Paper §II-B: all rows precharged at handback.
    EXPECT_TRUE(dimm->allRowsClosed());
    EXPECT_FALSE(dimm->isAccOwned());
}

TEST_F(AimFixture, HandoverCountTracksTasks)
{
    WorkUnit w;
    w.ops = 1e6;
    aim->execute(w);
    aim->execute(w);
    sim.run();
    auto *handovers = sim.stats().find("aim.handovers");
    ASSERT_NE(handovers, nullptr);
    EXPECT_DOUBLE_EQ(handovers->value(), 2.0);
}

TEST_F(AimFixture, NearMemPowerColumnUsed)
{
    // AIM modules use the first (near-memory) ZCU9 power figure.
    EXPECT_DOUBLE_EQ(aim->activePowerW(), 5.30);
}
