/**
 * @file
 * Unit tests for the near-storage module: parameter DRAM buffer
 * reuse, SSD-sourced input, and the NS power column.
 */

#include <gtest/gtest.h>

#include <memory>

#include "acc/ns_module.hh"
#include "sim/simulator.hh"

using namespace reach;
using namespace reach::acc;

namespace
{

struct NsFixture : ::testing::Test
{
    void
    SetUp() override
    {
        ssd = std::make_unique<storage::Ssd>(sim, "ssd");

        noc::LinkConfig lc;
        lc.bandwidth = 12e9;
        local = std::make_unique<noc::Link>(sim, "local", lc);
        host = std::make_unique<noc::Link>(sim, "host", lc);

        ns = std::make_unique<NsModule>(sim, "ns", *ssd);
        ns->setInputPath(Path{}.fromSsd(*ssd).via(*local));
        ns->setOutputPath(Path{}.via(*host));
        ns->setParamPath(Path{}.via(*host));
        ns->configure(findKernel("CNN-ZCU9"));
    }

    sim::Simulator sim;
    std::unique_ptr<storage::Ssd> ssd;
    std::unique_ptr<noc::Link> local, host;
    std::unique_ptr<NsModule> ns;
};

} // namespace

TEST_F(NsFixture, LevelIsNearStor)
{
    EXPECT_EQ(ns->level(), Level::NearStor);
}

TEST_F(NsFixture, ParamBufferEnabledByDefault)
{
    // First execute fetches params over the host path; the second
    // hits the private DRAM buffer (paper §II-C reuse).
    WorkUnit w;
    w.ops = 1e6;
    w.paramBytes = 11'300'000;
    w.paramKey = "vgg16";

    sim::Tick t0 = sim.now();
    ns->execute(w);
    sim.run();
    sim::Tick cold = sim.now() - t0;

    t0 = sim.now();
    ns->execute(w);
    sim.run();
    sim::Tick warm = sim.now() - t0;

    EXPECT_LT(warm, cold);
    EXPECT_EQ(ns->paramBufferHits(), 1u);
}

TEST_F(NsFixture, InputStreamsFromSsd)
{
    WorkUnit w;
    w.ops = 1e6;
    w.bytesIn = 8 << 20;
    ns->execute(w);
    sim.run();
    EXPECT_EQ(ssd->bytesRead(), std::uint64_t(8) << 20);
}

TEST_F(NsFixture, NearStoragePowerColumnUsed)
{
    // NS deployment uses the second ZCU9 power number (Table III):
    // CNN 6.13 W instead of 5.19 W.
    EXPECT_DOUBLE_EQ(ns->activePowerW(), 6.13);
}

TEST_F(NsFixture, StreamingBoundByLocalLink)
{
    WorkUnit w;
    w.ops = 1;
    w.bytesIn = 128 << 20;
    sim::Tick done = 0;
    ns->execute(w, [&](sim::Tick t) { done = t; });
    sim.run();
    double bw = (128 << 20) / sim::secondsFromTicks(done);
    EXPECT_LE(bw, 12.1e9);
    EXPECT_GT(bw, 8e9);
}
