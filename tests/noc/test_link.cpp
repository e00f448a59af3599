/** @file Unit + property tests for the link model. */

#include <gtest/gtest.h>

#include "noc/link.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

using namespace reach;
using namespace reach::noc;

namespace
{

LinkConfig
cfg(double bw, sim::Tick lat = 0, sim::Tick overhead = 0)
{
    LinkConfig c;
    c.bandwidth = bw;
    c.latency = lat;
    c.perTransferOverhead = overhead;
    return c;
}

} // namespace

TEST(Link, SerializationMatchesBandwidth)
{
    sim::Simulator sim;
    Link l(sim, "l", cfg(1e9)); // 1 GB/s = 1 B/ns
    sim::Tick done = l.reserve(1000, 0);
    EXPECT_EQ(done, 1000u * 1000u); // 1000 B = 1000 ns = 1e6 ticks
}

TEST(Link, LatencyAddsAfterSerialization)
{
    sim::Simulator sim;
    Link l(sim, "l", cfg(1e9, 500));
    EXPECT_EQ(l.reserve(1000, 0), 1'000'000u + 500u);
}

TEST(Link, OverheadChargedPerTransfer)
{
    sim::Simulator sim;
    Link l(sim, "l", cfg(1e9, 0, 100));
    sim::Tick one = l.reserve(1000, 0);
    EXPECT_EQ(one, 100u + 1'000'000u);
}

TEST(Link, BackToBackTransfersQueue)
{
    sim::Simulator sim;
    Link l(sim, "l", cfg(1e9));
    sim::Tick first = l.reserve(1000, 0);
    sim::Tick second = l.reserve(1000, 0);
    EXPECT_EQ(second, first + 1'000'000u);
}

TEST(Link, IdleGapNotCharged)
{
    sim::Simulator sim;
    Link l(sim, "l", cfg(1e9));
    l.reserve(1000, 0);
    // A transfer requested long after the link went idle starts then.
    sim::Tick done = l.reserve(1000, 50'000'000);
    EXPECT_EQ(done, 50'000'000u + 1'000'000u);
}

TEST(Link, ZeroBandwidthIsFatal)
{
    sim::Simulator sim;
    EXPECT_THROW(Link(sim, "l", cfg(0)), sim::SimFatal);
}

TEST(Link, StatsAccumulate)
{
    sim::Simulator sim;
    Link l(sim, "l", cfg(1e9));
    l.reserve(100, 0);
    l.reserve(200, 0);
    EXPECT_EQ(l.bytesMoved(), 300u);
    EXPECT_GT(l.busyTicks(), 0u);
}

TEST(Link, EnergyPerBit)
{
    sim::Simulator sim;
    LinkConfig c = cfg(1e9);
    c.energyPerBitPj = 2.0;
    Link l(sim, "l", c);
    l.reserve(1000, 0);
    EXPECT_DOUBLE_EQ(l.dynamicEnergyPj(), 1000.0 * 8 * 2.0);
}

TEST(PcieLinkTest, EffectiveBandwidthDerated)
{
    sim::Simulator sim;
    PcieLink l(sim, "pcie");
    // 16 GB/s theoretical at 75% efficiency = 12 GB/s effective.
    EXPECT_NEAR(l.bandwidth(), 12e9, 1e6);
}

/** Property: N transfers through a link take N*T regardless of
 *  arrival pattern that keeps the link busy. */
class LinkConservation : public ::testing::TestWithParam<int>
{
};

TEST_P(LinkConservation, BandwidthConserved)
{
    sim::Simulator sim;
    Link l(sim, "l", cfg(10e9));
    int n = GetParam();
    sim::Tick done = 0;
    for (int i = 0; i < n; ++i)
        done = l.reserve(1 << 20, 0);
    double seconds = sim::secondsFromTicks(done);
    double bytes = static_cast<double>(n) * (1 << 20);
    EXPECT_NEAR(bytes / seconds, 10e9, 10e9 * 0.01);
}

INSTANTIATE_TEST_SUITE_P(Counts, LinkConservation,
                         ::testing::Values(1, 3, 10, 64));
