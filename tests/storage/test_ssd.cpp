/** @file Unit + property tests for the NVMe SSD model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fault/fault.hh"
#include "storage/ssd.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

using namespace reach;
using namespace reach::storage;

namespace
{

SsdConfig
cfg()
{
    SsdConfig c;
    c.flashChannels = 8;
    c.channelBandwidth = 1.75e9;
    return c;
}

} // namespace

TEST(Ssd, NeedsAtLeastOneChannel)
{
    sim::Simulator sim;
    SsdConfig bad = cfg();
    bad.flashChannels = 0;
    EXPECT_THROW(Ssd(sim, "s", bad), sim::SimFatal);
}

TEST(Ssd, ReadIncludesCommandAndMediaLatency)
{
    sim::Simulator sim;
    Ssd s(sim, "s", cfg());
    sim::Tick done = s.reserve(4096, false, 0);
    EXPECT_GT(done, cfg().commandOverhead + cfg().readLatency);
}

TEST(Ssd, WritesUseWriteLatency)
{
    sim::Simulator sim;
    Ssd s(sim, "s", cfg());
    sim::Tick r = s.reserve(4096, false, 0);
    sim::Simulator sim2;
    Ssd s2(sim2, "s2", cfg());
    sim::Tick w = s2.reserve(4096, true, 0);
    // Read media latency (70us) dominates write (30us).
    EXPECT_GT(r, w);
}

TEST(Ssd, ZeroByteCommandOnlyPaysOverhead)
{
    sim::Simulator sim;
    Ssd s(sim, "s", cfg());
    EXPECT_EQ(s.reserve(0, false, 1000), 1000u + cfg().commandOverhead);
}

TEST(Ssd, LargeStreamApproachesInternalBandwidth)
{
    sim::Simulator sim;
    Ssd s(sim, "s", cfg());
    const std::uint64_t bytes = 256 << 20;
    sim::Tick done = s.reserve(bytes, false, 0);
    double bw = static_cast<double>(bytes) /
                sim::secondsFromTicks(done);
    EXPECT_GT(bw, 0.85 * cfg().internalBandwidth());
}

TEST(Ssd, SequentialCommandsQueueOnChannels)
{
    sim::Simulator sim;
    Ssd s(sim, "s", cfg());
    sim::Tick a = s.reserve(8 << 20, false, 0);
    sim::Tick b = s.reserve(8 << 20, false, 0);
    EXPECT_GT(b, a);
}

TEST(Ssd, ByteCountersSplitReadWrite)
{
    sim::Simulator sim;
    Ssd s(sim, "s", cfg());
    s.reserve(1000, false, 0);
    s.reserve(500, true, 0);
    EXPECT_EQ(s.bytesRead(), 1000u);
    EXPECT_EQ(s.bytesWritten(), 500u);
}

TEST(Ssd, EnergyIncludesIdleFloor)
{
    sim::Simulator sim;
    Ssd s(sim, "s", cfg());
    // One simulated second of pure idle.
    double idle = s.energyJoules(sim::tickPerSec);
    EXPECT_NEAR(idle, cfg().idlePowerW, 0.01);

    // Activity adds energy.
    s.reserve(64 << 20, false, 0);
    double active = s.energyJoules(sim::tickPerSec);
    EXPECT_GT(active, idle);
}

TEST(Ssd, InternalBandwidthIsChannelsTimesRate)
{
    EXPECT_NEAR(cfg().internalBandwidth(), 8 * 1.75e9, 1.0);
}

namespace
{

/**
 * The drive's flash timing as first written: one schedule per
 * channel, each reserved in turn, completion at the slowest one.
 * @p retry is the fault delay the drive under test drew.
 */
class PerChannelReference
{
  public:
    explicit PerChannelReference(const SsdConfig &config)
        : c(config), channels(config.flashChannels)
    {}

    sim::Tick
    reserve(std::uint64_t bytes, bool write, sim::Tick at,
            sim::Tick retry, sim::Tick now)
    {
        sim::Tick start = at + retry + c.commandOverhead;
        if (bytes == 0)
            return start;
        std::uint64_t per_channel =
            (bytes + c.flashChannels - 1) / c.flashChannels;
        sim::Tick ser = sim::transferTicks(per_channel, c.channelBandwidth);
        sim::Tick done = 0;
        for (auto &channel : channels)
            done = std::max(done, channel.reserve(ser, start, now) + ser);
        return done + (write ? c.writeLatency : c.readLatency);
    }

  private:
    SsdConfig c;
    std::vector<sim::IntervalResource> channels;
};

} // namespace

TEST(Ssd, SingleScheduleMatchesPerChannelLoop)
{
    const std::uint64_t sizes[] = {0,       512,      4096,    65536,
                                   1 << 20, 3 << 20, 123'457};
    for (std::uint32_t channels : {1u, 3u, 8u}) {
        for (bool faults : {false, true}) {
            SCOPED_TRACE(::testing::Message()
                         << channels << " channels, faults "
                         << (faults ? "on" : "off"));
            sim::Simulator sim;
            SsdConfig c = cfg();
            c.flashChannels = channels;
            Ssd s(sim, "s", c);
            PerChannelReference ref(c);

            fault::FaultPlan plan;
            plan.ssdTimeoutProb = 0.1;
            fault::FaultInjector inj(sim, "inj", plan);
            if (faults)
                s.setFaultInjector(&inj);

            // Commands arrive at increasing simulated times (so past
            // intervals get pruned) and ask for flash time from now
            // up to a few ms ahead (so gaps open and get filled).
            sim::Rng rng(channels * 2 + (faults ? 1 : 0));
            std::uint64_t compared = 0;
            sim::Tick when = 0;
            for (int e = 0; e < 400; ++e) {
                when += rng.nextUInt(200 * sim::tickPerUs);
                sim.events().schedule(when, [&] {
                    for (int k = 0; k < 8; ++k) {
                        std::uint64_t bytes = sizes[rng.nextUInt(7)];
                        bool write = rng.nextUInt(4) == 0;
                        sim::Tick at =
                            sim.now() + rng.nextUInt(3 * sim::tickPerMs);
                        std::uint64_t timeouts = s.timeoutsInjected();
                        sim::Tick got = s.reserve(bytes, write, at);
                        sim::Tick retry =
                            (s.timeoutsInjected() - timeouts) *
                            plan.ssdTimeoutDelay;
                        ASSERT_EQ(got, ref.reserve(bytes, write, at,
                                                   retry, sim.now()))
                            << "command " << compared;
                        ++compared;
                    }
                });
            }
            sim.run();
            EXPECT_EQ(compared, 3200u);
            EXPECT_EQ(s.timeoutsInjected() > 0, faults);
        }
    }
}

/** Property: throughput never exceeds internal bandwidth. */
class SsdThroughput : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SsdThroughput, BoundedByInternalBandwidth)
{
    sim::Simulator sim;
    Ssd s(sim, "s", cfg());
    std::uint64_t bytes = GetParam();
    sim::Tick done = s.reserve(bytes, false, 0);
    double bw =
        static_cast<double>(bytes) / sim::secondsFromTicks(done);
    EXPECT_LE(bw, cfg().internalBandwidth() * 1.001);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SsdThroughput,
                         ::testing::Values(4096, 1 << 20, 16 << 20,
                                           256 << 20));
