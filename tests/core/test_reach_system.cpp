/**
 * @file
 * Tests of the assembled machine: Table II topology, calibrated
 * bandwidths, GAM wiring and transfer paths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/reach_system.hh"
#include "sim/logging.hh"

using namespace reach;
using namespace reach::core;

namespace
{

SystemConfig
paperConfig()
{
    return SystemConfig{}; // defaults follow Table II
}

} // namespace

TEST(ReachSystem, TableTwoTopology)
{
    ReachSystem sys(paperConfig());
    EXPECT_TRUE(sys.hasOnChip());
    EXPECT_EQ(sys.numAims(), 4u);
    EXPECT_EQ(sys.numNs(), 4u);
}

TEST(ReachSystem, GamKnowsAllAccelerators)
{
    ReachSystem sys(paperConfig());
    // on-chip + host core + 4 AIM + 4 NS.
    EXPECT_EQ(sys.gam().numAccelerators(), 10u);
    EXPECT_EQ(sys.gam().acceleratorsAt(acc::Level::NearMem).size(),
              4u);
    EXPECT_EQ(sys.gam().acceleratorsAt(acc::Level::NearStor).size(),
              4u);
}

TEST(ReachSystem, CalibratedHostBandwidthInRange)
{
    ReachSystem sys(paperConfig());
    // Two DDR4-2400 channels: mid-30s GB/s sustained.
    EXPECT_GT(sys.hostDramBandwidth(), 30e9);
    EXPECT_LT(sys.hostDramBandwidth(), 38.4e9);
}

TEST(ReachSystem, PinnedBandwidthSkipsCalibration)
{
    SystemConfig cfg = paperConfig();
    cfg.hostDramStreamBw = 20e9;
    ReachSystem sys(cfg);
    EXPECT_DOUBLE_EQ(sys.hostDramBandwidth(), 20e9);
}

TEST(ReachSystem, NoOnChipConfigSupported)
{
    SystemConfig cfg = paperConfig();
    cfg.hasOnChipAcc = false;
    ReachSystem sys(cfg);
    EXPECT_FALSE(sys.hasOnChip());
    EXPECT_THROW(sys.onChip(), sim::SimFatal);
    EXPECT_EQ(sys.gam().numAccelerators(), 9u);
}

TEST(ReachSystem, ScaledInstanceCounts)
{
    SystemConfig cfg = paperConfig();
    cfg.numAimModules = 16;
    cfg.numSsds = 16;
    ReachSystem sys(cfg);
    EXPECT_EQ(sys.numAims(), 16u);
    EXPECT_EQ(sys.numNs(), 16u);
}

TEST(ReachSystem, AimModulesAttachToDistinctDimms)
{
    ReachSystem sys(paperConfig());
    std::set<const mem::Dimm *> dimms;
    for (std::uint32_t i = 0; i < sys.numAims(); ++i)
        dimms.insert(&sys.aim(i).dimm());
    EXPECT_EQ(dimms.size(), sys.numAims());
}

TEST(ReachSystem, NsModulesAttachToDistinctSsds)
{
    ReachSystem sys(paperConfig());
    std::set<const storage::Ssd *> ssds;
    for (std::uint32_t i = 0; i < sys.numNs(); ++i)
        ssds.insert(&sys.ns(i).ssd());
    EXPECT_EQ(ssds.size(), sys.numNs());
}

TEST(ReachSystem, TransferPathsNonEmptyBetweenLevels)
{
    ReachSystem sys(paperConfig());
    const acc::Accelerator *oc = &sys.onChip();
    const acc::Accelerator *nm = &sys.aim(0);
    const acc::Accelerator *ns = &sys.ns(1);

    EXPECT_FALSE(sys.pathBetween(nullptr, oc).empty());
    EXPECT_FALSE(sys.pathBetween(oc, nm).empty());
    EXPECT_FALSE(sys.pathBetween(oc, ns).empty());
    EXPECT_FALSE(sys.pathBetween(nm, ns).empty());
    EXPECT_FALSE(sys.pathBetween(nm, nullptr).empty());
    EXPECT_FALSE(sys.pathBetween(ns, nullptr).empty());
    EXPECT_FALSE(sys.pathBetween(nm, nm).empty()); // AIMbus
}

TEST(ReachSystem, CrossLevelTransferSlowerThanCoherent)
{
    ReachSystem sys(paperConfig());
    // NS->NS must cross the host IO switch: slower than on-chip.
    acc::Path coherent = sys.pathBetween(nullptr, nullptr);
    acc::Path ns2ns = sys.pathBetween(&sys.ns(0), &sys.ns(1));
    EXPECT_GT(coherent.bottleneckBandwidth(),
              ns2ns.bottleneckBandwidth());
}

TEST(ReachSystem, EnergyMeasureCoversComponents)
{
    ReachSystem sys(paperConfig());
    // Idle machine for 10 ms: background DRAM + idle SSD power only.
    sys.simulator().events().schedule(10 * sim::tickPerMs, [] {});
    sys.simulator().run();
    auto e = sys.measureEnergy();
    EXPECT_GT(e[energy::Component::Dram], 0.0);
    EXPECT_GT(e[energy::Component::Ssd], 0.0);
    EXPECT_DOUBLE_EQ(e[energy::Component::Pcie], 0.0);
}

TEST(ReachSystem, FlushHookDrivesHostDram)
{
    ReachSystem sys(paperConfig());
    std::uint64_t before = sys.hostDramLink().bytesMoved();
    // Submit a two-level job: on-chip producer -> NM consumer forces
    // a writeback through the host DRAM link.
    gam::JobDesc job;
    gam::TaskDesc a;
    a.label = "p";
    a.kernelTemplate = "CNN-VU9P";
    a.level = acc::Level::OnChip;
    a.work.ops = 1e6;
    gam::TaskDesc b;
    b.label = "c";
    b.kernelTemplate = "GeMM-ZCU9";
    b.level = acc::Level::NearMem;
    b.deps = {0};
    b.inbound.push_back({0, 1 << 20});
    job.tasks = {a, b};
    sys.runJobs(1, 1, [&job](std::uint32_t) { return job; });
    EXPECT_GT(sys.hostDramLink().bytesMoved(), before);
}

TEST(ReachSystem, ConfigValidation)
{
    SystemConfig bad;
    bad.numSsds = 0;
    EXPECT_THROW(ReachSystem{bad}, sim::SimFatal);

    SystemConfig bad2;
    bad2.hostDimms = 1;
    bad2.numChannels = 2;
    EXPECT_THROW(ReachSystem{bad2}, sim::SimFatal);

    SystemConfig bad3;
    bad3.numAimModules = 100;
    EXPECT_THROW(ReachSystem{bad3}, sim::SimFatal);
}

TEST(ReachSystem, RejectsEmptyAimRegion)
{
    SystemConfig cfg;
    cfg.aimRegionBytes = 0;
    EXPECT_THROW(ReachSystem{cfg}, sim::SimFatal);

    // Without AIM modules there is no AIM region to size.
    cfg.numAimModules = 0;
    cfg.hostDramStreamBw = 20e9;
    EXPECT_NO_THROW(ReachSystem{cfg});
}

TEST(ReachSystem, RejectsAimRegionLargerThanItsDimm)
{
    SystemConfig cfg;
    cfg.hostDramStreamBw = 20e9;
    cfg.dram.capacityBytes = std::uint64_t(16) << 30;
    // One byte over 16 GiB rounds up to one more 1 MiB tile.
    cfg.aimRegionBytes = cfg.dram.capacityBytes + 1;
    EXPECT_THROW(ReachSystem{cfg}, sim::SimFatal);

    cfg.aimRegionBytes = cfg.dram.capacityBytes;
    EXPECT_NO_THROW(ReachSystem{cfg});
}

TEST(ReachSystem, RejectsHostRegionLargerThanHostDimms)
{
    // 16 GiB of host region over four 2 GiB DIMMs does not fit.
    SystemConfig cfg;
    cfg.hostDramStreamBw = 20e9;
    cfg.aimRegionBytes = std::uint64_t(1) << 30;
    cfg.dram.capacityBytes = std::uint64_t(2) << 30;
    EXPECT_THROW(ReachSystem{cfg}, sim::SimFatal);

    cfg.dram.capacityBytes = std::uint64_t(4) << 30;
    EXPECT_NO_THROW(ReachSystem{cfg});
}

TEST(ReachSystem, RejectsRowSizeOffTheLineGrid)
{
    // No AIM DIMM is built and calibration is skipped, so only the
    // system's own check sees the DRAM geometry.
    SystemConfig cfg;
    cfg.numAimModules = 0;
    cfg.hostDramStreamBw = 20e9;
    cfg.dram.rowBytes = 8192 + 32;
    EXPECT_THROW(ReachSystem{cfg}, sim::SimFatal);

    cfg.dram.rowBytes = 0;
    EXPECT_THROW(ReachSystem{cfg}, sim::SimFatal);
}

TEST(ReachSystem, TaskObserverSeesEveryCompletion)
{
    ReachSystem sys{SystemConfig{}};
    std::vector<gam::Gam::TaskEvent> events;
    std::uint32_t dispatches = 0;
    sys.gam().setTaskObserver(
        [&](const gam::Gam::TaskEvent &e) {
            if (e.kind == gam::Gam::TaskEventKind::Complete)
                events.push_back(e);
            else if (e.kind == gam::Gam::TaskEventKind::Dispatch)
                ++dispatches;
        });

    gam::JobDesc job;
    gam::TaskDesc a;
    a.label = "first";
    a.kernelTemplate = "CNN-VU9P";
    a.level = acc::Level::OnChip;
    a.work.ops = 1e8;
    gam::TaskDesc b;
    b.label = "second";
    b.kernelTemplate = "GeMM-ZCU9";
    b.level = acc::Level::NearMem;
    b.deps = {0};
    job.tasks = {a, b};
    sys.runJobs(1, 1, [&job](std::uint32_t) { return job; });

    EXPECT_EQ(dispatches, 2u);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].label, "first");
    EXPECT_EQ(events[1].label, "second");
    for (const auto &e : events) {
        EXPECT_LE(e.dispatched, e.finished);
        EXPECT_LE(e.finished, e.observed);
        EXPECT_FALSE(e.accName.empty());
    }
    // On-chip interrupts: observation == finish. Near-data polls:
    // observation strictly after finish (status round trip).
    EXPECT_EQ(events[0].observed, events[0].finished);
    EXPECT_GT(events[1].observed, events[1].finished);
}

namespace
{

/** One on-chip task of @p ops operations. */
gam::JobDesc
onChipJob(double ops)
{
    gam::JobDesc job;
    gam::TaskDesc t;
    t.label = "work";
    t.kernelTemplate = "CNN-VU9P";
    t.level = acc::Level::OnChip;
    t.work.ops = ops;
    job.tasks = {t};
    return job;
}

} // namespace

TEST(ReachSystem, RunJobsKeepsTheWindowInFlight)
{
    // Job i is built when it is submitted: the first `window` at
    // once, each later one when an earlier job completes, so no more
    // than `window` are ever in flight.
    for (std::uint32_t window : {1u, 3u, 8u}) {
        SCOPED_TRACE(window);
        ReachSystem sys(paperConfig());
        std::vector<std::uint32_t> inflight;
        RunResult r = sys.runJobs(8, window, [&](std::uint32_t i) {
            inflight.push_back(
                i - static_cast<std::uint32_t>(sys.gam().jobsCompleted()));
            return onChipJob(1e8);
        });
        ASSERT_EQ(inflight.size(), 8u);
        for (std::uint32_t i = 0; i < 8; ++i)
            EXPECT_EQ(inflight[i], std::min(i, window - 1)) << i;
        EXPECT_EQ(r.batches, 8u);
        EXPECT_EQ(r.completedBatches, 8u);
        EXPECT_EQ(r.makespan, sys.simulator().now());
        EXPECT_LE(r.meanLatency, r.maxLatency);
        EXPECT_TRUE(sys.gam().idle());
    }
}

TEST(ReachSystem, RunJobsNeedsAWindow)
{
    ReachSystem sys(paperConfig());
    EXPECT_EQ(sys.runJobs(0, 0, nullptr).batches, 0u);
    EXPECT_THROW(
        sys.runJobs(1, 0, [](std::uint32_t) { return onChipJob(1); }),
        sim::SimFatal);
}
