/**
 * @file
 * Tests of the analytics deployment: job shapes per mapping, and the
 * paper's generality claim — near-data scanning beats shipping the
 * table across the host IO interface.
 */

#include <gtest/gtest.h>

#include <random>

#include "analytics/deployment.hh"
#include "sim/logging.hh"

using namespace reach;
using namespace reach::analytics;

namespace
{

AnalyticsScale
smallScale()
{
    AnalyticsScale s;
    s.tableBytes = std::uint64_t(16) << 30;
    return s;
}

core::RunResult
runMapping(ScanMapping m, std::uint32_t queries)
{
    core::ReachSystem sys{core::SystemConfig{}};
    AnalyticsDeployment dep(sys, smallScale(), m);
    return dep.run(queries);
}

} // namespace

TEST(AnalyticsDeployment, ValidatesScale)
{
    core::ReachSystem sys{core::SystemConfig{}};
    AnalyticsScale bad;
    bad.tableBytes = 0;
    EXPECT_THROW(AnalyticsDeployment(sys, bad, ScanMapping::NearData),
                 sim::SimFatal);
    AnalyticsScale bad2;
    bad2.selectivity = 1.5;
    EXPECT_THROW(
        AnalyticsDeployment(sys, bad2, ScanMapping::NearData),
        sim::SimFatal);
}

TEST(AnalyticsDeployment, NearDataWithoutAimModulesIsFatal)
{
    core::SystemConfig cfg;
    cfg.numAimModules = 0;
    core::ReachSystem sys{cfg};
    EXPECT_THROW(
        AnalyticsDeployment(sys, smallScale(), ScanMapping::NearData),
        sim::SimFatal);
}

TEST(AnalyticsDeployment, JobShapes)
{
    core::ReachSystem sys{core::SystemConfig{}};
    AnalyticsDeployment central(sys, smallScale(),
                                ScanMapping::OnChip);
    EXPECT_EQ(central.makeQueryJob(0).tasks.size(), 2u);

    AnalyticsDeployment near(sys, smallScale(),
                             ScanMapping::NearData);
    // 4 scans + 4 aggregates + 1 merge.
    auto job = near.makeQueryJob(0);
    EXPECT_EQ(job.tasks.size(), 9u);
    EXPECT_EQ(job.tasks.back().label, "merge");
    EXPECT_EQ(job.tasks.back().deps.size(), 4u);
}

TEST(AnalyticsDeployment, AllMappingsComplete)
{
    for (ScanMapping m : {ScanMapping::HostOnly, ScanMapping::OnChip,
                          ScanMapping::NearData}) {
        core::RunResult r = runMapping(m, 2);
        EXPECT_EQ(r.completedBatches, 2u) << scanMappingName(m);
        EXPECT_GT(r.makespan, 0u) << scanMappingName(m);
    }
}

TEST(AnalyticsDeployment, NearDataScanBeatsCentralized)
{
    core::RunResult onchip = runMapping(ScanMapping::OnChip, 2);
    core::RunResult near = runMapping(ScanMapping::NearData, 2);

    // The centralized scan is capped by the ~12 GB/s host IO
    // interface; near-data scanning runs at the SSDs' aggregate
    // internal bandwidth.
    EXPECT_GT(near.throughputBatchesPerSec(),
              2.5 * onchip.throughputBatchesPerSec());

    // Whole-table scans per second, in B/s.
    double table = static_cast<double>(smallScale().tableBytes);
    EXPECT_GT(table * near.throughputBatchesPerSec(),
              30e9); // ~4 x 12 GB/s local links
    EXPECT_LT(table * onchip.throughputBatchesPerSec(), 13e9);
}

TEST(AnalyticsDeployment, OnChipBeatsHostSoftware)
{
    core::RunResult host = runMapping(ScanMapping::HostOnly, 1);
    core::RunResult onchip = runMapping(ScanMapping::OnChip, 1);
    EXPECT_GT(onchip.throughputBatchesPerSec(),
              host.throughputBatchesPerSec());
}

TEST(AnalyticsDeployment, RecoveryBudgetExhaustionFailsQueries)
{
    // Every dispatch crashes: each query fails explicitly once its
    // recovery budget is spent, and the run reports it. A lost scan
    // attempt costs events in proportion to the table, so the table
    // is kept small.
    core::SystemConfig cfg;
    cfg.faultPlan.accCrashProb = 1;
    core::ReachSystem sys{cfg};
    AnalyticsScale scale;
    scale.tableBytes = std::uint64_t(256) << 20;
    AnalyticsDeployment dep(sys, scale, ScanMapping::NearData);
    core::RunResult r = dep.run(2);
    EXPECT_EQ(r.batches, 2u);
    EXPECT_EQ(r.failedBatches, 2u);
    EXPECT_EQ(r.completedBatches, 0u);
    EXPECT_EQ(r.throughputBatchesPerSec(), 0.0);
}

TEST(AnalyticsDeployment, OnlyFilteredRowsCrossToNearMemory)
{
    core::ReachSystem sys{core::SystemConfig{}};
    AnalyticsDeployment dep(sys, smallScale(), ScanMapping::NearData);
    EXPECT_GT(dep.run(1).makespan, 0u);

    // GAM DMA moved ~selectivity * table (plus merge crumbs), far
    // less than the table itself.
    double moved = static_cast<double>(sys.gam().bytesMoved());
    double expected = static_cast<double>(smallScale().tableBytes) *
                      smallScale().selectivity;
    EXPECT_GT(moved, 0.8 * expected);
    EXPECT_LT(moved, 1.5 * expected);
}

TEST(AnalyticsIntegration, MeasuredSelectivityDrivesTheTimingModel)
{
    // Measure the selectivity of `amount > 9000` on a sampled column
    // with amounts uniform in [1, 1e4]...
    std::mt19937 rng(42);
    std::uniform_int_distribution<int> amount(1, 10'000);
    const int rows = 50'000;
    int passed = 0;
    for (int i = 0; i < rows; ++i)
        passed += amount(rng) > 9000;
    double selectivity = static_cast<double>(passed) / rows;
    EXPECT_NEAR(selectivity, 0.10, 0.02);

    // ...then deploy the same query at scale with that selectivity.
    AnalyticsScale scale;
    scale.tableBytes = std::uint64_t(8) << 30;
    scale.selectivity = selectivity;

    core::ReachSystem sys{core::SystemConfig{}};
    AnalyticsDeployment dep(sys, scale, ScanMapping::NearData);
    core::RunResult r = dep.run(1);
    EXPECT_GT(r.makespan, 0u);

    // GAM DMA carries roughly the filtered bytes.
    double expected = static_cast<double>(scale.tableBytes) *
                      selectivity;
    double moved = static_cast<double>(sys.gam().bytesMoved());
    EXPECT_GT(moved, 0.8 * expected);
    EXPECT_LT(moved, 1.5 * expected);
}
