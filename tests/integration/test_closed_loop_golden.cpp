/**
 * @file
 * Golden schedules of the closed-loop drivers. TimingGolden pins the
 * open-loop QueryService; these pin the runs that submit a fixed
 * number of jobs under a window: CbirDeployment::run for every
 * mapping and AnalyticsDeployment::run for every scan mapping. The
 * values were recorded before these callers shared one job driver
 * (ReachSystem::runJobs), so a change to how closed-loop jobs are
 * submitted, windowed or timed moves them. The runtime's Listing-3
 * program is pinned in RuntimeFixture.ListingStyleProgramRuns.
 */

#include <gtest/gtest.h>

#include <string>

#include "analytics/deployment.hh"
#include "core/cbir_deployment.hh"

using namespace reach;

namespace
{

struct GoldenRun
{
    sim::Tick makespan;
    sim::Tick meanLatency;
    sim::Tick maxLatency;
    std::uint32_t completed;
};

void
expectGolden(const core::RunResult &r, const GoldenRun &g)
{
    EXPECT_EQ(r.makespan, g.makespan);
    EXPECT_EQ(r.meanLatency, g.meanLatency);
    EXPECT_EQ(r.maxLatency, g.maxLatency);
    EXPECT_EQ(r.completedBatches, g.completed);
    EXPECT_EQ(r.failedBatches, 0u);
}

struct CbirGolden
{
    core::Mapping mapping;
    GoldenRun run;
};

class CbirClosedLoopGolden : public ::testing::TestWithParam<CbirGolden>
{
};

TEST_P(CbirClosedLoopGolden, TwelveBatchesMatchRecordedSchedule)
{
    const CbirGolden &g = GetParam();
    core::ReachSystem sys{core::SystemConfig{}};
    core::CbirDeployment dep(
        sys, cbir::CbirWorkloadModel(cbir::ScaleConfig{}), g.mapping);
    expectGolden(dep.run(12), g.run);
}

INSTANTIATE_TEST_SUITE_P(
    Mappings, CbirClosedLoopGolden,
    ::testing::Values(
        CbirGolden{core::Mapping::CpuOnly,
            {15'491'852'193'068,
             5'141'574'910'552,
             5'163'966'860'676,
             12}},
        CbirGolden{core::Mapping::OnChipOnly,
            {565'197'168'286,
             173'437'524'516,
             188'559'974'742,
             12}},
        CbirGolden{core::Mapping::NearMemOnly,
            {498'836'977'512,
             153'811'394'889,
             213'061'181'742,
             12}},
        CbirGolden{core::Mapping::NearStorOnly,
            {405'623'323'456,
             130'986'940'914,
             139'273'889'200,
             12}},
        CbirGolden{core::Mapping::Reach,
            {120'559'383'039,
             35'701'230'672,
             48'795'697'583,
             12}}),
    [](const ::testing::TestParamInfo<CbirGolden> &info) {
        std::string name = core::mappingName(info.param.mapping);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/** Every query is submitted at the start, so maxLatency == makespan. */
struct AnalyticsGolden
{
    analytics::ScanMapping mapping;
    GoldenRun run;
};

class AnalyticsClosedLoopGolden
    : public ::testing::TestWithParam<AnalyticsGolden>
{
};

TEST_P(AnalyticsClosedLoopGolden, ThreeQueriesMatchRecordedSchedule)
{
    const AnalyticsGolden &g = GetParam();
    analytics::AnalyticsScale scale;
    scale.tableBytes = std::uint64_t(16) << 30;
    core::ReachSystem sys{core::SystemConfig{}};
    analytics::AnalyticsDeployment dep(sys, scale, g.mapping);
    expectGolden(dep.run(3), g.run);
}

INSTANTIATE_TEST_SUITE_P(
    ScanMappings, AnalyticsClosedLoopGolden,
    ::testing::Values(
        AnalyticsGolden{analytics::ScanMapping::HostOnly,
            {4'345'355'590'234,
             4'335'381'871'572,
             4'345'355'590'234,
             3}},
        AnalyticsGolden{analytics::ScanMapping::OnChip,
            {4'341'550'676'386,
             4'331'583'721'644,
             4'341'550'676'386,
             3}},
        AnalyticsGolden{analytics::ScanMapping::NearData,
            {1'114'262'859'180,
             756'672'501'568,
             1'114'262'859'180,
             3}}),
    [](const ::testing::TestParamInfo<AnalyticsGolden> &info) {
        std::string name = analytics::scanMappingName(info.param.mapping);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
