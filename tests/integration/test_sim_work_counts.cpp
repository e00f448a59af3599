/**
 * @file
 * Work counts of the Figure-13 runs. SimWorkCounts pins, for the 12
 * batches fig13 runs under each mapping, how many events the
 * simulator executes, how many link reservations are made and how
 * many SSD commands are issued, plus the accelerator TLB's hits and
 * misses. A change to how a reservation is placed (the interval
 * allocator, the SSD's flash schedule) or to how the TLB records its
 * resident pages must leave them all alone; a change that makes the
 * simulator do more or less work moves them. The event, transfer and
 * command values were recorded before the flat interval allocator
 * replaced the map-based one, the TLB values before the streaming run
 * replaced the per-chunk LRU rebuild.
 */

#include <gtest/gtest.h>

#include <string>

#include "core/cbir_deployment.hh"

using namespace reach;

namespace
{

struct WorkCounts
{
    core::Mapping mapping;
    std::uint64_t events;
    std::uint64_t linkTransfers;
    std::uint64_t ssdCommands;
};

struct TlbCounts
{
    std::uint64_t hits;
    std::uint64_t misses;
};

/* Kept out of WorkCounts so the parameter, and with it the name the
 * suite prints for each case, stays as it was. */
TlbCounts
recordedTlbCounts(core::Mapping mapping)
{
    if (mapping == core::Mapping::OnChipOnly)
        return {0, 1'613'568};
    return {0, 0};
}

std::uint64_t
statValue(core::ReachSystem &sys, const std::string &name)
{
    const sim::Stat *stat = sys.simulator().stats().find(name);
    EXPECT_NE(stat, nullptr) << name;
    return stat ? static_cast<std::uint64_t>(stat->value()) : 0;
}

std::uint64_t
linkTransfers(core::ReachSystem &sys)
{
    std::uint64_t n = 0;
    auto add = [&](noc::Link &link) {
        n += statValue(sys, link.name() + ".transfers");
    };
    add(sys.hostDramLink());
    add(sys.cacheLink());
    add(sys.aimBusLink());
    add(sys.hostIoUplink());
    for (std::uint32_t i = 0; i < sys.numAims(); ++i)
        add(sys.aimLocalLink(i));
    for (std::uint32_t i = 0; i < sys.numNs(); ++i)
        add(sys.nsLocalLink(i));
    for (std::uint32_t i = 0; i < sys.config().numSsds; ++i)
        add(sys.ssdHostLink(i));
    return n;
}

std::uint64_t
ssdCommands(core::ReachSystem &sys)
{
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < sys.config().numSsds; ++i)
        n += statValue(sys, sys.ssdAt(i).name() + ".commands");
    return n;
}

class SimWorkCounts : public ::testing::TestWithParam<WorkCounts>
{
};

TEST_P(SimWorkCounts, TwelveBatchesMatchRecordedCounts)
{
    const WorkCounts &w = GetParam();
    core::ReachSystem sys{core::SystemConfig{}};
    core::CbirDeployment dep(
        sys, cbir::CbirWorkloadModel(cbir::ScaleConfig{}), w.mapping);
    ASSERT_EQ(dep.run(12).completedBatches, 12u);
    EXPECT_EQ(sys.simulator().eventsExecuted(), w.events);
    EXPECT_EQ(linkTransfers(sys), w.linkTransfers);
    EXPECT_EQ(ssdCommands(sys), w.ssdCommands);
    const TlbCounts tlb = recordedTlbCounts(w.mapping);
    EXPECT_EQ(statValue(sys, "accTlb.hits"), tlb.hits);
    EXPECT_EQ(statValue(sys, "accTlb.misses"), tlb.misses);
}

INSTANTIATE_TEST_SUITE_P(
    Mappings, SimWorkCounts,
    ::testing::Values(
        WorkCounts{core::Mapping::CpuOnly, 156, 78'036, 12'288},
        WorkCounts{core::Mapping::OnChipOnly, 156, 77'332, 12'288},
        WorkCounts{core::Mapping::NearMemOnly, 3'348, 72'416, 12'288},
        WorkCounts{core::Mapping::NearStorOnly, 3'372, 44'352, 27'840},
        WorkCounts{core::Mapping::Reach, 996, 37'660, 12'288}),
    [](const ::testing::TestParamInfo<WorkCounts> &info) {
        std::string name = core::mappingName(info.param.mapping);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
