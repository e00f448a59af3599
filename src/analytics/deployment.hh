/**
 * @file
 * Deployment of the scan -> aggregate -> merge analytics query onto
 * the compute hierarchy: the generality argument of the paper's
 * introduction, built with the same GAM/job machinery as the CBIR
 * case study.
 *
 * Mappings:
 *  - HostOnly:  the whole query in software on the host core, table
 *               streamed over the host IO interface;
 *  - OnChip:    the on-chip FPGA filters and aggregates, but the
 *               table still crosses the IO interface;
 *  - NearData:  each FPGA-SSD module scans its shard in place, only
 *               filtered rows cross to the near-memory aggregators,
 *               and a final merge runs on-chip.
 */

#ifndef REACH_ANALYTICS_DEPLOYMENT_HH
#define REACH_ANALYTICS_DEPLOYMENT_HH

#include <cstdint>

#include "core/reach_system.hh"

namespace reach::analytics
{

/** Timing-scale description of the analytics query. */
struct AnalyticsScale
{
    /** Total columnar table size on the SSD array. */
    std::uint64_t tableBytes = std::uint64_t(64) << 30;
    /** Fraction of rows passing the filter. */
    double selectivity = 0.02;
    /** 8-byte values per row (columns touched by the query). */
    std::uint32_t columnsTouched = 3;
    /** Distinct group-by keys (merge traffic). */
    std::uint32_t groups = 16;
};

enum class ScanMapping
{
    HostOnly,
    OnChip,
    NearData,
};

const char *scanMappingName(ScanMapping m);

class AnalyticsDeployment
{
  public:
    AnalyticsDeployment(core::ReachSystem &system,
                        const AnalyticsScale &scale,
                        ScanMapping mapping);

    /** Build the job for one query. */
    gam::JobDesc makeQueryJob(std::uint32_t index);

    /**
     * Submit @p queries queries at once through
     * ReachSystem::runJobs and simulate until each completed or
     * failed.
     */
    core::RunResult run(std::uint32_t queries);

  private:
    core::ReachSystem &sys;
    AnalyticsScale scale;
    ScanMapping map;
};

} // namespace reach::analytics

#endif // REACH_ANALYTICS_DEPLOYMENT_HH
