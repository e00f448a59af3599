/**
 * @file
 * The second case study: a scan -> aggregate -> merge analytics
 * query across the hierarchy, quantifying the paper's generality
 * claim (§I: ReACH targets "common communication-bound analytics
 * workloads", and its related work offloads exactly this shape —
 * Netezza/Ibex/Summarizer filters near storage).
 */

#include <cstdio>

#include "analytics/deployment.hh"
#include "common.hh"

using namespace reach;
using namespace reach::analytics;

int
main()
{
    sim::setQuiet(true);

    bench::printHeader("Analytics case study: SELECT region, "
                       "SUM(amount) ... WHERE amount > X");

    for (std::uint64_t gb : {16ull, 64ull}) {
        AnalyticsScale scale;
        scale.tableBytes = gb << 30;

        std::printf("\ntable = %llu GiB, selectivity = %.0f%%\n",
                    static_cast<unsigned long long>(gb),
                    100 * scale.selectivity);
        std::printf("%-12s %12s %18s %18s\n", "mapping",
                    "queries/s", "scan rate (GB/s)",
                    "GAM DMA (MB/query)");

        double base_qps = 0;
        for (ScanMapping m :
             {ScanMapping::HostOnly, ScanMapping::OnChip,
              ScanMapping::NearData}) {
            core::ReachSystem sys{core::SystemConfig{}};
            AnalyticsDeployment dep(sys, scale, m);
            core::RunResult r = dep.run(3);
            double qps = r.throughputBatchesPerSec();
            if (m == ScanMapping::HostOnly)
                base_qps = qps;
            double scan_rate = static_cast<double>(scale.tableBytes) *
                               r.batches /
                               sim::secondsFromTicks(r.makespan);

            std::printf("%-12s %12.2f %18.1f %18.1f   (%.1fx)\n",
                        scanMappingName(m), qps, scan_rate / 1e9,
                        static_cast<double>(sys.gam().bytesMoved()) /
                            3 / 1e6,
                        qps / base_qps);
        }
    }

    std::printf("\nshape: centralized scans cap at the ~12 GB/s host "
                "IO interface; near-data scanning runs at the SSD "
                "array's aggregate bandwidth and ships only filtered "
                "rows upward.\n");
    return 0;
}
