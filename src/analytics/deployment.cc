#include "deployment.hh"

#include "sim/logging.hh"

namespace reach::analytics
{

const char *
scanMappingName(ScanMapping m)
{
    switch (m) {
      case ScanMapping::HostOnly:
        return "host-only";
      case ScanMapping::OnChip:
        return "onchip";
      case ScanMapping::NearData:
        return "near-data";
    }
    return "?";
}

AnalyticsDeployment::AnalyticsDeployment(core::ReachSystem &system,
                                         const AnalyticsScale &s,
                                         ScanMapping mapping)
    : sys(system), scale(s), map(mapping)
{
    if (scale.tableBytes == 0)
        sim::fatal("analytics table must be non-empty");
    if (scale.selectivity < 0 || scale.selectivity > 1)
        sim::fatal("selectivity must be in [0,1]");
    // Near-storage scans always have a module: every system has SSDs.
    if (map == ScanMapping::NearData && sys.numAims() == 0)
        sim::fatal("near-data analytics needs an AIM module");
}

gam::JobDesc
AnalyticsDeployment::makeQueryJob(std::uint32_t index)
{
    gam::JobDesc job;
    job.label = std::string(scanMappingName(map)) + "-q" +
                std::to_string(index);

    std::uint64_t filtered = static_cast<std::uint64_t>(
        static_cast<double>(scale.tableBytes) * scale.selectivity);
    std::uint64_t merge_bytes =
        std::uint64_t(scale.groups) * 16; // key + aggregate

    if (map != ScanMapping::NearData) {
        // Centralized: the whole table crosses the host IO
        // interface into one device that filters and aggregates.
        acc::Level level = map == ScanMapping::HostOnly
                               ? acc::Level::Cpu
                               : acc::Level::OnChip;
        gam::TaskDesc scan;
        scan.label = "scan";
        scan.kernelTemplate = acc::kernelTemplate("KNN", level);
        scan.level = level;
        scan.work.ops = static_cast<double>(scale.tableBytes) / 8 *
                        scale.columnsTouched / 4;
        scan.work.bytesIn = scale.tableBytes;
        scan.work.bytesOut = filtered;
        // Sequential streaming: no random-gather throttle.
        scan.work.inputOverride = sys.ssdGatherPath(level, 0);
        scan.pinnedAcc = sys.gamIdAt(level, 0);
        job.tasks.push_back(std::move(scan));

        gam::TaskDesc agg;
        agg.label = "aggregate";
        agg.kernelTemplate = acc::kernelTemplate("GeMM", level);
        agg.level = level;
        agg.work.ops = static_cast<double>(filtered) / 8;
        agg.work.bytesIn = filtered;
        agg.work.bytesOut = merge_bytes;
        agg.deps = {0};
        agg.pinnedAcc = sys.gamIdAt(level, 0);
        job.tasks.push_back(std::move(agg));
        return job;
    }

    // Near-data: per-SSD scans, near-memory partial aggregation,
    // on-chip merge.
    std::uint32_t ns = sys.numNs();
    std::uint32_t nm = sys.numAims();
    std::vector<std::size_t> scan_idx;
    for (std::uint32_t i = 0; i < ns; ++i) {
        gam::TaskDesc scan;
        scan.label = "scan-" + std::to_string(i);
        scan.kernelTemplate =
            acc::kernelTemplate("KNN", acc::Level::NearStor);
        scan.level = acc::Level::NearStor;
        scan.work.ops = static_cast<double>(scale.tableBytes) / ns /
                        8 * scale.columnsTouched / 4;
        scan.work.bytesIn = scale.tableBytes / ns;
        scan.work.bytesOut = filtered / ns;
        scan.pinnedAcc = sys.gamIdAt(acc::Level::NearStor, i);
        scan_idx.push_back(job.tasks.size());
        job.tasks.push_back(std::move(scan));
    }

    std::vector<std::size_t> agg_idx;
    for (std::uint32_t i = 0; i < nm; ++i) {
        gam::TaskDesc agg;
        agg.label = "aggregate-" + std::to_string(i);
        agg.kernelTemplate =
            acc::kernelTemplate("GeMM", acc::Level::NearMem);
        agg.level = acc::Level::NearMem;
        agg.work.ops = static_cast<double>(filtered) / nm / 8;
        agg.work.bytesIn = filtered / nm;
        agg.work.bytesOut = merge_bytes;
        agg.pinnedAcc = sys.gamIdAt(acc::Level::NearMem, i);
        for (std::size_t s : scan_idx) {
            agg.deps.push_back(s);
            agg.inbound.push_back({s, filtered / ns / nm});
        }
        agg_idx.push_back(job.tasks.size());
        job.tasks.push_back(std::move(agg));
    }

    acc::Level merge_level =
        sys.hasOnChip() ? acc::Level::OnChip : acc::Level::Cpu;
    gam::TaskDesc merge;
    merge.label = "merge";
    merge.kernelTemplate = acc::kernelTemplate("GeMM", merge_level);
    merge.level = merge_level;
    merge.work.ops = static_cast<double>(scale.groups) * nm;
    merge.work.inputResident = true;
    merge.pinnedAcc = sys.gamIdAt(merge_level, 0);
    for (std::size_t a : agg_idx) {
        merge.deps.push_back(a);
        merge.inbound.push_back({a, merge_bytes});
    }
    job.tasks.push_back(std::move(merge));
    return job;
}

core::RunResult
AnalyticsDeployment::run(std::uint32_t queries)
{
    return sys.runJobs(queries, queries,
                       [this](std::uint32_t q) { return makeQueryJob(q); });
}

} // namespace reach::analytics
