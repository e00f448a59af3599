#include "cbir_deployment.hh"

#include "sim/logging.hh"

namespace reach::core
{

namespace
{

/** One row of the stage-placement table. */
struct MappingRow
{
    const char *name;
    /** Level of each Stage, indexed by its enum value. */
    std::array<acc::Level, 3> levels;
};

MappingRow
mappingRow(Mapping m)
{
    using acc::Level;
    switch (m) {
      case Mapping::CpuOnly:
        return {"cpu", {Level::Cpu, Level::Cpu, Level::Cpu}};
      case Mapping::OnChipOnly:
        return {"onchip", {Level::OnChip, Level::OnChip, Level::OnChip}};
      case Mapping::NearMemOnly:
        return {"near-mem",
                {Level::NearMem, Level::NearMem, Level::NearMem}};
      case Mapping::NearStorOnly:
        return {"near-stor",
                {Level::NearStor, Level::NearStor, Level::NearStor}};
      case Mapping::Reach:
        return {"ReACH", {Level::OnChip, Level::NearMem, Level::NearStor}};
    }
    sim::panic("invalid CBIR mapping");
}

/** Per-instance random-gather throughput cap of a rerank at @p level. */
double
gatherBw(const SystemConfig &cfg, acc::Level level)
{
    switch (level) {
      case acc::Level::Cpu:
        return cfg.cpuGatherBw;
      case acc::Level::OnChip:
        return cfg.onChipGatherBw;
      case acc::Level::NearMem:
        return cfg.nmGatherBw;
      case acc::Level::NearStor:
        return cfg.nsGatherBw;
    }
    return 0;
}

} // namespace

const char *
mappingName(Mapping m)
{
    return mappingRow(m).name;
}

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::FeatureExtraction:
        return "Feature Extraction";
      case Stage::Shortlist:
        return "Short-list Retrieval";
      case Stage::Rerank:
        return "Rerank";
    }
    return "?";
}

std::vector<std::size_t>
addStageTasks(gam::JobDesc &job, Stage stage, StagePlacement where,
              const std::vector<std::size_t> &upstream, ReachSystem &sys,
              const cbir::CbirWorkloadModel &model)
{
    const auto &scale = model.scale();
    acc::Level level = where.level;
    std::uint32_t n = where.instances;
    bool host_side =
        level == acc::Level::OnChip || level == acc::Level::Cpu;
    bool per_image = stage == Stage::FeatureExtraction && !host_side;

    std::vector<std::size_t> out;
    for (std::uint32_t i = 0; i < (per_image ? scale.batchSize : n);
         ++i) {
        gam::TaskDesc t;
        t.level = level;
        t.pinnedAcc = sys.gamIdAt(level, i % n);
        // Bytes this task reads, before the split over producers.
        std::uint64_t input = 0;
        switch (stage) {
          case Stage::FeatureExtraction:
            t.label = "feature-extract";
            t.kernelTemplate = acc::kernelTemplate("CNN", level);
            t.work = per_image ? model.featureExtractionSingle()
                               : model.featureExtractionBatch();
            input = model.queryImageBytes() *
                    (per_image ? 1 : scale.batchSize);
            break;
          case Stage::Shortlist:
            t.label = "shortlist";
            t.kernelTemplate = acc::kernelTemplate("GeMM", level);
            t.work = model.shortlistBatch(n);
            input = model.featureVectorBytes() * scale.batchSize;
            break;
          case Stage::Rerank:
            t.label = "rerank";
            t.kernelTemplate = acc::kernelTemplate("KNN", level);
            t.work = model.rerankBatch(n);
            t.work.inputOverride = sys.ssdGatherPath(level, i);
            t.work.inputThrottleBw = gatherBw(sys.config(), level);
            input = std::uint64_t(scale.batchSize) *
                    scale.rerankCandidates * 4 / n;
            break;
        }
        if (!host_side)
            t.label += "-" + std::to_string(i);

        if (upstream.empty()) {
            t.inbound.push_back({gam::InboundTransfer::fromHost, input});
        } else {
            for (std::size_t src : upstream)
                t.inbound.push_back({src, input / upstream.size()});
            t.deps = upstream;
        }
        out.push_back(job.tasks.size());
        job.tasks.push_back(std::move(t));
    }
    return out;
}

CbirDeployment::CbirDeployment(ReachSystem &system,
                               const cbir::CbirWorkloadModel &wl,
                               Mapping mapping, std::uint32_t instances)
    : sys(system), model(wl), map(mapping)
{
    auto levels = mappingRow(map).levels;
    bool single_level = levels[0] == levels[1] && levels[1] == levels[2];
    for (std::size_t s = 0; s < levels.size(); ++s) {
        acc::Level level = levels[s];
        bool near_data = level == acc::Level::NearMem ||
                         level == acc::Level::NearStor;
        std::uint32_t avail = sys.instancesAt(level);
        std::uint32_t n =
            single_level && near_data && instances != 0 ? instances
                                                        : avail;
        if (n == 0 || n > avail) {
            sim::fatal(mappingName(map), " mapping places ",
                       stageName(static_cast<Stage>(s)), " on ", n, " ",
                       acc::levelName(level), " instances, system has ",
                       avail);
        }
        placement[s] = {level, n};
    }
}

std::size_t
CbirDeployment::addShortlistMerge(gam::JobDesc &job,
                                  const std::vector<std::size_t> &sl)
{
    const auto &scale = model.scale();
    std::uint64_t n = sl.size();
    gam::TaskDesc merge;
    merge.label = "shortlist-merge";
    merge.kernelTemplate = acc::kernelTemplate("GeMM", acc::Level::NearMem);
    merge.level = acc::Level::NearMem;
    merge.pinnedAcc = sys.gamIdAt(acc::Level::NearMem, 0);
    // Merging n sorted nprobe-lists per query: trivial compute.
    merge.work.ops = static_cast<double>(scale.batchSize) *
                     scale.nprobe * n;
    std::uint64_t partial_bytes =
        (std::uint64_t(scale.batchSize) * scale.nprobe * 8 +
         std::uint64_t(scale.batchSize) * scale.rerankCandidates * 4) /
        n;
    for (std::size_t src : sl) {
        merge.deps.push_back(src);
        merge.inbound.push_back({src, partial_bytes});
    }
    job.tasks.push_back(std::move(merge));
    return job.tasks.size() - 1;
}

void
CbirDeployment::addReverseLookupTasks(
    gam::JobDesc &job, const std::vector<std::size_t> &rr)
{
    // Extension stage (the paper describes reverse lookup but
    // excludes it): the image store lives on the SSD array, so the
    // fetch always runs near storage regardless of the mapping; the
    // images stream back to the host over the IO interface.
    std::uint32_t n = sys.numNs();
    for (std::uint32_t i = 0; i < n; ++i) {
        gam::TaskDesc t;
        t.label = "reverse-lookup-" + std::to_string(i);
        // Streaming fetch engine.
        t.kernelTemplate =
            acc::kernelTemplate("KNN", acc::Level::NearStor);
        t.level = acc::Level::NearStor;
        t.work = model.reverseLookupBatch(n);
        t.pinnedAcc = sys.gamIdAt(acc::Level::NearStor, i);
        std::uint64_t id_bytes =
            std::uint64_t(model.scale().batchSize) *
            model.scale().topK * 8 / n;
        for (std::size_t src : rr) {
            t.deps.push_back(src);
            t.inbound.push_back({src, id_bytes / rr.size()});
        }
        job.tasks.push_back(std::move(t));
    }
}

gam::JobDesc
CbirDeployment::makeBatchJob(std::uint32_t batch_index,
                             std::function<void(sim::Tick)> on_done,
                             std::function<void(sim::Tick)> on_failed)
{
    gam::JobDesc job;
    job.threadId = 0;
    job.label = std::string(mappingName(map)) + "-batch" +
                std::to_string(batch_index);
    job.onComplete = std::move(on_done);
    job.onFailed = std::move(on_failed);

    auto at = [this](Stage s) {
        return placement[static_cast<std::size_t>(s)];
    };
    auto fe = addStageTasks(job, Stage::FeatureExtraction,
                            at(Stage::FeatureExtraction), {}, sys, model);
    auto sl = addStageTasks(job, Stage::Shortlist, at(Stage::Shortlist),
                            fe, sys, model);
    // Near-memory partitions hold per-partition top-nprobe lists;
    // one module merges them, with the partials exchanged over the
    // AIMbus (paper Fig. 3: inter-DIMM communication). Only a
    // pipeline needs the merge: the rerank downstream then depends
    // on the merged list only.
    if (at(Stage::Shortlist).level == acc::Level::NearMem && sl.size() > 1)
        sl.assign(1, addShortlistMerge(job, sl));
    auto rr = addStageTasks(job, Stage::Rerank, at(Stage::Rerank), sl,
                            sys, model);
    if (model.scale().includeReverseLookup)
        addReverseLookupTasks(job, rr);
    return job;
}

RunResult
CbirDeployment::run(std::uint32_t batches)
{
    // A window of four keeps the pipeline full without unbounded
    // queueing (the runtime's default stream depth).
    return sys.runJobs(batches, 4, [this](std::uint32_t i) {
        return makeBatchJob(i, {}, {});
    });
}

} // namespace reach::core
