#include "cosim.hh"

#include "sim/logging.hh"

namespace reach::core
{

namespace
{

/** Index-build k-means inherits the service-level thread budget. */
cbir::KMeansConfig
kmeansConfigOf(const CbirService::Config &cfg)
{
    cbir::KMeansConfig km = cfg.kmeans;
    km.parallel = cfg.parallel;
    return km;
}

/** Fail fast on a bad PQ block, before the dataset/index builds. */
CbirService::Config
validatedServiceConfig(CbirService::Config cfg)
{
    if (cfg.pq.enabled)
        cbir::validatePqConfig(cfg.pq, cfg.dataset.dim);
    return cfg;
}

/**
 * The timing layer's traffic modes must match the functional ones:
 * the PQ block and the shortlist scan width both come from the
 * service config, never from the caller-supplied scale.
 */
cbir::ScaleConfig
scaleWithServiceModes(cbir::ScaleConfig scale,
                      const CbirService::Config &svc)
{
    scale.pq = svc.pq;
    scale.centroidBytesPerDim =
        cbir::centroidBytesPerDim(svc.shortlistPrecision);
    return scale;
}

/**
 * Derive the machine's AIM medium from the workload's shortlist
 * placement knob so the timing links always match the modeled scan.
 */
SystemConfig
systemWithScanPlacement(SystemConfig sys, const cbir::ScaleConfig &scale)
{
    sys.aimUsesHbm =
        scale.shortlistPlacement == cbir::ScanPlacement::Hbm;
    return sys;
}

} // namespace

CbirService::CbirService(const Config &config)
    : cfg(validatedServiceConfig(config)),
      data(config.dataset),
      ivf(data.vectors(), kmeansConfigOf(config))
{
    if (cfg.pq.enabled)
        ivf.buildPq(data.vectors(), cfg.pq, cfg.parallel);
}

cbir::RerankResults
CbirService::query(const cbir::Matrix &queries) const
{
    auto lists = cbir::shortlistRetrieve(queries, ivf, cfg.nprobe,
                                         cfg.parallel,
                                         cfg.shortlistPrecision);
    cbir::RerankConfig rc;
    rc.k = cfg.topK;
    rc.maxCandidates = cfg.maxCandidates;
    rc.parallel = cfg.parallel;
    rc.usePq = cfg.pq.enabled;
    rc.pqRefine = cfg.pq.refine;
    return cbir::rerank(queries, data.vectors(), ivf, lists, rc);
}

double
CbirService::measureRecall(std::size_t num_queries, double noise,
                           std::uint64_t seed) const
{
    cbir::Matrix queries = data.makeQueries(num_queries, noise, seed);
    auto got = query(queries);
    auto truth = cbir::bruteForce(queries, data.vectors(), cfg.topK,
                                  cfg.parallel);
    return cbir::recallAtK(got, truth, cfg.topK);
}

CoSimulation::CoSimulation(const CbirService::Config &service_cfg,
                           const cbir::ScaleConfig &timing_scale,
                           Mapping mapping,
                           const SystemConfig &system_cfg)
    : svc(service_cfg),
      model(scaleWithServiceModes(timing_scale, service_cfg))
{
    sys = std::make_unique<ReachSystem>(
        systemWithScanPlacement(system_cfg, model.scale()));
    deployment = std::make_unique<CbirDeployment>(*sys, model,
                                                  mapping);
}

CoSimBatch
CoSimulation::processBatch(const cbir::Matrix &queries)
{
    if (queries.rows() != model.scale().batchSize) {
        sim::fatal("co-sim batch has ", queries.rows(),
                   " queries but the timing scale expects ",
                   model.scale().batchSize);
    }

    CoSimBatch out;
    out.results = svc.query(queries);

    // Charge one batch through the simulated machine; a lone job's
    // makespan is its latency, completed or failed.
    RunResult run = sys->runJobs(1, 1, [this](std::uint32_t) {
        return deployment->makeBatchJob(batches, {}, {});
    });
    out.latency = run.makespan;
    out.timingCompleted = run.completedBatches == 1;

    double total = sys->measureEnergy().total();
    out.energyJoules = total - lastEnergy;
    lastEnergy = total;

    ++batches;
    return out;
}

} // namespace reach::core
