/**
 * @file
 * Tests of the functional+timing co-simulation layer.
 */

#include <gtest/gtest.h>

#include "core/cosim.hh"
#include "sim/logging.hh"

using namespace reach;
using namespace reach::core;

namespace
{

CbirService::Config
smallService()
{
    CbirService::Config cfg;
    cfg.dataset.numVectors = 3000;
    cfg.dataset.dim = 24;
    cfg.dataset.latentClusters = 20;
    cfg.kmeans.clusters = 32;
    cfg.kmeans.maxIterations = 8;
    cfg.nprobe = 6;
    cfg.topK = 10;
    return cfg;
}

cbir::ScaleConfig
smallScale()
{
    cbir::ScaleConfig sc;
    sc.batchSize = 8;
    return sc;
}

} // namespace

TEST(CbirService, AnswersMatchDirectPipeline)
{
    CbirService svc(smallService());
    cbir::Matrix queries =
        svc.dataset().makeQueries(8, 0.05, 123);

    auto via_service = svc.query(queries);

    auto lists = cbir::shortlistRetrieve(queries, svc.index(), 6);
    cbir::RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    auto direct = cbir::rerank(queries, svc.dataset().vectors(),
                               svc.index(), lists, rc);

    ASSERT_EQ(via_service.size(), direct.size());
    for (std::size_t q = 0; q < direct.size(); ++q)
        EXPECT_EQ(via_service[q], direct[q]);
}

TEST(CbirService, RecallIsHighForEasyQueries)
{
    CbirService svc(smallService());
    EXPECT_GT(svc.measureRecall(16, 0.05, 77), 0.85);
}

TEST(CbirService, PqModeAnswersWithHighRecallAndLessTraffic)
{
    CbirService::Config cfg = smallService();
    cfg.pq.enabled = true;
    cfg.pq.m = 8; // dim = 24 -> 3 floats per subspace
    cfg.pq.refine = 128;
    cfg.pq.trainIterations = 4;
    CbirService svc(cfg);
    EXPECT_TRUE(svc.index().hasPq());
    EXPECT_GT(svc.measureRecall(16, 0.05, 77), 0.85);

    // The co-sim timing layer must inherit the service's PQ mode:
    // near-storage rerank reads shrink from pages to codes.
    CoSimulation pq_sim(cfg, smallScale(), Mapping::Reach);
    CoSimulation exact_sim(smallService(), smallScale(),
                           Mapping::Reach);
    cbir::Matrix queries =
        pq_sim.service().dataset().makeQueries(8, 0.05, 5);
    CoSimBatch pq_batch = pq_sim.processBatch(queries);
    EXPECT_EQ(pq_batch.results.size(), 8u);
    EXPECT_GT(pq_batch.latency, 0u);
    EXPECT_LT(pq_batch.latency,
              exact_sim.processBatch(queries).latency);
}

TEST(CbirService, MalformedPqConfigIsFatal)
{
    CbirService::Config cfg = smallService();
    cfg.pq.enabled = true;
    cfg.pq.m = 7; // does not divide dim = 24
    EXPECT_THROW(CbirService{cfg}, sim::SimFatal);
}

TEST(CoSim, ScaleTracksShortlistPrecision)
{
    // The timing model's centroid stream width is derived from the
    // functional precision knob — a scale handed in with the wrong
    // byte width is overwritten, so the two layers cannot drift.
    CbirService::Config cfg = smallService();
    cbir::ScaleConfig sc = smallScale();
    sc.centroidBytesPerDim = 4;

    cfg.shortlistPrecision = cbir::ShortlistPrecision::Fp16;
    CoSimulation fp16_sim(cfg, sc, Mapping::Reach);
    EXPECT_EQ(fp16_sim.scale().centroidBytesPerDim, 2u);

    cfg.shortlistPrecision = cbir::ShortlistPrecision::Fp32;
    sc.centroidBytesPerDim = 2; // deliberately wrong for fp32
    CoSimulation fp32_sim(cfg, sc, Mapping::Reach);
    EXPECT_EQ(fp32_sim.scale().centroidBytesPerDim, 4u);
}

TEST(CoSim, ModelOnlyBatchedRerankPassesThrough)
{
    // ScaleConfig::batchedRerank is a near-storage dataflow of the
    // timing model with no functional mirror: CoSimulation keeps the
    // caller's choice, and the answers are the service's own
    // query-major ones either way.
    CbirService::Config cfg = smallService();
    cfg.pq.enabled = true;
    cfg.pq.m = 8;
    cfg.pq.trainIterations = 4;
    cbir::ScaleConfig sc = smallScale();
    sc.batchedRerank = true;
    CoSimulation cosim(cfg, sc, Mapping::Reach);
    EXPECT_TRUE(cosim.scale().batchedRerank);

    cbir::Matrix queries =
        cosim.service().dataset().makeQueries(8, 0.05, 5);
    CoSimBatch batch = cosim.processBatch(queries);
    CbirService ref(cfg);
    auto want = ref.query(queries);
    ASSERT_EQ(batch.results.size(), want.size());
    for (std::size_t q = 0; q < want.size(); ++q)
        EXPECT_EQ(batch.results[q], want[q]) << "query " << q;
}

TEST(CoSim, Fp16ShortlistBatchAnswersMatchDirectPipeline)
{
    CbirService::Config cfg = smallService();
    cfg.shortlistPrecision = cbir::ShortlistPrecision::Fp16;
    CoSimulation cosim(cfg, smallScale(), Mapping::Reach);
    cbir::Matrix queries =
        cosim.service().dataset().makeQueries(8, 0.05, 31);

    CoSimBatch batch = cosim.processBatch(queries);
    ASSERT_EQ(batch.results.size(), 8u);
    EXPECT_GT(batch.latency, 0u);

    const CbirService &svc = cosim.service();
    auto lists = cbir::shortlistRetrieve(
        queries, svc.index(), 6, {}, cbir::ShortlistPrecision::Fp16);
    cbir::RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    auto direct = cbir::rerank(queries, svc.dataset().vectors(),
                               svc.index(), lists, rc);
    for (std::size_t q = 0; q < direct.size(); ++q)
        EXPECT_EQ(batch.results[q], direct[q]) << "query " << q;
}

TEST(CoSim, BatchProducesAnswersAndTiming)
{
    CoSimulation cosim(smallService(), smallScale(),
                       Mapping::Reach);
    cbir::Matrix queries =
        cosim.service().dataset().makeQueries(8, 0.05, 5);

    CoSimBatch batch = cosim.processBatch(queries);
    EXPECT_EQ(batch.results.size(), 8u);
    for (const auto &nbrs : batch.results)
        EXPECT_EQ(nbrs.size(), 10u);
    EXPECT_GT(batch.latency, 0u);
    EXPECT_GT(batch.energyJoules, 0.0);
    EXPECT_EQ(cosim.batchesProcessed(), 1u);
}

TEST(CoSim, WrongBatchSizeIsFatal)
{
    CoSimulation cosim(smallService(), smallScale(),
                       Mapping::Reach);
    cbir::Matrix queries =
        cosim.service().dataset().makeQueries(3, 0.05, 5);
    EXPECT_THROW(cosim.processBatch(queries), sim::SimFatal);
}

TEST(CoSim, ReachLatencyBeatsOnChipLatency)
{
    cbir::Matrix queries;
    sim::Tick reach_lat = 0, onchip_lat = 0;
    {
        CoSimulation cosim(smallService(), smallScale(),
                           Mapping::Reach);
        queries =
            cosim.service().dataset().makeQueries(8, 0.05, 5);
        reach_lat = cosim.processBatch(queries).latency;
    }
    {
        CoSimulation cosim(smallService(), smallScale(),
                           Mapping::OnChipOnly);
        onchip_lat = cosim.processBatch(queries).latency;
    }
    EXPECT_LT(reach_lat, onchip_lat);
}

TEST(CoSim, EnergyIsPerBatchDelta)
{
    CoSimulation cosim(smallService(), smallScale(),
                       Mapping::OnChipOnly);
    cbir::Matrix queries =
        cosim.service().dataset().makeQueries(8, 0.05, 9);
    CoSimBatch a = cosim.processBatch(queries);
    CoSimBatch b = cosim.processBatch(queries);
    // Per-batch energies are individually positive and similar.
    EXPECT_GT(a.energyJoules, 0.0);
    EXPECT_GT(b.energyJoules, 0.0);
    EXPECT_NEAR(b.energyJoules, a.energyJoules,
                a.energyJoules * 0.5);
}
