/**
 * @file
 * The paper's case study, end to end, in two halves:
 *
 *  1. FUNCTIONAL: a real (small-scale) CBIR system — synthetic
 *     class-structured features -> k-means IVF index -> short-list
 *     retrieval -> rerank -> recall@K. This is the actual retrieval
 *     math the accelerators implement; feature extraction is timed
 *     from the VGG16 descriptor in the second half.
 *
 *  2. TIMING: the same pipeline deployed at billion scale on the
 *     ReACH compute hierarchy with the paper's proper mapping
 *     (feature extraction on-chip, short-list near memory, rerank
 *     near storage), written against the runtime library exactly in
 *     the style of the paper's Listings 2 and 3.
 */

#include <cstdio>

#include "sim/logging.hh"
#include "cbir/rerank.hh"
#include "cbir/shortlist.hh"
#include "cbir/workload_model.hh"
#include "core/runtime.hh"
#include "workload/dataset.hh"

using namespace reach;
using namespace reach::core;

namespace
{

void
functionalDemo()
{
    std::printf("--- functional CBIR (sampled scale) ---\n");

    // Feature database: 200 vectors drawn around 10 latent classes
    // (the paper's PCA-compressed VGG16 features are D=96; here D=24).
    workload::DatasetConfig dc;
    dc.numVectors = 200;
    dc.dim = 24;
    dc.latentClusters = 10;
    dc.seed = 7;
    workload::Dataset ds(dc);
    const cbir::Matrix &feats = ds.vectors();
    const auto &labels = ds.latentLabels();

    // Offline stage: k-means IVF index.
    cbir::KMeansConfig kc;
    kc.clusters = 16;
    cbir::InvertedFileIndex index(feats, kc);

    // Online stage: query with each class's latent center, so query
    // c belongs to class c.
    const cbir::Matrix &queries = ds.latentCenters();

    auto lists = cbir::shortlistRetrieve(queries, index, 4);
    cbir::RerankConfig rcfg;
    rcfg.k = 5;
    auto results = cbir::rerank(queries, feats, index, lists, rcfg);
    auto truth = cbir::bruteForce(queries, feats, 5);

    double recall = cbir::recallAtK(results, truth, 5);
    int correct_class = 0;
    for (std::uint32_t c = 0; c < queries.rows(); ++c) {
        if (!results[c].empty() && labels[results[c][0].id] == c)
            ++correct_class;
    }
    std::printf("recall@5 vs brute force: %.2f  |  top-1 class "
                "matches: %d/%zu\n\n",
                recall, correct_class, queries.rows());
}

void
timingDemo()
{
    std::printf("--- ReACH deployment (billion-scale timing) ---\n");

    ReachRuntime rt{SystemConfig{}};
    cbir::CbirWorkloadModel model{cbir::ScaleConfig{}};
    const auto &scale = model.scale();

    // ---- ReACH configuration (paper Listing 2) ----
    auto vgg_param = rt.createFixedBuffer(
        "./vgg16_param", Level::OnChip, model.modelParamBytes());
    auto db0 = rt.createFixedBuffer("./feature_db0", Level::NearStor,
                                    model.databaseBytes() / 4);
    auto db1 = rt.createFixedBuffer("./feature_db1", Level::NearStor,
                                    model.databaseBytes() / 4);

    auto input = rt.createStream(
        Level::Cpu, Level::OnChip, StreamType::Pair,
        model.queryImageBytes() * scale.batchSize, 4);
    auto features = rt.createStream(
        Level::OnChip, Level::NearMem, StreamType::BroadCast,
        model.featureVectorBytes() * scale.batchSize, 4);
    auto candidates = rt.createStream(
        Level::NearMem, Level::NearStor, StreamType::BroadCast,
        std::uint64_t(scale.batchSize) * scale.rerankCandidates * 4,
        4);

    auto cnn = rt.registerAcc("CNN-VU9P", Level::OnChip);
    cnn.setArgs(0, input);
    cnn.setArgs(1, vgg_param);
    cnn.setArgs(2, features);
    cnn.setWork(model.featureExtractionBatch());

    auto gemm0 = rt.registerAcc("GeMM-ZCU9", Level::NearMem);
    gemm0.setArgs(0, features);
    gemm0.setArgs(2, candidates);
    auto sl_work = model.shortlistBatch(2);
    gemm0.setWork(sl_work);
    auto gemm1 = rt.registerAcc("GeMM-ZCU9", Level::NearMem);
    gemm1.setArgs(0, features);
    gemm1.setArgs(2, candidates);
    gemm1.setWork(sl_work);

    auto knn0 = rt.registerAcc("KNN-ZCU9", Level::NearStor);
    knn0.setArgs(0, candidates);
    knn0.setArgs(1, db0);
    auto rr_work = model.rerankBatch(2);
    knn0.setWork(rr_work);
    auto knn1 = rt.registerAcc("KNN-ZCU9", Level::NearStor);
    knn1.setArgs(0, candidates);
    knn1.setArgs(1, db1);
    knn1.setWork(rr_work);

    // ---- Host application (paper Listing 3) ----
    rt.setBatchBudget(8);
    while (rt.enqueue(input)) {
        cnn.execute(0);
        gemm0.execute(0);
        gemm1.execute(0);
        knn0.execute(0);
        knn1.execute(0);
    }

    RunResult run = rt.run();
    double seconds = sim::secondsFromTicks(run.makespan);
    auto energy = rt.system().measureEnergy();

    std::printf("%u batches (%u queries each) in %.2f ms -> %.1f "
                "queries/s\n",
                run.batches, scale.batchSize, seconds * 1e3,
                run.batches * scale.batchSize / seconds);
    std::printf("energy: %.2f J total\n", energy.total());
    std::printf("GAM moved only %.2f MB between levels (query "
                "vectors + short-lists, paper §IV-B)\n",
                static_cast<double>(rt.system().gam().bytesMoved()) /
                    1e6);
}

} // namespace

int
main()
{
    sim::setQuiet(true);
    functionalDemo();
    timingDemo();
    return 0;
}
