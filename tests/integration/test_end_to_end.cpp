/**
 * @file
 * Integration tests: functional CBIR retrieval end-to-end (features
 * -> index -> shortlist -> rerank -> recall) combined with the timing
 * simulation of the same pipeline on the full machine.
 */

#include <gtest/gtest.h>

#include "cbir/rerank.hh"
#include "cbir/shortlist.hh"
#include "core/cbir_deployment.hh"
#include "workload/dataset.hh"

using namespace reach;

TEST(EndToEnd, ShortlistPruningRecallVsBruteForce)
{
    workload::DatasetConfig dc;
    dc.numVectors = 2000;
    dc.dim = 24;
    dc.latentClusters = 25;
    workload::Dataset ds(dc);

    cbir::KMeansConfig kc;
    kc.clusters = 40;
    cbir::InvertedFileIndex index(ds.vectors(), kc);
    cbir::Matrix queries = ds.makeQueries(16, 0.05, 999);

    auto truth = cbir::bruteForce(queries, ds.vectors(), 10);

    auto lists = cbir::shortlistRetrieve(queries, index, 8);
    cbir::RerankConfig rcfg;
    rcfg.k = 10;
    rcfg.maxCandidates = 4096;
    auto got = cbir::rerank(queries, ds.vectors(), index, lists, rcfg);

    // The paper preserves recall by probing clusters instead of
    // compressing vectors; with nprobe=8/40 recall should be high.
    EXPECT_GT(cbir::recallAtK(got, truth, 10), 0.85);
}

TEST(EndToEnd, Fp16ShortlistPreservesRecallVsBruteForce)
{
    // The same pipeline as above with the scan reading the packed
    // binary16 centroid stream: recall must stay high — the paper's
    // bandwidth saving cannot come out of answer quality. Also the
    // ASan-facing end-to-end exercise of the fp16 kernels over the
    // aligned packed buffers.
    workload::DatasetConfig dc;
    dc.numVectors = 2000;
    dc.dim = 24;
    dc.latentClusters = 25;
    workload::Dataset ds(dc);

    cbir::KMeansConfig kc;
    kc.clusters = 40;
    cbir::InvertedFileIndex index(ds.vectors(), kc);
    cbir::Matrix queries = ds.makeQueries(16, 0.05, 999);

    auto truth = cbir::bruteForce(queries, ds.vectors(), 10);

    auto lists = cbir::shortlistRetrieve(
        queries, index, 8, {}, cbir::ShortlistPrecision::Fp16);
    cbir::RerankConfig rcfg;
    rcfg.k = 10;
    rcfg.maxCandidates = 4096;
    auto got = cbir::rerank(queries, ds.vectors(), index, lists, rcfg);
    double recall16 = cbir::recallAtK(got, truth, 10);
    EXPECT_GT(recall16, 0.85);

    // And the fp16 lists track the fp32 lists closely enough that
    // end recall matches to within the harness gate.
    auto lists32 = cbir::shortlistRetrieve(queries, index, 8);
    auto got32 =
        cbir::rerank(queries, ds.vectors(), index, lists32, rcfg);
    double recall32 = cbir::recallAtK(got32, truth, 10);
    EXPECT_NEAR(recall16, recall32, 0.05);
}

TEST(EndToEnd, TimingAndFunctionalScalesAgree)
{
    // The workload model's Table-I numbers must match the functional
    // layer's per-vector sizes.
    cbir::ScaleConfig sc;
    cbir::CbirWorkloadModel model(sc);
    EXPECT_EQ(model.featureVectorBytes(), sc.dim * 4u);
    EXPECT_EQ(model.databaseBytes(),
              sc.databaseVectors * sc.dim * 4u);
}

TEST(EndToEnd, FullMachineRunsAllMappingsBackToBack)
{
    cbir::CbirWorkloadModel model{cbir::ScaleConfig{}};
    core::ReachSystem sys{core::SystemConfig{}};

    // Run two mappings on the SAME machine instance sequentially;
    // the GAM must drain cleanly between them.
    core::CbirDeployment onchip(sys, model,
                                core::Mapping::OnChipOnly);
    auto r1 = onchip.run(2);
    EXPECT_EQ(r1.batches, 2u);
    EXPECT_TRUE(sys.gam().idle());

    core::CbirDeployment reach(sys, model, core::Mapping::Reach);
    auto r2 = reach.run(2);
    EXPECT_EQ(r2.batches, 2u);
    EXPECT_TRUE(sys.gam().idle());

    // Energy accumulated over both runs.
    EXPECT_GT(sys.measureEnergy().total(), 0.0);
}

TEST(EndToEnd, DataMovementDominatesOnChipEnergy)
{
    // Fig 8's qualitative claim: for on-chip-only CBIR most energy
    // is data movement (everything except the ACC component).
    cbir::CbirWorkloadModel model{cbir::ScaleConfig{}};
    core::ReachSystem sys{core::SystemConfig{}};
    core::CbirDeployment dep(sys, model, core::Mapping::OnChipOnly);
    dep.run(6);
    auto e = sys.measureEnergy();
    double movement = e.total() - e[energy::Component::Acc];
    EXPECT_GT(movement / e.total(), 0.5);
}

TEST(EndToEnd, GamMovesOnlySmallDataInReachMapping)
{
    // Section IV-B: "the only data movement required is the user
    // query vector and retrieved short-list" — GAM DMA traffic in
    // the ReACH mapping must be tiny compared with the single-level
    // mappings' streaming traffic.
    cbir::CbirWorkloadModel model{cbir::ScaleConfig{}};

    core::ReachSystem sys{core::SystemConfig{}};
    core::CbirDeployment dep(sys, model, core::Mapping::Reach);
    dep.run(4);

    std::uint64_t dma = sys.gam().bytesMoved();
    // Per batch: images (~2.4 MB) + features + candidate ids.
    EXPECT_LT(dma, std::uint64_t(64) << 20);
    EXPECT_GT(dma, std::uint64_t(1) << 20);
}

TEST(EndToEnd, PhysicalInvariantsHoldAfterReachRun)
{
    cbir::CbirWorkloadModel model{cbir::ScaleConfig{}};
    core::ReachSystem sys{core::SystemConfig{}};
    core::CbirDeployment dep(sys, model, core::Mapping::Reach);
    dep.run(6);

    sim::Tick horizon = sys.simulator().now();

    // No link can have been busy longer than simulated time.
    auto check_link = [&](noc::Link &l) {
        EXPECT_LE(l.busyTicks(), horizon) << l.name();
        EXPECT_LE(l.utilization(), 1.0001) << l.name();
    };
    check_link(sys.hostDramLink());
    check_link(sys.cacheLink());
    check_link(sys.hostIoUplink());
    check_link(sys.aimBusLink());
    for (std::uint32_t i = 0; i < sys.numAims(); ++i)
        check_link(sys.aimLocalLink(i));
    for (std::uint32_t i = 0; i < sys.numNs(); ++i) {
        check_link(sys.nsLocalLink(i));
        check_link(sys.ssdHostLink(i));
    }

    // Every dispatched task ran on exactly one device.
    std::uint64_t ran = sys.onChip().tasksCompleted() +
                        sys.hostCore().tasksCompleted();
    for (std::uint32_t i = 0; i < sys.numAims(); ++i)
        ran += sys.aim(i).tasksCompleted();
    for (std::uint32_t i = 0; i < sys.numNs(); ++i)
        ran += sys.ns(i).tasksCompleted();
    EXPECT_EQ(ran, sys.gam().tasksDispatched());

    // Energy components are all non-negative and total is finite.
    auto e = sys.measureEnergy();
    for (std::size_t c = 0;
         c < static_cast<std::size_t>(
                 energy::Component::NumComponents);
         ++c) {
        EXPECT_GE(e[static_cast<energy::Component>(c)], 0.0);
    }
    EXPECT_GT(e.total(), 0.0);
    EXPECT_LT(e.total(), 1e6);
}

TEST(EndToEnd, DeterministicAcrossIdenticalRuns)
{
    auto run_once = [] {
        cbir::CbirWorkloadModel model{cbir::ScaleConfig{}};
        core::ReachSystem sys{core::SystemConfig{}};
        core::CbirDeployment dep(sys, model, core::Mapping::Reach);
        auto r = dep.run(5);
        return std::make_tuple(r.makespan, r.meanLatency,
                               sys.simulator().eventsExecuted(),
                               sys.measureEnergy().total());
    };
    auto a = run_once();
    auto b = run_once();
    EXPECT_EQ(std::get<0>(a), std::get<0>(b));
    EXPECT_EQ(std::get<1>(a), std::get<1>(b));
    EXPECT_EQ(std::get<2>(a), std::get<2>(b));
    EXPECT_DOUBLE_EQ(std::get<3>(a), std::get<3>(b));
}
