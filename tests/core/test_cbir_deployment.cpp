/**
 * @file
 * Tests of the CBIR deployment layer: the five mappings build valid
 * job graphs, run to completion, and reproduce the paper's ordering
 * relations (ReACH fastest, proper scaling behaviour).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "core/cbir_deployment.hh"
#include "sim/logging.hh"

using namespace reach;
using namespace reach::core;

namespace
{

cbir::CbirWorkloadModel
paperModel()
{
    return cbir::CbirWorkloadModel(cbir::ScaleConfig{});
}

RunResult
runMapping(Mapping m, std::uint32_t batches,
           std::uint32_t instances = 0)
{
    ReachSystem sys{SystemConfig{}};
    CbirDeployment dep(sys, paperModel(), m, instances);
    return dep.run(batches);
}

} // namespace

TEST(CbirDeployment, MappingNamesDistinct)
{
    EXPECT_STRNE(mappingName(Mapping::OnChipOnly),
                 mappingName(Mapping::Reach));
    EXPECT_STRNE(mappingName(Mapping::NearMemOnly),
                 mappingName(Mapping::NearStorOnly));
}

TEST(CbirDeployment, JobGraphShapeOnChip)
{
    ReachSystem sys{SystemConfig{}};
    CbirDeployment dep(sys, paperModel(), Mapping::OnChipOnly);
    auto job = dep.makeBatchJob(0, nullptr);
    // 3 stages, one task each.
    EXPECT_EQ(job.tasks.size(), 3u);
    EXPECT_TRUE(job.tasks[1].deps == std::vector<std::size_t>{0});
    EXPECT_TRUE(job.tasks[2].deps == std::vector<std::size_t>{1});
}

TEST(CbirDeployment, JobGraphShapeReach)
{
    ReachSystem sys{SystemConfig{}};
    CbirDeployment dep(sys, paperModel(), Mapping::Reach);
    auto job = dep.makeBatchJob(0, nullptr);
    // 1 FE + 4 shortlist + 1 AIMbus merge + 4 rerank.
    EXPECT_EQ(job.tasks.size(), 10u);
    // All shortlist tasks depend on the FE task.
    for (std::size_t i = 1; i <= 4; ++i) {
        EXPECT_EQ(job.tasks[i].level, acc::Level::NearMem);
        EXPECT_TRUE(job.tasks[i].deps == std::vector<std::size_t>{0});
    }
    // The merge collects the four partial short-lists.
    EXPECT_EQ(job.tasks[5].level, acc::Level::NearMem);
    EXPECT_EQ(job.tasks[5].deps.size(), 4u);
    // Rerank tasks depend on the merged list only.
    for (std::size_t i = 6; i <= 9; ++i) {
        EXPECT_EQ(job.tasks[i].level, acc::Level::NearStor);
        EXPECT_TRUE(job.tasks[i].deps == std::vector<std::size_t>{5});
    }
}

TEST(CbirDeployment, JobGraphShapeNearData)
{
    ReachSystem sys{SystemConfig{}};
    CbirDeployment dep(sys, paperModel(), Mapping::NearMemOnly, 4);
    auto job = dep.makeBatchJob(0, nullptr);
    // 16 single-image FE + 4 shortlist + 1 merge + 4 rerank.
    EXPECT_EQ(job.tasks.size(), 25u);
    for (std::size_t i = 0; i < 16; ++i)
        EXPECT_EQ(job.tasks[i].level, acc::Level::NearMem);
}

/** A run of consecutive tasks with the same placement and deps. */
struct TaskGroup
{
    std::size_t count;
    acc::Level level;
    const char *kernel;
    /** Task j of the group is pinned to instance j % instances. */
    std::uint32_t instances;
    /** Every task of the group depends on tasks [depBegin, depEnd). */
    std::size_t depBegin;
    std::size_t depEnd;
};

TEST(CbirDeployment, JobGraphPerMapping)
{
    using acc::Level;
    // Default machine: 4 AIM modules, 4 SSD-paired NS modules, and a
    // 16-image batch.
    const std::vector<std::pair<Mapping, std::vector<TaskGroup>>> rows{
        {Mapping::CpuOnly,
         {{1, Level::Cpu, "CNN-CPU", 1, 0, 0},
          {1, Level::Cpu, "GeMM-CPU", 1, 0, 1},
          {1, Level::Cpu, "KNN-CPU", 1, 1, 2}}},
        {Mapping::OnChipOnly,
         {{1, Level::OnChip, "CNN-VU9P", 1, 0, 0},
          {1, Level::OnChip, "GeMM-VU9P", 1, 0, 1},
          {1, Level::OnChip, "KNN-VU9P", 1, 1, 2}}},
        // Single-image FE tasks round-robin over the modules; the
        // near-memory short-list partitions meet in one merge.
        {Mapping::NearMemOnly,
         {{16, Level::NearMem, "CNN-ZCU9", 4, 0, 0},
          {4, Level::NearMem, "GeMM-ZCU9", 4, 0, 16},
          {1, Level::NearMem, "GeMM-ZCU9", 1, 16, 20},
          {4, Level::NearMem, "KNN-ZCU9", 4, 20, 21}}},
        // Near-storage partitions are not merged: every rerank task
        // reads every partial list.
        {Mapping::NearStorOnly,
         {{16, Level::NearStor, "CNN-ZCU9", 4, 0, 0},
          {4, Level::NearStor, "GeMM-ZCU9", 4, 0, 16},
          {4, Level::NearStor, "KNN-ZCU9", 4, 16, 20}}},
        {Mapping::Reach,
         {{1, Level::OnChip, "CNN-VU9P", 1, 0, 0},
          {4, Level::NearMem, "GeMM-ZCU9", 4, 0, 1},
          {1, Level::NearMem, "GeMM-ZCU9", 1, 1, 5},
          {4, Level::NearStor, "KNN-ZCU9", 4, 5, 6}}},
    };

    for (const auto &[mapping, groups] : rows) {
        SCOPED_TRACE(mappingName(mapping));
        ReachSystem sys{SystemConfig{}};
        CbirDeployment dep(sys, paperModel(), mapping);
        auto job = dep.makeBatchJob(0, nullptr);

        std::size_t k = 0;
        for (const TaskGroup &g : groups) {
            std::vector<std::size_t> deps(g.depEnd - g.depBegin);
            std::iota(deps.begin(), deps.end(), g.depBegin);
            for (std::size_t j = 0; j < g.count; ++j, ++k) {
                ASSERT_LT(k, job.tasks.size());
                const gam::TaskDesc &t = job.tasks[k];
                SCOPED_TRACE(t.label);
                EXPECT_EQ(t.level, g.level);
                EXPECT_EQ(t.kernelTemplate, g.kernel);
                ASSERT_TRUE(t.pinnedAcc.has_value());
                EXPECT_EQ(*t.pinnedAcc,
                          sys.gamIdAt(g.level, j % g.instances));
                EXPECT_EQ(t.deps, deps);
            }
        }
        EXPECT_EQ(job.tasks.size(), k);
    }
}

TEST(CbirDeployment, StageInboundBytesAreConserved)
{
    // Per stage, the bytes one task reads: the images it extracts,
    // the whole feature batch (broadcast to every short-list
    // partition), or its share of the candidate ids.
    cbir::CbirWorkloadModel model = paperModel();
    const auto &scale = model.scale();
    const std::uint64_t images = model.queryImageBytes() * scale.batchSize;
    const std::uint64_t features =
        model.featureVectorBytes() * scale.batchSize;
    const std::uint64_t candidates =
        std::uint64_t(scale.batchSize) * scale.rerankCandidates * 4;

    ReachSystem sys{SystemConfig{}};
    for (acc::Level level : {acc::Level::OnChip, acc::Level::NearMem,
                             acc::Level::NearStor}) {
        std::uint32_t n = sys.instancesAt(level);
        const std::pair<Stage, std::uint64_t> stages[] = {
            {Stage::FeatureExtraction, images},
            {Stage::Shortlist, features * n},
            {Stage::Rerank, candidates},
        };
        for (const auto &[stage, expected] : stages) {
            // Host input, then 1 and 4 upstream producers.
            for (std::size_t producers : {0u, 1u, 4u}) {
                SCOPED_TRACE(std::string(acc::levelName(level)) + " " +
                             stageName(stage) + " producers=" +
                             std::to_string(producers));
                gam::JobDesc job;
                std::vector<std::size_t> upstream(producers);
                std::iota(upstream.begin(), upstream.end(), 0);
                job.tasks.resize(producers);
                auto idx = addStageTasks(job, stage, {level, n},
                                         upstream, sys, model);
                std::uint64_t total = 0;
                for (std::size_t i : idx) {
                    for (const auto &in : job.tasks[i].inbound) {
                        if (producers == 0) {
                            EXPECT_EQ(in.from,
                                      gam::InboundTransfer::fromHost);
                        }
                        total += in.bytes;
                    }
                    EXPECT_EQ(job.tasks[i].deps, upstream);
                }
                EXPECT_EQ(total, expected);
            }
        }
    }
}

TEST(CbirDeployment, ShortlistMergeUsesTheAimBus)
{
    // The partial top-nprobe exchange between AIM modules travels
    // over the AIMbus (paper Fig. 3).
    ReachSystem sys{SystemConfig{}};
    CbirDeployment dep(sys, paperModel(), Mapping::Reach);
    dep.run(2);
    EXPECT_GT(sys.aimBusLink().bytesMoved(), 0u);
}

TEST(CbirDeployment, AllMappingsComplete)
{
    for (Mapping m :
         {Mapping::OnChipOnly, Mapping::NearMemOnly,
          Mapping::NearStorOnly, Mapping::Reach}) {
        RunResult r = runMapping(m, 3);
        EXPECT_EQ(r.batches, 3u) << mappingName(m);
        EXPECT_GT(r.makespan, 0u) << mappingName(m);
        EXPECT_GT(r.meanLatency, 0u) << mappingName(m);
        EXPECT_GE(r.maxLatency, r.meanLatency) << mappingName(m);
    }
}

TEST(CbirDeployment, ZeroBatchesIsNoOp)
{
    RunResult r = runMapping(Mapping::OnChipOnly, 0);
    EXPECT_EQ(r.batches, 0u);
    EXPECT_EQ(r.makespan, 0u);
}

TEST(CbirDeployment, ReachBeatsEveryOtherMappingOnThroughput)
{
    RunResult oc = runMapping(Mapping::OnChipOnly, 8);
    RunResult nm = runMapping(Mapping::NearMemOnly, 8);
    RunResult ns = runMapping(Mapping::NearStorOnly, 8);
    RunResult rc = runMapping(Mapping::Reach, 8);

    EXPECT_GT(rc.throughputBatchesPerSec(),
              oc.throughputBatchesPerSec());
    EXPECT_GT(rc.throughputBatchesPerSec(),
              nm.throughputBatchesPerSec());
    EXPECT_GT(rc.throughputBatchesPerSec(),
              ns.throughputBatchesPerSec());
}

TEST(CbirDeployment, HeadlineThroughputGainNearPaper)
{
    // Paper: 4.5x throughput vs on-chip. Accept 3.5-6x.
    RunResult oc = runMapping(Mapping::OnChipOnly, 10);
    RunResult rc = runMapping(Mapping::Reach, 10);
    double gain = rc.throughputBatchesPerSec() /
                  oc.throughputBatchesPerSec();
    EXPECT_GT(gain, 3.5);
    EXPECT_LT(gain, 6.0);
}

TEST(CbirDeployment, HeadlineLatencyGainNearPaper)
{
    // Paper: 2.2x query-response latency improvement. Accept 1.6-3x.
    RunResult oc = runMapping(Mapping::OnChipOnly, 1);
    RunResult rc = runMapping(Mapping::Reach, 1);
    double gain = static_cast<double>(oc.meanLatency) /
                  static_cast<double>(rc.meanLatency);
    EXPECT_GT(gain, 1.6);
    EXPECT_LT(gain, 3.0);
}

TEST(CbirDeployment, HeadlineEnergyReductionNearPaper)
{
    // Paper: 52% energy reduction. Accept 40-65%.
    ReachSystem sys_oc{SystemConfig{}};
    CbirDeployment oc(sys_oc, paperModel(), Mapping::OnChipOnly);
    oc.run(8);
    double e_oc = sys_oc.measureEnergy().total();

    ReachSystem sys_rc{SystemConfig{}};
    CbirDeployment rc(sys_rc, paperModel(), Mapping::Reach);
    rc.run(8);
    double e_rc = sys_rc.measureEnergy().total();

    double reduction = 1.0 - e_rc / e_oc;
    EXPECT_GT(reduction, 0.40);
    EXPECT_LT(reduction, 0.65);
}

TEST(CbirDeployment, NearDataScalingImprovesWithInstances)
{
    // Fig 12: 4 instances beat 1 instance end-to-end.
    RunResult one = runMapping(Mapping::NearMemOnly, 4, 1);
    RunResult four = runMapping(Mapping::NearMemOnly, 4, 4);
    EXPECT_GT(four.throughputBatchesPerSec(),
              one.throughputBatchesPerSec());

    RunResult ns1 = runMapping(Mapping::NearStorOnly, 4, 1);
    RunResult ns4 = runMapping(Mapping::NearStorOnly, 4, 4);
    EXPECT_GT(ns4.throughputBatchesPerSec(),
              ns1.throughputBatchesPerSec());
}

TEST(CbirDeployment, SingleNearDataInstanceWorseThanOnChip)
{
    // Section VI-C: "on-chip performs better" vs single instances.
    RunResult oc = runMapping(Mapping::OnChipOnly, 4);
    RunResult nm1 = runMapping(Mapping::NearMemOnly, 4, 1);
    RunResult ns1 = runMapping(Mapping::NearStorOnly, 4, 1);
    EXPECT_GT(oc.throughputBatchesPerSec(),
              nm1.throughputBatchesPerSec());
    EXPECT_GT(oc.throughputBatchesPerSec(),
              ns1.throughputBatchesPerSec());
}

TEST(CbirDeployment, TooManyInstancesIsFatal)
{
    ReachSystem sys{SystemConfig{}};
    EXPECT_THROW(
        CbirDeployment(sys, paperModel(), Mapping::NearMemOnly, 99),
        sim::SimFatal);
}

TEST(CbirDeployment, ZeroInstancePlacementsAreFatal)
{
    SystemConfig cfg;
    cfg.numAimModules = 0;
    ReachSystem sys{cfg};
    // ReACH's short-list and every near-memory stage need an AIM
    // module; the near-storage mapping does not.
    EXPECT_THROW(CbirDeployment(sys, paperModel(), Mapping::Reach),
                 sim::SimFatal);
    EXPECT_THROW(CbirDeployment(sys, paperModel(), Mapping::NearMemOnly),
                 sim::SimFatal);
    EXPECT_NO_THROW(
        CbirDeployment(sys, paperModel(), Mapping::NearStorOnly));
}

TEST(CbirDeployment, ReachNeedsOnChip)
{
    SystemConfig cfg;
    cfg.hasOnChipAcc = false;
    ReachSystem sys{cfg};
    EXPECT_THROW(CbirDeployment(sys, paperModel(), Mapping::Reach),
                 sim::SimFatal);
}

TEST(CbirDeployment, CpuBaselineCompletesAndIsSlowest)
{
    RunResult cpu = runMapping(Mapping::CpuOnly, 2);
    RunResult oc = runMapping(Mapping::OnChipOnly, 2);
    EXPECT_EQ(cpu.batches, 2u);
    // The paper's premise: conventional on-chip FPGA acceleration
    // substantially beats the software baseline.
    EXPECT_GT(oc.throughputBatchesPerSec(),
              3.0 * cpu.throughputBatchesPerSec());
}

TEST(CbirDeployment, FpgaReducesComputeEnergyButMovementRemains)
{
    // Section I: after on-chip acceleration the compute energy
    // shrinks but data-movement energy does not go away.
    cbir::CbirWorkloadModel model{cbir::ScaleConfig{}};

    ReachSystem cpu_sys{SystemConfig{}};
    CbirDeployment cpu_dep(cpu_sys, model, Mapping::CpuOnly);
    cpu_dep.run(2);
    auto cpu_e = cpu_sys.measureEnergy();

    ReachSystem oc_sys{SystemConfig{}};
    CbirDeployment oc_dep(oc_sys, model, Mapping::OnChipOnly);
    oc_dep.run(2);
    auto oc_e = oc_sys.measureEnergy();

    double cpu_movement =
        cpu_e.total() - cpu_e[energy::Component::Acc];
    double oc_movement = oc_e.total() - oc_e[energy::Component::Acc];
    // Movement energy scales with (shorter) runtime but does not
    // vanish; it becomes the dominant share on-chip.
    EXPECT_GT(oc_movement / oc_e.total(), 0.5);
    EXPECT_LT(oc_e.total(), cpu_e.total());
    (void)cpu_movement;
}

TEST(CbirDeployment, ReverseLookupExtensionStage)
{
    // The optional 4th stage (the paper describes reverse lookup but
    // excludes it) adds near-storage fetch tasks and host IO traffic.
    cbir::ScaleConfig sc;
    sc.includeReverseLookup = true;
    cbir::CbirWorkloadModel model(sc);

    ReachSystem sys{SystemConfig{}};
    CbirDeployment dep(sys, model, Mapping::Reach);
    auto job = dep.makeBatchJob(0, nullptr);
    // 1 FE + 4 SL + 1 merge + 4 RR + 4 reverse-lookup.
    EXPECT_EQ(job.tasks.size(), 14u);

    RunResult with_rl = dep.run(2);
    EXPECT_EQ(with_rl.batches, 2u);

    // Without the stage the pipeline is faster.
    ReachSystem sys2{SystemConfig{}};
    CbirDeployment dep2(sys2, cbir::CbirWorkloadModel{cbir::ScaleConfig{}},
                        Mapping::Reach);
    RunResult without = dep2.run(2);
    EXPECT_GT(with_rl.meanLatency, without.meanLatency);
}

TEST(CbirDeployment, ReverseLookupWorkModel)
{
    cbir::ScaleConfig sc;
    cbir::CbirWorkloadModel model(sc);
    auto w = model.reverseLookupBatch(1);
    // batch * topK images at avgImageBytes each.
    EXPECT_EQ(w.bytesIn,
              std::uint64_t(16) * 10 * sc.avgImageBytes);
    EXPECT_EQ(w.bytesOut, w.bytesIn);
    // Table I: image store is hundreds of TB.
    EXPECT_GT(model.imageStoreBytes(), std::uint64_t(100) << 40);
}

TEST(RunResult, GoodputCountsCompletedBatchesOnly)
{
    RunResult r;
    r.batches = 4;
    r.completedBatches = 2;
    r.failedBatches = 2;
    r.makespan = sim::ticksFromSeconds(1.0);

    // Regression: throughput must be goodput (completed work), not
    // submission count — failed batches deliver nothing.
    EXPECT_DOUBLE_EQ(r.throughputBatchesPerSec(), 2.0);
    EXPECT_DOUBLE_EQ(r.offeredBatchesPerSec(), 4.0);
    EXPECT_DOUBLE_EQ(r.completionFraction(), 0.5);
    EXPECT_DOUBLE_EQ(r.queriesPerSec(16), 32.0);
    EXPECT_DOUBLE_EQ(r.offeredQueriesPerSec(16), 64.0);

    // Degenerate cases stay finite.
    RunResult empty;
    EXPECT_DOUBLE_EQ(empty.throughputBatchesPerSec(), 0.0);
    EXPECT_DOUBLE_EQ(empty.offeredBatchesPerSec(), 0.0);
    EXPECT_DOUBLE_EQ(empty.completionFraction(), 1.0);
}

TEST(CbirDeployment, FaultedRunReportsGoodputNotOffered)
{
    // Crash every attempt with no recovery: all batches fail, so
    // goodput is zero while offered load is not.
    SystemConfig sc;
    sc.faultPlan.accCrashProb = 1.0;
    sc.gam.maxTaskAttempts = 1;
    sc.gam.crossLevelFailover = false;
    sc.gam.recoveryDelay = 0;

    ReachSystem sys(sc);
    CbirDeployment dep(sys, paperModel(), Mapping::Reach);
    RunResult r = dep.run(3);

    EXPECT_EQ(r.batches, 3u);
    EXPECT_EQ(r.completedBatches, 0u);
    EXPECT_EQ(r.failedBatches, 3u);
    EXPECT_DOUBLE_EQ(r.throughputBatchesPerSec(), 0.0);
    EXPECT_GT(r.offeredBatchesPerSec(), 0.0);
}

TEST(CbirDeployment, TaskObserverNeverChangesResults)
{
    // Tracing is read-only: a run with every GAM decision reported
    // to an observer matches the unobserved run bit for bit.
    struct Outcome
    {
        RunResult r;
        sim::Tick end = 0;
        std::uint64_t events = 0;
        energy::EnergyBreakdown energy;
    };
    auto run = [](bool observe) {
        ReachSystem sys{SystemConfig{}};
        std::uint64_t seen = 0;
        if (observe) {
            sys.gam().setTaskObserver(
                [&seen](const gam::Gam::TaskEvent &) { ++seen; });
        }
        CbirDeployment dep(sys, paperModel(), Mapping::Reach);
        Outcome o;
        o.r = dep.run(12);
        o.end = sys.simulator().now();
        o.events = sys.simulator().eventsExecuted();
        o.energy = sys.measureEnergy();
        EXPECT_EQ(seen > 0, observe);
        return o;
    };
    Outcome plain = run(false);
    Outcome traced = run(true);

    EXPECT_EQ(traced.r.batches, plain.r.batches);
    EXPECT_EQ(traced.r.completedBatches, plain.r.completedBatches);
    EXPECT_EQ(traced.r.failedBatches, plain.r.failedBatches);
    EXPECT_EQ(traced.r.makespan, plain.r.makespan);
    EXPECT_EQ(traced.r.meanLatency, plain.r.meanLatency);
    EXPECT_EQ(traced.r.maxLatency, plain.r.maxLatency);
    EXPECT_EQ(traced.end, plain.end);
    EXPECT_EQ(traced.events, plain.events);
    EXPECT_EQ(std::memcmp(traced.energy.joules.data(),
                          plain.energy.joules.data(),
                          sizeof(plain.energy.joules)),
              0);
}
