/**
 * @file
 * Tests of the ReACH runtime library (Listings 1-3): registration,
 * buffers, streams, job construction from host-style code, and
 * error handling.
 */

#include <gtest/gtest.h>

#include "core/runtime.hh"
#include "sim/logging.hh"

using namespace reach;
using namespace reach::core;

namespace
{

struct RuntimeFixture : ::testing::Test
{
    RuntimeFixture() : rt(SystemConfig{}) {}
    ReachRuntime rt;
};

} // namespace

TEST_F(RuntimeFixture, RegisterAccAtEachLevel)
{
    EXPECT_TRUE(rt.registerAcc("CNN-VU9P", Level::OnChip).valid());
    EXPECT_TRUE(rt.registerAcc("GeMM-ZCU9", Level::NearMem).valid());
    EXPECT_TRUE(rt.registerAcc("KNN-ZCU9", Level::NearStor).valid());
}

TEST_F(RuntimeFixture, UnknownTemplateIsFatal)
{
    EXPECT_THROW(rt.registerAcc("FFT-VU9P", Level::OnChip),
                 sim::SimFatal);
}

TEST_F(RuntimeFixture, CpuLevelRegistersTheHostCore)
{
    EXPECT_TRUE(rt.registerAcc("CNN-CPU", Level::Cpu).valid());
    // ...but there is only one host core.
    EXPECT_THROW(rt.registerAcc("GeMM-CPU", Level::Cpu),
                 sim::SimFatal);
}

TEST_F(RuntimeFixture, InstanceExhaustionIsFatal)
{
    rt.registerAcc("CNN-VU9P", Level::OnChip);
    EXPECT_THROW(rt.registerAcc("GeMM-VU9P", Level::OnChip),
                 sim::SimFatal);

    for (int i = 0; i < 4; ++i)
        rt.registerAcc("KNN-ZCU9", Level::NearStor);
    EXPECT_THROW(rt.registerAcc("KNN-ZCU9", Level::NearStor),
                 sim::SimFatal);
}

TEST_F(RuntimeFixture, BufferValidation)
{
    EXPECT_TRUE(
        rt.createFixedBuffer("./params", Level::OnChip, 1024).valid());
    EXPECT_THROW(rt.createFixedBuffer("./empty", Level::OnChip, 0),
                 sim::SimFatal);
}

TEST_F(RuntimeFixture, StreamValidation)
{
    EXPECT_TRUE(rt.createStream(Level::Cpu, Level::OnChip,
                                StreamType::Pair, 4096, 4)
                    .valid());
    EXPECT_THROW(rt.createStream(Level::OnChip, Level::OnChip,
                                 StreamType::Pair, 4096, 4),
                 sim::SimFatal);
    EXPECT_THROW(rt.createStream(Level::Cpu, Level::OnChip,
                                 StreamType::Pair, 4096, 0),
                 sim::SimFatal);
}

TEST_F(RuntimeFixture, EnqueueOnlyOnCpuSourcedStreams)
{
    auto down = rt.createStream(Level::OnChip, Level::NearStor,
                                StreamType::BroadCast, 64, 2);
    EXPECT_THROW(rt.enqueue(down), sim::SimFatal);
}

TEST_F(RuntimeFixture, ListingStyleProgramRuns)
{
    // Listing 2: configuration.
    auto vgg_param =
        rt.createFixedBuffer("./vgg16_param", Level::OnChip,
                             11'300'000);
    auto db0 = rt.createFixedBuffer("./feature_db0", Level::NearStor,
                                    64 << 20);
    auto input = rt.createStream(Level::Cpu, Level::OnChip,
                                 StreamType::Pair, 16 * 150528, 4);
    auto features = rt.createStream(Level::OnChip, Level::NearStor,
                                    StreamType::BroadCast, 16 * 384,
                                    4);

    auto cnn = rt.registerAcc("CNN-VU9P", Level::OnChip);
    cnn.setArgs(0, input);
    cnn.setArgs(1, vgg_param);
    cnn.setArgs(2, features);

    auto knn0 = rt.registerAcc("KNN-ZCU9", Level::NearStor);
    knn0.setArgs(0, features);
    knn0.setArgs(1, db0);

    // Listing 3: host loop.
    rt.setBatchBudget(3);
    int iterations = 0;
    while (rt.enqueue(input)) {
        cnn.execute(0);
        knn0.execute(0);
        ++iterations;
    }
    EXPECT_EQ(iterations, 3);

    RunResult r = rt.run();
    EXPECT_GT(r.makespan, 0u);
    EXPECT_EQ(r.batches, 3u);
    EXPECT_EQ(r.completedBatches, 3u);
    EXPECT_TRUE(rt.system().gam().idle());
    // Golden final tick, recorded before the runtime handed its jobs
    // to ReachSystem::runJobs.
    EXPECT_EQ(rt.system().simulator().now(), 32'851'282'264u);
}

TEST_F(RuntimeFixture, ConsumerWithoutProducerIsFatal)
{
    auto features = rt.createStream(Level::OnChip, Level::NearStor,
                                    StreamType::BroadCast, 4096, 2);
    auto knn = rt.registerAcc("KNN-ZCU9", Level::NearStor);
    knn.setArgs(0, features);

    auto input = rt.createStream(Level::Cpu, Level::OnChip,
                                 StreamType::Pair, 64, 2);
    rt.setBatchBudget(1);
    ASSERT_TRUE(rt.enqueue(input));
    // knn consumes `features` but nothing produced it in this job.
    EXPECT_THROW(knn.execute(0), sim::SimFatal);
}

TEST_F(RuntimeFixture, WorkOverrideChangesTaskDuration)
{
    auto input = rt.createStream(Level::Cpu, Level::OnChip,
                                 StreamType::Pair, 64, 2);
    auto cnn = rt.registerAcc("CNN-VU9P", Level::OnChip);
    cnn.setArgs(0, input);

    rt.setBatchBudget(1);
    acc::WorkUnit heavy;
    heavy.ops = 5e9;
    cnn.setWork(heavy);
    ASSERT_TRUE(rt.enqueue(input));
    cnn.execute(0);
    sim::Tick t_heavy = rt.run().makespan;
    EXPECT_GT(t_heavy,
              acc::findKernel("CNN-VU9P").computeTicks(4e9));
}

TEST_F(RuntimeFixture, CollectStreamSplitsBytesAcrossProducers)
{
    auto input = rt.createStream(Level::Cpu, Level::NearStor,
                                 StreamType::BroadCast, 4096, 2);
    auto result = rt.createStream(Level::NearStor, Level::NearMem,
                                  StreamType::Collect, 8192, 2);

    auto knn0 = rt.registerAcc("KNN-ZCU9", Level::NearStor);
    auto knn1 = rt.registerAcc("KNN-ZCU9", Level::NearStor);
    knn0.setArgs(0, input);
    knn0.setArgs(2, result);
    knn1.setArgs(0, input);
    knn1.setArgs(2, result);

    auto merge = rt.registerAcc("GeMM-ZCU9", Level::NearMem);
    merge.setArgs(0, result);

    rt.setBatchBudget(1);
    ASSERT_TRUE(rt.enqueue(input));
    knn0.execute(0);
    knn1.execute(0);
    merge.execute(0);
    EXPECT_GT(rt.run().makespan, 0u);
    EXPECT_EQ(rt.system().gam().jobsCompleted(), 1u);
}

TEST_F(RuntimeFixture, JobsPipelineAcrossIterations)
{
    auto input = rt.createStream(Level::Cpu, Level::OnChip,
                                 StreamType::Pair, 1024, 4);
    auto cnn = rt.registerAcc("CNN-VU9P", Level::OnChip);
    cnn.setArgs(0, input);

    rt.setBatchBudget(5);
    while (rt.enqueue(input))
        cnn.execute(0);
    EXPECT_EQ(rt.run().batches, 5u);
    EXPECT_EQ(rt.system().gam().jobsCompleted(), 5u);
}

TEST_F(RuntimeFixture, SetArgsValidatesHandles)
{
    auto cnn = rt.registerAcc("CNN-VU9P", Level::OnChip);
    EXPECT_THROW(cnn.setArgs(0, BufferHandle{}), sim::SimFatal);
    EXPECT_THROW(cnn.setArgs(0, StreamHandle{}), sim::SimFatal);
}

TEST(AccHandleTest, InvalidHandleOperationsAreFatal)
{
    AccHandle h;
    EXPECT_FALSE(h.valid());
    EXPECT_THROW(h.execute(0), sim::SimFatal);
    EXPECT_THROW(h.setWork(acc::WorkUnit{}), sim::SimFatal);
}

TEST_F(RuntimeFixture, StreamDepthBoundsInflightJobs)
{
    // A depth-2 stream must keep at most 2 loop iterations in
    // flight; the rest wait for a window slot and still all
    // complete.
    auto input = rt.createStream(Level::Cpu, Level::OnChip,
                                 StreamType::Pair, 1024, 2);
    auto cnn = rt.registerAcc("CNN-VU9P", Level::OnChip);
    cnn.setArgs(0, input);
    acc::WorkUnit w;
    w.ops = 1e9;
    cnn.setWork(w);

    rt.setBatchBudget(6);
    while (rt.enqueue(input))
        cnn.execute(0);
    RunResult r = rt.run();
    EXPECT_EQ(r.batches, 6u);
    EXPECT_EQ(r.completedBatches, 6u);
    EXPECT_TRUE(rt.system().gam().idle());
}

TEST_F(RuntimeFixture, DeepStreamsAllowMoreOverlap)
{
    // Same work, depth 1 vs depth 8: the deeper stream pipelines
    // iterations across levels and finishes sooner.
    auto run_with_depth = [](std::uint32_t depth) {
        ReachRuntime r{SystemConfig{}};
        auto input = r.createStream(Level::Cpu, Level::OnChip,
                                    StreamType::Pair, 1024, depth);
        auto feat = r.createStream(Level::OnChip, Level::NearMem,
                                   StreamType::BroadCast, 1024,
                                   depth);
        auto cnn = r.registerAcc("CNN-VU9P", Level::OnChip);
        cnn.setArgs(0, input);
        cnn.setArgs(2, feat);
        acc::WorkUnit cw;
        cw.ops = 5e8;
        cnn.setWork(cw);
        auto gemm = r.registerAcc("GeMM-ZCU9", Level::NearMem);
        gemm.setArgs(0, feat);
        acc::WorkUnit gw;
        gw.ops = 1e7;
        gemm.setWork(gw);

        r.setBatchBudget(8);
        while (r.enqueue(input)) {
            cnn.execute(0);
            gemm.execute(0);
        }
        return r.run().makespan;
    };

    sim::Tick shallow = run_with_depth(1);
    sim::Tick deep = run_with_depth(8);
    EXPECT_LT(deep, shallow);
}

TEST_F(RuntimeFixture, CpuBoundStreamGetsHostProcessingTask)
{
    // Listing 3's process(Result.dequeue()): a Collect stream ending
    // at the CPU spawns a host post-processing task that depends on
    // all producers, so the job completes only after the host has
    // consumed the results.
    auto input = rt.createStream(Level::Cpu, Level::NearStor,
                                 StreamType::BroadCast, 4096, 2);
    auto result = rt.createStream(Level::NearStor, Level::Cpu,
                                  StreamType::Collect, 8192, 2);

    auto knn0 = rt.registerAcc("KNN-ZCU9", Level::NearStor);
    auto knn1 = rt.registerAcc("KNN-ZCU9", Level::NearStor);
    knn0.setArgs(0, input);
    knn0.setArgs(2, result);
    knn1.setArgs(0, input);
    knn1.setArgs(2, result);

    rt.setBatchBudget(2);
    while (rt.enqueue(input)) {
        knn0.execute(0);
        knn1.execute(0);
    }
    rt.run();

    EXPECT_TRUE(rt.system().gam().idle());
    // The host core ran one processing task per job.
    EXPECT_EQ(rt.system().hostCore().tasksCompleted(), 2u);
}
