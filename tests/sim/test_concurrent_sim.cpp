/**
 * @file
 * Concurrency regression tests: two independent Simulator instances
 * must be able to run on separate threads and produce results that
 * are bitwise identical to serial runs.
 *
 * The simulator core keeps no unguarded mutable process-global
 * state: logging.cc's quiet flag and stderr sink, the runtime
 * template memo table and the host-DRAM calibration memo are each
 * atomic or mutex-guarded. These tests pin that property so a future
 * "harmless" global does not silently break the parallel sweep
 * runner in bench/common.hh.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gam/gam.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

namespace reach
{
namespace
{

/**
 * A self-contained simulation with a non-trivial event mix: a GAM
 * scheduling a burst of size-skewed near-mem tasks (same shape as
 * the ablation_gam_scheduling bench). Returns the makespan tick.
 */
sim::Tick
runBurst(int tasks, std::uint64_t seed)
{
    sim::Simulator s;
    gam::GamConfig cfg;
    gam::Gam manager(s, "gam", cfg);

    std::vector<std::unique_ptr<acc::Accelerator>> devs;
    for (int i = 0; i < 4; ++i) {
        devs.push_back(std::make_unique<acc::Accelerator>(
            s, "nm" + std::to_string(i), acc::Level::NearMem));
        manager.addAccelerator(*devs.back());
    }

    sim::Rng rng(seed);
    gam::JobDesc job;
    for (int t = 0; t < tasks; ++t) {
        gam::TaskDesc task;
        task.label = "t" + std::to_string(t);
        task.kernelTemplate = "GeMM-ZCU9";
        task.level = acc::Level::NearMem;
        task.work.ops =
            1e7 * static_cast<double>(1 + rng.nextUInt(100));
        job.tasks.push_back(std::move(task));
    }
    sim::Tick done = 0;
    job.onComplete = [&done](sim::Tick t) { done = t; };
    manager.submitJob(std::move(job));
    s.run();
    return done;
}

TEST(ConcurrentSim, TwoSimulatorsOnThreadsMatchSerialRuns)
{
    sim::setQuiet(true);

    // Serial reference runs first.
    const sim::Tick ref_a = runBurst(24, 7);
    const sim::Tick ref_b = runBurst(40, 1234);
    ASSERT_GT(ref_a, 0u);
    ASSERT_GT(ref_b, 0u);
    // Repeating serially is already deterministic.
    ASSERT_EQ(runBurst(24, 7), ref_a);

    // Now the same two simulations concurrently, several times so a
    // race has a chance to interleave differently across attempts.
    for (int round = 0; round < 4; ++round) {
        sim::Tick got_a = 0, got_b = 0;
        std::thread ta([&] { got_a = runBurst(24, 7); });
        std::thread tb([&] { got_b = runBurst(40, 1234); });
        ta.join();
        tb.join();
        EXPECT_EQ(got_a, ref_a) << "round " << round;
        EXPECT_EQ(got_b, ref_b) << "round " << round;
    }
}

TEST(ConcurrentSim, ConcurrentWarnsEmitWholeLines)
{
    // Several threads warn at once through the shared stderr sink;
    // every line must come out whole, never interleaved mid-message.
    constexpr int threads = 3;
    constexpr int perThread = 200;
    std::ostringstream captured;
    auto *old = std::cerr.rdbuf(captured.rdbuf());
    sim::setQuiet(false);

    std::vector<std::thread> writers;
    for (int t = 0; t < threads; ++t) {
        writers.emplace_back([t] {
            for (int i = 0; i < perThread; ++i)
                sim::warn("concurrent warn ", t, ":", i);
        });
    }
    for (auto &w : writers)
        w.join();

    sim::setQuiet(true);
    std::cerr.rdbuf(old);

    std::istringstream lines(captured.str());
    std::string line;
    int count = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(line.rfind("[warn] concurrent warn ", 0), 0u)
            << line;
        ++count;
    }
    EXPECT_EQ(count, threads * perThread);
}

} // namespace
} // namespace reach
