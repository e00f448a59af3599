/**
 * @file
 * Unit tests for the open-loop query service: explicit request
 * accounting in fault-free and faulted runs, admission-control shed
 * paths, deadline drops, degradation-controller behavior with
 * hysteresis, retry-with-backoff, run-to-run and cross-thread
 * determinism, the quality ladder, and the wedge diagnostic.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <sstream>
#include <string>

#include "parallel/thread_pool.hh"
#include "service/query_service.hh"
#include "sim/logging.hh"

using namespace reach;
using namespace reach::service;

namespace
{

/** PQ on so the refine knob is a live degradation lever. */
cbir::ScaleConfig
testScale()
{
    cbir::ScaleConfig scale;
    scale.pq.enabled = true;
    scale.pq.m = 32;
    scale.pq.bits = 8;
    scale.pq.refine = 128;
    return scale;
}

ServiceConfig
baseConfig(std::uint64_t requests, double rate_qps)
{
    ServiceConfig cfg;
    cfg.totalRequests = requests;
    cfg.arrival.ratePerSec = rate_qps;
    cfg.queueCapacity = 64;
    cfg.sloLatency = 150 * sim::tickPerMs;
    cfg.formTimeout = 4 * sim::tickPerMs;
    cfg.initialLatencyEstimate = 10 * sim::tickPerMs;
    cfg.maxInFlight = 4;
    return cfg;
}

ServiceResult
runService(const ServiceConfig &cfg,
           core::Mapping mapping = core::Mapping::Reach,
           const core::SystemConfig &sys_cfg = {})
{
    core::ReachSystem sys(sys_cfg);
    QueryService svc(sys, testScale(), mapping, cfg);
    return svc.run();
}

core::SystemConfig
faultySystem(double intensity)
{
    core::SystemConfig sc;
    sc.faultPlan.accCrashProb = intensity;
    sc.faultPlan.accHangProb = intensity / 2;
    sc.faultPlan.ssdTimeoutProb = intensity;
    sc.gam.recoveryDelay = 5 * sim::tickPerMs;
    // Tight budget so exhausted recovery surfaces as job failures.
    sc.gam.maxTaskAttempts = 2;
    sc.gam.crossLevelFailover = false;
    return sc;
}

} // namespace

TEST(ServiceConfigTest, ValidatesParameters)
{
    ServiceConfig cfg;
    cfg.totalRequests = 0;
    EXPECT_THROW(cfg.validate(), sim::SimFatal);

    cfg = {};
    cfg.queueCapacity = 0;
    EXPECT_THROW(cfg.validate(), sim::SimFatal);

    cfg = {};
    cfg.highWatermark = 0.2;
    cfg.lowWatermark = 0.5; // inverted
    EXPECT_THROW(cfg.validate(), sim::SimFatal);

    cfg = {};
    cfg.hysteresisEvals = 0;
    EXPECT_THROW(cfg.validate(), sim::SimFatal);

    EXPECT_NO_THROW(ServiceConfig{}.validate());
}

TEST(DegradeLadder, StepsExistingKnobsOnly)
{
    cbir::ScaleConfig base = testScale();
    auto ladder = degradeLadder(base, 3);
    ASSERT_EQ(ladder.size(), 4u);

    EXPECT_EQ(ladder[0].centroidBytesPerDim,
              base.centroidBytesPerDim);
    // L1: fp16 shortlist scan.
    EXPECT_EQ(ladder[1].centroidBytesPerDim, 2u);
    EXPECT_EQ(ladder[1].nprobe, base.nprobe);
    // L2: + nprobe halved.
    EXPECT_EQ(ladder[2].nprobe, base.nprobe / 2);
    EXPECT_EQ(ladder[2].pq.refine, base.pq.refine);
    // L3: + PQ refine budget quartered (PQ enabled here).
    EXPECT_EQ(ladder[3].pq.refine, base.pq.refine / 4);
    EXPECT_EQ(ladder[3].rerankCandidates, base.rerankCandidates);

    // Levels are capped at the three defined steps.
    EXPECT_EQ(degradeLadder(base, 7).size(), 4u);
    EXPECT_EQ(degradeLadder(base, 0).size(), 1u);

    // Without PQ, L3 halves the rerank candidate budget instead.
    cbir::ScaleConfig nopq;
    auto l2 = degradeLadder(nopq, 3);
    EXPECT_EQ(l2[3].rerankCandidates, nopq.rerankCandidates / 2);
    EXPECT_EQ(l2[3].pq.refine, nopq.pq.refine);
}

TEST(QueryService, FaultFreeRunAccountsEveryRequest)
{
    ServiceConfig cfg = baseConfig(64, 800);
    ServiceResult r = runService(cfg);

    EXPECT_EQ(r.submitted, 64u);
    EXPECT_EQ(r.completed, 64u);
    EXPECT_EQ(r.failed, 0u);
    EXPECT_EQ(r.shedTotal(), 0u);
    EXPECT_TRUE(r.accounted());
    EXPECT_EQ(r.goodRequests + r.sloMisses, r.completed);
    EXPECT_GT(r.goodputQps(), 0.0);
    EXPECT_GT(r.makespan, 0u);

    // Percentiles are populated and ordered.
    EXPECT_GT(r.p50, 0u);
    EXPECT_LE(r.p50, r.p95);
    EXPECT_LE(r.p95, r.p99);
    EXPECT_LE(r.p99, r.p999);
    EXPECT_LE(r.p999, r.maxLatency);
    EXPECT_GT(r.meanLatency, 0.0);

    // Nothing degraded at modest load.
    EXPECT_EQ(r.batchesFailed, 0u);
    EXPECT_EQ(r.batchesRetried, 0u);
}

/**
 * Golden timing and energy: one short stream per mapping on the
 * default scale and a fixed arrival seed; 700 req/s overloads
 * OnChipOnly, so its stream also sheds and degrades. The expected
 * values predate the range TLB translation and the bounded interval
 * scan (DESIGN.md §4l) and the machine that builds only what a
 * request reaches (§4m); a host-speed or machinery change to the
 * simulator must leave them exact.
 */
struct GoldenStream
{
    core::Mapping mapping;
    /** AIM module count; 0 keeps the Table II default. */
    std::uint32_t numAimModules;
    double rateQps;
    sim::Tick p50, p99;
    std::uint64_t completed;
    sim::Tick finalTick;
    double tlbMisses;
    sim::Tick hostDramBusy;
};

/** measureEnergy() after a golden stream, per component, in J. */
struct GoldenEnergy
{
    core::Mapping mapping;
    std::uint32_t numAimModules;
    std::array<double, static_cast<std::size_t>(
                           energy::Component::NumComponents)>
        joules;
};

/**
 * Three AIM modules on two channels charge DRAM background power
 * for eight DIMM slots although only seven DIMMs exist (DESIGN.md
 * §4m); the row pins that rounding.
 */
const GoldenEnergy goldenEnergy[] = {
    {core::Mapping::OnChipOnly, 0,
     {2.77550547395942, 0.020668314952, 2.6743255001596,
      10.874492429276, 0.050992953279999996, 0.17850957823999997}},
    {core::Mapping::Reach, 0,
     {6.1479069567241993, 0.00043104271999999997, 1.2206229125947998,
      6.6168025285400001, 0.056677787199999996, 0.18827361280000005}},
    {core::Mapping::Reach, 3,
     {6.0376615817211983, 0.00043104271999999997, 1.2262267350691998,
      6.6383891249799998, 0.056675251999999995, 0.18827361280000005}},
};

class TimingGolden : public ::testing::TestWithParam<GoldenStream>
{
};

TEST_P(TimingGolden, StreamMatchesRecordedSchedule)
{
    const GoldenStream &g = GetParam();
    ServiceConfig cfg = baseConfig(200, g.rateQps);
    cfg.arrival.seed = 501;

    core::SystemConfig sys_cfg;
    if (g.numAimModules > 0)
        sys_cfg.numAimModules = g.numAimModules;
    core::ReachSystem sys(sys_cfg);
    QueryService svc(sys, cbir::ScaleConfig{}, g.mapping, cfg);
    ServiceResult r = svc.run();

    EXPECT_EQ(r.p50, g.p50);
    EXPECT_EQ(r.p99, g.p99);
    EXPECT_EQ(r.completed, g.completed);
    EXPECT_EQ(sys.simulator().now(), g.finalTick);
    const sim::Stat *misses = sys.simulator().stats().find("accTlb.misses");
    ASSERT_NE(misses, nullptr);
    EXPECT_EQ(misses->value(), g.tlbMisses);
    EXPECT_EQ(sys.hostDramLink().busyTicks(), g.hostDramBusy);

    const GoldenEnergy *e = nullptr;
    for (const GoldenEnergy &row : goldenEnergy)
        if (row.mapping == g.mapping &&
            row.numAimModules == g.numAimModules)
            e = &row;
    ASSERT_NE(e, nullptr);
    energy::EnergyBreakdown measured = sys.measureEnergy();
    for (std::size_t c = 0; c < e->joules.size(); ++c) {
        EXPECT_EQ(measured.joules[c], e->joules[c])
            << energy::componentName(static_cast<energy::Component>(c));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Streams, TimingGolden,
    ::testing::Values(
        GoldenStream{core::Mapping::OnChipOnly, 0, 700, 235'009'781'781,
                     273'129'858'518, 145, 479'971'202'123, 1'243'200,
                     147'375'095'008},
        GoldenStream{core::Mapping::Reach, 0, 1200, 39'811'562'521,
                     44'746'225'760, 200, 196'622'401'499, 0,
                     506'518'000},
        GoldenStream{core::Mapping::Reach, 3, 1200, 39'904'607'386,
                     44'719'006'997, 200, 197'701'731'321, 0,
                     499'415'280}),
    [](const ::testing::TestParamInfo<GoldenStream> &info) {
        std::string name = core::mappingName(info.param.mapping);
        if (info.param.numAimModules > 0)
            name += "_" + std::to_string(info.param.numAimModules) +
                    "aims";
        return name;
    });

TEST(QueryService, LowRateClosesPartialBatchesOnTimeout)
{
    // ~25 req/s against a 4 ms form timeout: every batch closes by
    // timer with far fewer members than the 16-query batch shape.
    ServiceConfig cfg = baseConfig(12, 25);
    ServiceResult r = runService(cfg);
    EXPECT_TRUE(r.accounted());
    EXPECT_EQ(r.completed, 12u);
    EXPECT_GT(r.batchesSubmitted, 12u / 16 + 1);
}

TEST(QueryService, QueueFullShedsExplicitly)
{
    ServiceConfig cfg = baseConfig(128, 50'000); // far over capacity
    cfg.queueCapacity = 8;
    cfg.degrade = false;
    ServiceResult r = runService(cfg);

    EXPECT_TRUE(r.accounted());
    EXPECT_GT(r.shedQueueFull, 0u);
    EXPECT_GT(r.completed, 0u);
}

TEST(QueryService, ExpiredRequestsAreDroppedNotServed)
{
    // SLO far below the batch service time: whatever queues behind
    // the first in-flight window can only expire.
    ServiceConfig cfg = baseConfig(96, 4'000);
    cfg.sloLatency = 5 * sim::tickPerMs;
    ServiceResult r = runService(cfg);

    EXPECT_TRUE(r.accounted());
    EXPECT_GT(r.shedDeadline, 0u);
    // Completions exist but all blew the 5 ms SLO.
    EXPECT_GT(r.completed, 0u);
    EXPECT_EQ(r.goodRequests, 0u);
}

TEST(QueryService, OverloadEngagesDegradationWithHysteresis)
{
    ServiceConfig cfg = baseConfig(192, 6'000); // ~4x capacity
    ServiceResult r = runService(cfg);

    EXPECT_TRUE(r.accounted());
    EXPECT_GT(r.maxDegradeLevel, 0u);
    EXPECT_GT(r.degradedBatches, 0u);
    EXPECT_GT(r.timeDegraded, 0u);
    EXPECT_LE(r.timeDegraded, r.makespan);

    ServiceConfig off = cfg;
    off.degrade = false;
    ServiceResult r_off = runService(off);
    EXPECT_TRUE(r_off.accounted());
    EXPECT_EQ(r_off.maxDegradeLevel, 0u);
    EXPECT_EQ(r_off.degradedBatches, 0u);
    EXPECT_EQ(r_off.timeDegraded, 0u);
}

TEST(QueryService, FaultedRunTerminatesEveryRequestExplicitly)
{
    ServiceConfig cfg = baseConfig(96, 1'200);
    cfg.maxBatchRetries = 2;
    ServiceResult r = runService(cfg, core::Mapping::Reach,
                                 faultySystem(0.08));

    // The headline robustness invariant: nothing silently dropped,
    // nothing hung — completed + failed + shed == submitted.
    EXPECT_TRUE(r.accounted());
    EXPECT_EQ(r.submitted, 96u);
    // The retry path actually ran.
    EXPECT_GT(r.batchesRetried + r.batchesFailed, 0u);
}

TEST(QueryService, RetryBudgetExhaustionFailsRequests)
{
    // Crash every task attempt: jobs always fail, retries burn the
    // budget, and every request must end as an explicit failure.
    core::SystemConfig sc;
    sc.faultPlan.accCrashProb = 1.0;
    sc.gam.maxTaskAttempts = 1;
    sc.gam.crossLevelFailover = false;
    sc.gam.recoveryDelay = 0; // no repair: stay dead

    ServiceConfig cfg = baseConfig(8, 2'000);
    cfg.maxBatchRetries = 2;
    ServiceResult r = runService(cfg, core::Mapping::Reach, sc);

    EXPECT_TRUE(r.accounted());
    EXPECT_EQ(r.completed, 0u);
    EXPECT_GT(r.failed, 0u);
    EXPECT_GT(r.batchesRetried, 0u);
    EXPECT_GT(r.batchesFailed, 0u);
}

TEST(QueryService, RepeatedRunsAreBitwiseIdentical)
{
    ServiceConfig cfg = baseConfig(96, 2'000);
    ServiceResult a = runService(cfg);
    ServiceResult b = runService(cfg);
    EXPECT_TRUE(a == b);

    // A different arrival seed produces a different run.
    ServiceConfig other = cfg;
    other.arrival.seed = cfg.arrival.seed + 1;
    EXPECT_TRUE(runService(other) != a);
}

TEST(QueryService, ConcurrentRunsMatchSerialRuns)
{
    // The bench sweeps points on a thread pool; each point owns its
    // Simulator, so results must not depend on the thread context.
    ServiceConfig cfg = baseConfig(64, 2'500);
    ServiceResult serial = runService(cfg);

    std::vector<ServiceResult> results(4);
    parallel::ThreadPool::global().run(4, 4, [&](std::size_t i) {
        results[i] = runService(cfg);
    });
    for (const ServiceResult &r : results)
        EXPECT_TRUE(r == serial);
}

TEST(QueryService, FaultedRunsAreDeterministicPerSeed)
{
    ServiceConfig cfg = baseConfig(64, 1'200);
    core::SystemConfig sc = faultySystem(0.05);
    sc.faultPlan.seed = 77;
    ServiceResult a = runService(cfg, core::Mapping::Reach, sc);
    ServiceResult b = runService(cfg, core::Mapping::Reach, sc);
    EXPECT_TRUE(a == b);
}

TEST(QueryService, TaskObserverNeverChangesFaultedResults)
{
    // A faulted stream (crash, hang and poll-drop injection) traced
    // through the GAM observer matches the untraced stream bit for
    // bit: every decision is reported, none is influenced.
    ServiceConfig cfg = baseConfig(64, 1'200);
    core::SystemConfig sc = faultySystem(0.05);
    sc.faultPlan.pollDropProb = 0.05;

    struct Outcome
    {
        ServiceResult r;
        sim::Tick end = 0;
        std::uint64_t events = 0;
        energy::EnergyBreakdown energy;
        std::uint64_t lost = 0;
    };
    auto run = [&](bool observe) {
        core::ReachSystem sys(sc);
        Outcome o;
        if (observe) {
            sys.gam().setTaskObserver(
                [&o](const gam::Gam::TaskEvent &e) {
                    if (e.kind == gam::Gam::TaskEventKind::AttemptLost)
                        ++o.lost;
                });
        }
        QueryService svc(sys, testScale(), core::Mapping::Reach, cfg);
        o.r = svc.run();
        o.end = sys.simulator().now();
        o.events = sys.simulator().eventsExecuted();
        o.energy = sys.measureEnergy();
        return o;
    };
    Outcome plain = run(false);
    Outcome traced = run(true);

    EXPECT_TRUE(traced.r == plain.r);
    EXPECT_EQ(traced.end, plain.end);
    EXPECT_EQ(traced.events, plain.events);
    EXPECT_EQ(std::memcmp(traced.energy.joules.data(),
                          plain.energy.joules.data(),
                          sizeof(plain.energy.joules)),
              0);
    // The plan is hot enough that attempts were actually lost.
    EXPECT_GT(traced.lost, 0u);
}

TEST(QueryService, ReportWedgeDumpsRequestTableAndPanics)
{
    core::ReachSystem sys;
    ServiceConfig cfg = baseConfig(4, 1'000);
    QueryService svc(sys, testScale(), core::Mapping::Reach, cfg);

    std::ostringstream os;
    svc.dumpRequests(os);
    EXPECT_NE(os.str().find("QueryService state"), std::string::npos);

    try {
        svc.reportWedge("test");
        FAIL() << "reportWedge must panic";
    } catch (const sim::SimPanic &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("unaccounted"), std::string::npos);
        EXPECT_NE(msg.find("QueryService state"), std::string::npos);
        EXPECT_NE(msg.find("GAM"), std::string::npos);
    }
}

TEST(QueryService, RunningTwiceIsFatal)
{
    core::ReachSystem sys;
    ServiceConfig cfg = baseConfig(4, 1'000);
    QueryService svc(sys, testScale(), core::Mapping::Reach, cfg);
    svc.run();
    EXPECT_THROW(svc.run(), sim::SimFatal);
}
