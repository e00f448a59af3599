/**
 * @file
 * Fault-injection and fault-tolerant scheduling tests: poll retry
 * with backoff, watchdog deadlines, quarantine and recovery, sibling
 * and cross-level re-dispatch, explicit job failure, and the
 * record-retention / diagnostic machinery around them.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "fault/fault.hh"
#include "gam/gam.hh"
#include "noc/link.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "storage/ssd.hh"

using namespace reach;
using namespace reach::acc;
using namespace reach::gam;

namespace
{

noc::LinkConfig
linkCfg(double bw)
{
    noc::LinkConfig c;
    c.bandwidth = bw;
    c.latency = 0;
    return c;
}

/**
 * A two-AIM + on-chip machine with a configurable fault plan. The
 * injector is built lazily so each test sets cfg / plan first.
 */
struct FaultFixture : ::testing::Test
{
    void
    build(const fault::FaultPlan &plan)
    {
        link = std::make_unique<noc::Link>(sim, "bulk", linkCfg(10e9));
        dma = std::make_unique<noc::Link>(sim, "dma", linkCfg(10e9));

        onchip = std::make_unique<Accelerator>(sim, "oc",
                                               Level::OnChip);
        onchip->setInputPath(Path{}.via(*link));
        nm0 = std::make_unique<Accelerator>(sim, "nm0",
                                            Level::NearMem);
        nm1 = std::make_unique<Accelerator>(sim, "nm1",
                                            Level::NearMem);

        gam = std::make_unique<Gam>(sim, "gam", cfg);
        ocId = gam->addAccelerator(*onchip);
        nm0Id = gam->addAccelerator(*nm0);
        nm1Id = gam->addAccelerator(*nm1);

        gam->setPathProvider(
            [this](const Accelerator *, const Accelerator *) {
                return Path{}.via(*dma);
            });

        if (plan.enabled()) {
            inj = std::make_unique<fault::FaultInjector>(sim, "inj",
                                                         plan);
            gam->setFaultInjector(inj.get());
            onchip->setFaultInjector(inj.get());
            nm0->setFaultInjector(inj.get());
            nm1->setFaultInjector(inj.get());
        }
    }

    TaskDesc
    simpleTask(const std::string &label, Level level,
               const std::string &tmpl, double ops = 1e6)
    {
        TaskDesc t;
        t.label = label;
        t.kernelTemplate = tmpl;
        t.level = level;
        t.work.ops = ops;
        return t;
    }

    /** Submit one single-task job; returns completion flags. */
    struct JobOutcome
    {
        sim::Tick completedAt = 0;
        sim::Tick failedAt = 0;
    };

    std::shared_ptr<JobOutcome>
    submitOne(TaskDesc task)
    {
        auto out = std::make_shared<JobOutcome>();
        JobDesc job;
        job.label = "j-" + task.label;
        job.tasks.push_back(std::move(task));
        job.onComplete = [out](sim::Tick t) { out->completedAt = t; };
        job.onFailed = [out](sim::Tick t) { out->failedAt = t; };
        gam->submitJob(std::move(job));
        return out;
    }

    sim::Simulator sim;
    GamConfig cfg;
    std::unique_ptr<noc::Link> link, dma;
    std::unique_ptr<Accelerator> onchip, nm0, nm1;
    std::unique_ptr<fault::FaultInjector> inj;
    std::unique_ptr<Gam> gam;
    std::uint32_t ocId = 0, nm0Id = 0, nm1Id = 0;
};

fault::ScriptedFault
scripted(fault::FaultKind kind, const std::string &target,
         std::uint32_t count = 1)
{
    fault::ScriptedFault s;
    s.kind = kind;
    s.target = target;
    s.count = count;
    return s;
}

} // namespace

// ----- Configuration validation (satellite: config hardening) -----

TEST(GamConfigValidation, RejectsMalformedValues)
{
    sim::Simulator sim;
    auto make = [&sim](GamConfig c) { Gam g(sim, "g", c); };

    GamConfig ok;
    EXPECT_NO_THROW(make(ok));

    GamConfig c1;
    c1.commandLatency = 0;
    EXPECT_THROW(make(c1), sim::SimFatal);

    GamConfig c2;
    c2.statusPollLatency = 0;
    EXPECT_THROW(make(c2), sim::SimFatal);

    GamConfig c3;
    c3.estimateErrorFactor = 0;
    EXPECT_THROW(make(c3), sim::SimFatal);

    GamConfig c4;
    c4.watchdogSlack = -1.0;
    EXPECT_THROW(make(c4), sim::SimFatal);

    GamConfig c5;
    c5.watchdogMin = 0;
    EXPECT_THROW(make(c5), sim::SimFatal);

    GamConfig c6;
    c6.pollBackoffFactor = 0.5;
    EXPECT_THROW(make(c6), sim::SimFatal);

    GamConfig c7;
    c7.maxTaskAttempts = 0;
    EXPECT_THROW(make(c7), sim::SimFatal);

    GamConfig c8;
    c8.quarantineStrikes = 0;
    EXPECT_THROW(make(c8), sim::SimFatal);
}

TEST(FaultPlanValidation, RejectsMalformedPlans)
{
    fault::FaultPlan p;
    EXPECT_NO_THROW(p.validate());

    fault::FaultPlan bad_prob;
    bad_prob.pollDropProb = 1.5;
    EXPECT_THROW(bad_prob.validate(), sim::SimFatal);

    fault::FaultPlan neg_prob;
    neg_prob.accCrashProb = -0.1;
    EXPECT_THROW(neg_prob.validate(), sim::SimFatal);

    fault::FaultPlan over_one;
    over_one.accCrashProb = 0.6;
    over_one.accHangProb = 0.6;
    EXPECT_THROW(over_one.validate(), sim::SimFatal);

    fault::FaultPlan no_delay;
    no_delay.linkStallProb = 0.1;
    no_delay.linkStallDelay = 0;
    EXPECT_THROW(no_delay.validate(), sim::SimFatal);
}

TEST(FaultPlanEnv, SeedOverrideParses)
{
    ::setenv("REACH_FAULT_SEED", "12345", 1);
    EXPECT_EQ(fault::envFaultSeed(), 12345u);
    ::unsetenv("REACH_FAULT_SEED");
    EXPECT_EQ(fault::envFaultSeed(7u), 7u);
}

// ----- Fault-free behaviour: the machinery must stay invisible -----

TEST_F(FaultFixture, FaultFreeRunHasQuietWatchdogs)
{
    build(fault::FaultPlan{}); // nothing enabled -> no injector
    ASSERT_EQ(inj, nullptr);

    auto a = submitOne(simpleTask("nm", Level::NearMem, "GeMM-ZCU9"));
    auto b = submitOne(simpleTask("oc", Level::OnChip, "CNN-VU9P"));
    sim.run();

    EXPECT_GT(a->completedAt, 0u);
    EXPECT_GT(b->completedAt, 0u);
    EXPECT_EQ(a->failedAt, 0u);
    EXPECT_EQ(gam->jobsCompleted(), 2u);
    EXPECT_EQ(gam->jobsFailed(), 0u);
    EXPECT_EQ(gam->deadlineMisses(), 0u);
    EXPECT_EQ(gam->taskRetries(), 0u);
    EXPECT_EQ(gam->pollRetries(), 0u);
    EXPECT_EQ(gam->quarantines(), 0u);
    EXPECT_DOUBLE_EQ(gam->availability(Level::NearMem), 1.0);
}

// ----- Status-poll loss: retry, backoff, then give up -----

TEST_F(FaultFixture, DroppedPollIsRetriedAndTaskStillCompletes)
{
    fault::FaultPlan plan;
    plan.scripted.push_back(
        scripted(fault::FaultKind::PollDrop, "nm0", 2));
    build(plan);

    TaskDesc t = simpleTask("poll", Level::NearMem, "GeMM-ZCU9");
    t.pinnedAcc = nm0Id;
    auto out = submitOne(std::move(t));
    sim.run();

    EXPECT_GT(out->completedAt, 0u);
    EXPECT_EQ(out->failedAt, 0u);
    EXPECT_EQ(gam->pollRetries(), 2u);
    EXPECT_EQ(inj->injected(fault::FaultKind::PollDrop), 2u);
    // The drops never escalated: no lost attempt, no strike.
    EXPECT_EQ(gam->taskRetries(), 0u);
    EXPECT_EQ(gam->deadlineMisses(), 0u);
    EXPECT_EQ(gam->quarantines(), 0u);
}

TEST_F(FaultFixture, PollBudgetExhaustionRedispatchesToSibling)
{
    fault::FaultPlan plan;
    // Every poll to nm0 is lost, forever.
    plan.scripted.push_back(
        scripted(fault::FaultKind::PollDrop, "nm0", 0));
    build(plan);

    TaskDesc t = simpleTask("lost", Level::NearMem, "GeMM-ZCU9");
    t.pinnedAcc = nm0Id;
    auto out = submitOne(std::move(t));
    sim.run();

    // Retry budget: maxPollRetries tolerated, the next loss kills the
    // attempt; the re-dispatch lands on the sibling and completes.
    EXPECT_GT(out->completedAt, 0u);
    EXPECT_EQ(out->failedAt, 0u);
    EXPECT_EQ(gam->pollRetries(),
              static_cast<std::uint64_t>(cfg.maxPollRetries) + 1);
    EXPECT_EQ(gam->taskRetries(), 1u);
    EXPECT_EQ(gam->jobsCompleted(), 1u);
    // One strike marks nm0 Suspect but does not quarantine it yet.
    EXPECT_EQ(gam->quarantines(), 0u);
    EXPECT_FALSE(gam->isQuarantined(nm0Id));
}

// ----- Crash: watchdog, quarantine, sibling re-dispatch, recovery --

TEST_F(FaultFixture, CrashQuarantinesModuleAndRecoversAfterDelay)
{
    cfg.quarantineStrikes = 1;
    cfg.recoveryDelay = 2 * sim::tickPerMs;
    fault::FaultPlan plan;
    plan.scripted.push_back(
        scripted(fault::FaultKind::AccCrash, "nm0"));
    build(plan);

    TaskDesc t = simpleTask("crash", Level::NearMem, "GeMM-ZCU9");
    t.pinnedAcc = nm0Id;
    auto out = submitOne(std::move(t));
    sim.run();

    EXPECT_GT(out->completedAt, 0u);
    EXPECT_EQ(out->failedAt, 0u);
    EXPECT_EQ(gam->deadlineMisses(), 1u);
    EXPECT_EQ(gam->taskRetries(), 1u);
    EXPECT_EQ(gam->quarantines(), 1u);
    EXPECT_EQ(inj->injected(fault::FaultKind::AccCrash), 1u);

    // The recovery timer fired before the queue drained: the module
    // was repaired and rejoined the pool.
    EXPECT_EQ(gam->recoveries(), 1u);
    EXPECT_FALSE(gam->isQuarantined(nm0Id));
    EXPECT_FALSE(nm0->faulted());
    // It spent a nonzero fraction of the run quarantined.
    EXPECT_LT(gam->availability(Level::NearMem), 1.0);
    EXPECT_GT(gam->availability(Level::NearMem), 0.0);
}

TEST_F(FaultFixture, CrossLevelFailoverRemapsKernelTemplate)
{
    cfg.quarantineStrikes = 1;
    fault::FaultPlan plan;
    // Both near-memory modules die on first contact, permanently.
    plan.scripted.push_back(
        scripted(fault::FaultKind::AccCrash, "nm", 0));
    build(plan);

    std::string completed_on;
    gam->setTaskObserver([&](const Gam::TaskEvent &ev) {
        if (ev.kind == Gam::TaskEventKind::Complete)
            completed_on = ev.accName;
    });

    auto out = submitOne(
        simpleTask("remap", Level::NearMem, "GeMM-ZCU9"));
    sim.run();

    // Attempt 1 and 2 kill nm0/nm1; attempt 3 falls back to the
    // on-chip instance with the re-mapped GeMM bitstream.
    EXPECT_GT(out->completedAt, 0u);
    EXPECT_EQ(out->failedAt, 0u);
    EXPECT_EQ(completed_on, "oc");
    EXPECT_GE(gam->failovers(), 1u);
    EXPECT_EQ(gam->quarantines(), 2u);
    EXPECT_TRUE(gam->isQuarantined(nm0Id));
    EXPECT_TRUE(gam->isQuarantined(nm1Id));
    EXPECT_EQ(gam->jobsCompleted(), 1u);
}

TEST_F(FaultFixture, ObserverSeesEveryGamDecision)
{
    // nm0 crashes and nm1 hangs under the same task, so both are
    // quarantined, the third attempt fails over to the on-chip
    // instance, and both modules recover afterwards. Every decision
    // must reach the observer, matching the GAM's own counters.
    cfg.quarantineStrikes = 1;
    cfg.recoveryDelay = 2 * sim::tickPerMs;
    fault::FaultPlan plan;
    plan.scripted.push_back(
        scripted(fault::FaultKind::AccCrash, "nm0"));
    plan.scripted.push_back(
        scripted(fault::FaultKind::AccHang, "nm1"));
    build(plan);

    std::map<Gam::TaskEventKind, std::uint64_t> counts;
    std::vector<Gam::TaskEvent> lost, completed;
    sim::Tick last = 0;
    gam->setTaskObserver([&](const Gam::TaskEvent &ev) {
        EXPECT_GE(ev.observed, last);
        last = ev.observed;
        EXPECT_EQ(ev.observed, sim.now());
        ++counts[ev.kind];
        if (ev.kind == Gam::TaskEventKind::AttemptLost)
            lost.push_back(ev);
        if (ev.kind == Gam::TaskEventKind::Complete)
            completed.push_back(ev);
    });

    auto out = submitOne(
        simpleTask("doomed", Level::NearMem, "GeMM-ZCU9"));
    sim.run();

    ASSERT_GT(out->completedAt, 0u);
    using K = Gam::TaskEventKind;
    EXPECT_EQ(counts[K::Dispatch], gam->tasksDispatched());
    EXPECT_EQ(counts[K::AttemptLost], gam->taskRetries());
    EXPECT_EQ(counts[K::Failover], gam->failovers());
    EXPECT_EQ(counts[K::Quarantine], gam->quarantines());
    EXPECT_EQ(counts[K::Recovered], gam->recoveries());
    EXPECT_EQ(counts[K::Complete], 1u);
    // The scenario reaches every kind.
    EXPECT_EQ(gam->taskRetries(), 2u);
    EXPECT_EQ(gam->failovers(), 1u);
    EXPECT_EQ(gam->quarantines(), 2u);
    EXPECT_EQ(gam->recoveries(), 2u);

    // A lost attempt names its task, device and reason, and carries
    // the tick it was dispatched.
    ASSERT_EQ(lost.size(), 2u);
    EXPECT_EQ(lost[0].accName, "nm0");
    EXPECT_EQ(lost[1].accName, "nm1");
    for (std::size_t i = 0; i < lost.size(); ++i) {
        EXPECT_EQ(lost[i].label, "doomed");
        EXPECT_EQ(lost[i].attempt, i + 1);
        EXPECT_EQ(lost[i].reason, "watchdog deadline missed");
        EXPECT_GT(lost[i].dispatched, 0u);
        EXPECT_LT(lost[i].dispatched, lost[i].observed);
    }

    ASSERT_EQ(completed.size(), 1u);
    const Gam::TaskEvent &done = completed[0];
    EXPECT_EQ(done.accName, "oc");
    EXPECT_EQ(done.attempt, 3u);
    EXPECT_LE(done.dispatched, done.finished);
    EXPECT_LE(done.finished, done.observed);
    EXPECT_GE(done.dispatched, lost[1].observed);
}

TEST_F(FaultFixture, FailoverDisabledFailsJobInstead)
{
    cfg.quarantineStrikes = 1;
    cfg.crossLevelFailover = false;
    fault::FaultPlan plan;
    plan.scripted.push_back(
        scripted(fault::FaultKind::AccCrash, "nm", 0));
    build(plan);

    auto out = submitOne(
        simpleTask("stuck", Level::NearMem, "GeMM-ZCU9"));
    sim.run();

    EXPECT_EQ(out->completedAt, 0u);
    EXPECT_GT(out->failedAt, 0u);
    EXPECT_EQ(gam->jobsFailed(), 1u);
    EXPECT_TRUE(gam->idle());
}

// ----- Budget exhaustion: explicit failure, never a hang -----

TEST_F(FaultFixture, ExhaustedAttemptBudgetFailsJobExplicitly)
{
    cfg.maxTaskAttempts = 2;
    fault::FaultPlan plan;
    plan.accHangProb = 1.0; // every task everywhere hangs
    build(plan);

    auto out = submitOne(
        simpleTask("doomed", Level::NearMem, "GeMM-ZCU9"));
    sim.run(); // must drain — no wedge

    EXPECT_EQ(out->completedAt, 0u);
    EXPECT_GT(out->failedAt, 0u);
    EXPECT_EQ(gam->jobsFailed(), 1u);
    EXPECT_EQ(gam->jobsCompleted(), 0u);
    EXPECT_TRUE(gam->idle());
    EXPECT_GE(gam->deadlineMisses(), 2u);
}

TEST_F(FaultFixture, FailedJobReleasesDependentTasks)
{
    cfg.maxTaskAttempts = 1;
    cfg.quarantineStrikes = 1;
    fault::FaultPlan plan;
    plan.scripted.push_back(
        scripted(fault::FaultKind::AccCrash, "nm", 0));
    plan.scripted.push_back(
        scripted(fault::FaultKind::AccCrash, "oc", 0));
    build(plan);

    // Chain: the root dies everywhere, the dependent never becomes
    // runnable — the job must still fail cleanly and the GAM go idle.
    JobDesc job;
    job.label = "chain";
    job.tasks.push_back(
        simpleTask("root", Level::NearMem, "GeMM-ZCU9"));
    TaskDesc dep = simpleTask("leaf", Level::NearMem, "KNN-ZCU9");
    dep.deps.push_back(0);
    job.tasks.push_back(std::move(dep));
    sim::Tick failed_at = 0;
    job.onFailed = [&](sim::Tick t) { failed_at = t; };
    gam->submitJob(std::move(job));
    sim.run();

    EXPECT_GT(failed_at, 0u);
    EXPECT_TRUE(gam->idle());
    EXPECT_EQ(gam->jobsFailed(), 1u);
}

// ----- Record retention (PR 3 leak pattern regression) -----

TEST_F(FaultFixture, JobRecordsAreReleasedAfterCompletion)
{
    build(fault::FaultPlan{});

    auto sentinel = std::make_shared<int>(42);
    std::weak_ptr<int> watch = sentinel;

    JobDesc job;
    job.label = "sentinel";
    job.tasks.push_back(
        simpleTask("t", Level::NearMem, "GeMM-ZCU9"));
    job.onComplete = [sentinel](sim::Tick) {};
    sentinel.reset();
    ASSERT_FALSE(watch.expired());

    gam->submitJob(std::move(job));
    sim.run();

    // The completed job's record — and with it the captured callback
    // state — must be gone, not retained for the simulator lifetime.
    EXPECT_EQ(gam->jobsCompleted(), 1u);
    EXPECT_TRUE(watch.expired());
}

TEST_F(FaultFixture, JobRecordsAreReleasedAfterFailure)
{
    cfg.maxTaskAttempts = 1;
    fault::FaultPlan plan;
    plan.accHangProb = 1.0;
    build(plan);

    auto sentinel = std::make_shared<int>(7);
    std::weak_ptr<int> watch = sentinel;

    JobDesc job;
    job.label = "sentinel-fail";
    job.tasks.push_back(
        simpleTask("t", Level::NearMem, "GeMM-ZCU9"));
    job.onComplete = [sentinel](sim::Tick) {};
    job.onFailed = [sentinel](sim::Tick) {};
    sentinel.reset();

    gam->submitJob(std::move(job));
    sim.run();

    EXPECT_EQ(gam->jobsFailed(), 1u);
    EXPECT_TRUE(watch.expired());
}

// ----- Hang diagnostics -----

TEST_F(FaultFixture, DumpProgressShowsPendingWork)
{
    build(fault::FaultPlan{});
    submitOne(simpleTask("visible", Level::NearMem, "GeMM-ZCU9"));

    std::ostringstream os;
    gam->dumpProgress(os);
    std::string dump = os.str();
    EXPECT_NE(dump.find("visible"), std::string::npos);
    EXPECT_NE(dump.find("nm0"), std::string::npos);
}

TEST_F(FaultFixture, ReportWedgePanicsWithProgressTable)
{
    build(fault::FaultPlan{});
    submitOne(simpleTask("wedged", Level::NearMem, "GeMM-ZCU9"));
    EXPECT_THROW(gam->reportWedge("test"), sim::SimPanic);
}

// ----- Determinism: same plan + seed => same recovery sequence -----

TEST(FaultDeterminism, IdenticalRunsProduceIdenticalRecovery)
{
    auto run_once = [](std::uint64_t seed) {
        sim::Simulator sim;
        noc::Link dma(sim, "dma", linkCfg(10e9));
        Accelerator nm0(sim, "nm0", Level::NearMem);
        Accelerator nm1(sim, "nm1", Level::NearMem);

        GamConfig cfg;
        Gam gam(sim, "gam", cfg);
        gam.addAccelerator(nm0);
        gam.addAccelerator(nm1);
        gam.setPathProvider(
            [&dma](const Accelerator *, const Accelerator *) {
                return Path{}.via(dma);
            });

        fault::FaultPlan plan;
        plan.seed = seed;
        plan.accCrashProb = 0.2;
        plan.accHangProb = 0.2;
        plan.pollDropProb = 0.3;
        fault::FaultInjector inj(sim, "inj", plan);
        gam.setFaultInjector(&inj);
        nm0.setFaultInjector(&inj);
        nm1.setFaultInjector(&inj);

        std::uint32_t done = 0, failed = 0;
        for (int i = 0; i < 8; ++i) {
            JobDesc job;
            job.label = "j" + std::to_string(i);
            TaskDesc t;
            t.label = "t" + std::to_string(i);
            t.kernelTemplate = "GeMM-ZCU9";
            t.level = Level::NearMem;
            t.work.ops = 1e6;
            job.tasks.push_back(std::move(t));
            job.onComplete = [&done](sim::Tick) { ++done; };
            job.onFailed = [&failed](sim::Tick) { ++failed; };
            gam.submitJob(std::move(job));
        }
        sim.run();

        struct Outcome
        {
            std::uint32_t done, failed;
            std::uint64_t retries, misses, pollRetries;
            sim::Tick end;
        };
        return std::tuple<std::uint32_t, std::uint32_t, std::uint64_t,
                          std::uint64_t, std::uint64_t, sim::Tick>{
            done,
            failed,
            gam.taskRetries(),
            gam.deadlineMisses(),
            gam.pollRetries(),
            sim.now()};
    };

    auto a = run_once(99);
    auto b = run_once(99);
    EXPECT_EQ(a, b);

    // Every submitted job resolved one way or the other.
    EXPECT_EQ(std::get<0>(a) + std::get<1>(a), 8u);
}

// ----- Device-side injection points (link / SSD) -----

TEST(FaultDevices, LinkStallExtendsReservation)
{
    sim::Simulator sim;
    fault::FaultPlan plan;
    plan.linkStallDelay = 5 * sim::tickPerUs;
    plan.scripted.push_back(
        scripted(fault::FaultKind::LinkStall, "bulk", 1));
    fault::FaultInjector inj(sim, "inj", plan);

    noc::Link clean(sim, "clean", linkCfg(10e9));
    noc::Link faulty(sim, "bulk", linkCfg(10e9));
    faulty.setFaultInjector(&inj);

    sim::Tick base = clean.reserve(1 << 20, 0);
    sim::Tick stalled = faulty.reserve(1 << 20, 0);
    EXPECT_EQ(stalled, base + plan.linkStallDelay);
    EXPECT_EQ(faulty.stallsInjected(), 1u);

    // Only the first occurrence was scripted.
    EXPECT_EQ(faulty.reserve(1 << 20, stalled) - stalled,
              clean.reserve(1 << 20, base) - base);
}

TEST(FaultDevices, SsdTimeoutAddsRetryDelay)
{
    sim::Simulator sim;
    storage::SsdConfig scfg;

    fault::FaultPlan plan;
    plan.ssdTimeoutDelay = 2 * sim::tickPerMs;
    plan.scripted.push_back(
        scripted(fault::FaultKind::SsdTimeout, "ssd", 1));
    fault::FaultInjector inj(sim, "inj", plan);

    storage::Ssd clean(sim, "clean", scfg);
    storage::Ssd faulty(sim, "ssd0", scfg);
    faulty.setFaultInjector(&inj);

    sim::Tick base = clean.reserve(1 << 16, false, 0);
    sim::Tick delayed = faulty.reserve(1 << 16, false, 0);
    EXPECT_EQ(delayed, base + plan.ssdTimeoutDelay);
    EXPECT_EQ(faulty.timeoutsInjected(), 1u);
}

TEST(FaultDevices, CrashedAcceleratorStaysDeadUntilRepair)
{
    sim::Simulator sim;
    fault::FaultPlan plan;
    plan.scripted.push_back(
        scripted(fault::FaultKind::AccCrash, "acc", 1));
    fault::FaultInjector inj(sim, "inj", plan);

    Accelerator a(sim, "acc", Level::NearMem);
    a.setFaultInjector(&inj);

    acc::WorkUnit w;
    w.ops = 1e6;
    int completions = 0;
    a.configure(acc::findKernel("GeMM-ZCU9"));
    a.execute(w, [&](sim::Tick) { ++completions; });
    sim.run();
    EXPECT_EQ(completions, 0);
    EXPECT_TRUE(a.faulted());
    EXPECT_EQ(a.faultsInjected(), 1u);

    // Tasks after the crash are also lost (device dead) ...
    a.execute(w, [&](sim::Tick) { ++completions; });
    sim.run();
    EXPECT_EQ(completions, 0);

    // ... until repair() reloads the bitstream.
    a.repair();
    EXPECT_FALSE(a.faulted());
    a.execute(w, [&](sim::Tick) { ++completions; });
    sim.run();
    EXPECT_EQ(completions, 1);
}
