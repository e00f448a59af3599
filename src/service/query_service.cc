#include "query_service.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"

namespace reach::service
{

void
ServiceConfig::validate() const
{
    if (totalRequests == 0)
        sim::fatal("ServiceConfig: totalRequests must be positive");
    if (queueCapacity == 0)
        sim::fatal("ServiceConfig: queueCapacity must be positive");
    if (sloLatency == 0)
        sim::fatal("ServiceConfig: sloLatency must be positive");
    if (formTimeout == 0)
        sim::fatal("ServiceConfig: formTimeout must be positive");
    if (maxInFlight == 0)
        sim::fatal("ServiceConfig: maxInFlight must be positive");
    if (retryBackoff == 0)
        sim::fatal("ServiceConfig: retryBackoff must be positive");
    if (!(lowWatermark > 0) || !(highWatermark > lowWatermark) ||
        !(highWatermark <= 1)) {
        sim::fatal("ServiceConfig: watermarks must satisfy 0 < low < "
                   "high <= 1, got ", lowWatermark, " / ",
                   highWatermark);
    }
    if (hysteresisEvals == 0)
        sim::fatal("ServiceConfig: hysteresisEvals must be positive");
    arrival.validate();
}

bool
ServiceResult::operator==(const ServiceResult &o) const
{
    return submitted == o.submitted && completed == o.completed &&
           failed == o.failed && shedQueueFull == o.shedQueueFull &&
           shedDeadline == o.shedDeadline &&
           goodRequests == o.goodRequests && sloMisses == o.sloMisses &&
           batchesSubmitted == o.batchesSubmitted &&
           batchesCompleted == o.batchesCompleted &&
           batchesFailed == o.batchesFailed &&
           batchesRetried == o.batchesRetried &&
           degradedBatches == o.degradedBatches &&
           maxDegradeLevel == o.maxDegradeLevel &&
           timeDegraded == o.timeDegraded && makespan == o.makespan &&
           p50 == o.p50 && p95 == o.p95 && p99 == o.p99 &&
           p999 == o.p999 && maxLatency == o.maxLatency &&
           meanLatency == o.meanLatency;
}

std::vector<cbir::ScaleConfig>
degradeLadder(const cbir::ScaleConfig &base, std::uint32_t levels)
{
    std::vector<cbir::ScaleConfig> ladder;
    ladder.push_back(base);
    std::uint32_t n = std::min<std::uint32_t>(levels, 3);

    if (n >= 1) {
        cbir::ScaleConfig l1 = ladder.back();
        l1.centroidBytesPerDim = 2;
        ladder.push_back(l1);
    }
    if (n >= 2) {
        cbir::ScaleConfig l2 = ladder.back();
        l2.nprobe = std::max<std::uint32_t>(1, l2.nprobe / 2);
        ladder.push_back(l2);
    }
    if (n >= 3) {
        cbir::ScaleConfig l3 = ladder.back();
        if (l3.pq.enabled) {
            l3.pq.refine = l3.pq.refine / 4;
        } else {
            l3.rerankCandidates = std::max(
                l3.topK, l3.rerankCandidates / 2);
        }
        ladder.push_back(l3);
    }
    return ladder;
}

QueryService::QueryService(core::ReachSystem &system,
                           const cbir::ScaleConfig &scale,
                           core::Mapping mapping,
                           const ServiceConfig &config)
    : sim::SimObject(system.simulator(), "service"),
      sys(system), map(mapping), cfg(config),
      batchSize(scale.batchSize),
      arrivals(cfg.arrival),
      ladder(degradeLadder(scale, cfg.degrade ? 3 : 0)),
      estBatchLatency(cfg.initialLatencyEstimate),
      latency("latency", "completed-request latency percentiles")
{
    cfg.validate();
    for (const cbir::ScaleConfig &lvl : ladder) {
        deployments.push_back(std::make_unique<core::CbirDeployment>(
            sys, cbir::CbirWorkloadModel(lvl), map));
    }
    reqs.resize(cfg.totalRequests);
}

ServiceResult
QueryService::run()
{
    if (started)
        sim::fatal("QueryService::run: service already ran");
    started = true;

    t0 = now();
    lastEvent = t0;
    levelSince = t0;
    scheduleIn(arrivals.nextInterarrival(), [this] { onArrival(); },
               sim::EventPriority::Default, "service.arrival");

    sys.simulator().runUntil(
        [this] { return accountedReqs == cfg.totalRequests; });

    if (accountedReqs != cfg.totalRequests)
        reportWedge("QueryService::run");

    // Close out the time-in-degraded-mode accumulator.
    if (level > 0) {
        degradedTicks += lastEvent - levelSince;
        levelSince = lastEvent;
    }

    ServiceResult r;
    r.submitted = generated;
    r.completed = completedReqs;
    r.failed = failedReqs;
    r.shedQueueFull = shedQueueFull;
    r.shedDeadline = shedDeadline;
    r.goodRequests = goodReqs;
    r.sloMisses = sloMisses;
    r.batchesSubmitted = batchesSubmitted;
    r.batchesCompleted = batchesCompleted;
    r.batchesFailed = batchesFailed;
    r.batchesRetried = batchesRetried;
    r.degradedBatches = degradedBatches;
    r.maxDegradeLevel = maxLevel;
    r.timeDegraded = degradedTicks;
    r.makespan = lastEvent - t0;
    if (latency.count() > 0) {
        r.p50 = latency.p50();
        r.p95 = latency.p95();
        r.p99 = latency.p99();
        r.p999 = latency.p999();
        r.maxLatency = latency.maxValue();
        r.meanLatency = latency.mean();
    }
    return r;
}

void
QueryService::onArrival()
{
    std::uint64_t id = generated++;
    reqs[id].arrival = now();

    // Open-loop: the next arrival is scheduled unconditionally,
    // before admission — a busy machine never slows the stream.
    if (generated < cfg.totalRequests) {
        scheduleIn(arrivals.nextInterarrival(), [this] { onArrival(); },
                   sim::EventPriority::Default, "service.arrival");
    }

    if (queue.size() >= cfg.queueCapacity) {
        // Admission control: reject on the spot instead of growing an
        // unbounded queue (explicit shed, never a silent hang).
        terminate(id, ReqState::ShedQueueFull, now());
        return;
    }
    reqs[id].state = ReqState::Queued;
    queue.push_back(id);
    pump();
}

void
QueryService::dropExpiredFront()
{
    while (!queue.empty() && deadlineOf(queue.front()) < now()) {
        std::uint64_t id = queue.front();
        queue.pop_front();
        terminate(id, ReqState::ShedDeadline, now());
    }
}

void
QueryService::pump()
{
    dropExpiredFront();
    while (inFlight < cfg.maxInFlight && !queue.empty()) {
        bool full = queue.size() >= batchSize;
        if (!full && !timeoutPending)
            break;
        timeoutPending = false;
        closeBatch(full ? batchSize : queue.size());
        dropExpiredFront();
    }
    // A ripe timeout with every slot busy stays pending and the next
    // batch completion re-enters the pump; an emptied queue owes
    // nothing.
    if (queue.empty())
        timeoutPending = false;
    armFormTimer();
}

void
QueryService::armFormTimer()
{
    if (queue.empty()) {
        // Disarm: a stale timer observes the bumped sequence number.
        ++formTimerSeq;
        timerFront = ~std::uint64_t(0);
        return;
    }
    if (timeoutPending) {
        // A close is already owed (the timer fired while every
        // in-flight slot was busy); the next completion's pump
        // consumes it — re-arming here would spin at the same tick.
        return;
    }
    std::uint64_t front = queue.front();
    if (front == timerFront)
        return; // Already armed for this oldest request.

    timerFront = front;
    std::uint64_t seq = ++formTimerSeq;

    // Deadline-aware close: ship no later than formTimeout after the
    // oldest arrival, pulled earlier when the oldest request's SLO
    // deadline minus the current service-latency estimate comes
    // first.
    sim::Tick byTimeout = reqs[front].arrival + cfg.formTimeout;
    sim::Tick dl = deadlineOf(front);
    sim::Tick byDeadline =
        dl > estBatchLatency ? dl - estBatchLatency : now();
    sim::Tick closeAt = std::max(now(),
                                 std::min(byTimeout, byDeadline));
    schedule(closeAt, [this, seq] {
        if (seq != formTimerSeq)
            return; // Stale: the front changed since arming.
        timerFront = ~std::uint64_t(0);
        timeoutPending = true;
        pump();
    }, sim::EventPriority::Default, "service.formTimer");
}

void
QueryService::closeBatch(std::size_t count)
{
    evaluateController();

    auto batch = std::make_shared<Batch>();
    batch->level = level;
    batch->closedAt = now();
    batch->deadline = sim::maxTick;
    for (std::size_t i = 0; i < count; ++i) {
        std::uint64_t id = queue.front();
        queue.pop_front();
        reqs[id].state = ReqState::InFlight;
        batch->members.push_back(id);
        batch->deadline = std::min(batch->deadline, deadlineOf(id));
    }
    timerFront = ~std::uint64_t(0);
    submitBatch(batch);
}

void
QueryService::submitBatch(const std::shared_ptr<Batch> &batch)
{
    ++inFlight;
    ++batchesSubmitted;
    if (batch->level > 0)
        ++degradedBatches;

    gam::JobDesc job = deployments[batch->level]->makeBatchJob(
        static_cast<std::uint32_t>(batchSeq++),
        [this, batch](sim::Tick at) { batchDone(batch, at); },
        [this, batch](sim::Tick at) { batchFailed(batch, at); });
    // EDF hint: the most urgent member request sets the job deadline.
    job.deadline = batch->deadline;
    sys.gam().submitJob(std::move(job));
}

void
QueryService::batchDone(const std::shared_ptr<Batch> &batch,
                        sim::Tick at)
{
    --inFlight;
    ++batchesCompleted;
    for (std::uint64_t id : batch->members)
        terminate(id, ReqState::Completed, at);

    // EWMA service-latency estimate for the deadline-aware close.
    sim::Tick observed = at - batch->closedAt;
    estBatchLatency = (3 * estBatchLatency + observed) / 4;

    evaluateController();
    pump();
}

void
QueryService::batchFailed(const std::shared_ptr<Batch> &batch,
                          sim::Tick at)
{
    --inFlight;
    if (batch->attempts < cfg.maxBatchRetries) {
        ++batch->attempts;
        ++batchesRetried;
        // Exponential backoff; retries bypass the in-flight window so
        // recovery work cannot be starved by fresh load.
        sim::Tick backoff = cfg.retryBackoff
                            << (batch->attempts - 1);
        scheduleIn(backoff, [this, batch] {
            // Re-stamp at the current quality level: a batch retried
            // under overload should also shed quality.
            batch->level = level;
            batch->closedAt = now();
            submitBatch(batch);
        }, sim::EventPriority::Default, "service.retry");
        pump();
        return;
    }
    ++batchesFailed;
    for (std::uint64_t id : batch->members)
        terminate(id, ReqState::Failed, at);
    evaluateController();
    pump();
}

void
QueryService::evaluateController()
{
    if (!cfg.degrade)
        return;
    double occupancy = static_cast<double>(queue.size()) /
                       cfg.queueCapacity;
    if (occupancy >= cfg.highWatermark) {
        calmEvals = 0;
        if (level < numDegradeLevels())
            stepLevel(level + 1);
    } else if (occupancy <= cfg.lowWatermark) {
        if (level > 0 && ++calmEvals >= cfg.hysteresisEvals) {
            calmEvals = 0;
            stepLevel(level - 1);
        }
    } else {
        calmEvals = 0;
    }
}

void
QueryService::stepLevel(std::uint32_t to)
{
    if (level > 0)
        degradedTicks += now() - levelSince;
    levelSince = now();
    level = to;
    maxLevel = std::max(maxLevel, level);
}

void
QueryService::terminate(std::uint64_t id, ReqState state, sim::Tick at)
{
    reqs[id].state = state;
    ++accountedReqs;
    lastEvent = std::max(lastEvent, at);
    switch (state) {
      case ReqState::Completed: {
        ++completedReqs;
        sim::Tick lat = at - reqs[id].arrival;
        latency.sample(lat);
        if (lat <= cfg.sloLatency)
            ++goodReqs;
        else
            ++sloMisses;
        break;
      }
      case ReqState::Failed:
        ++failedReqs;
        break;
      case ReqState::ShedQueueFull:
        ++shedQueueFull;
        break;
      case ReqState::ShedDeadline:
        ++shedDeadline;
        break;
      default:
        sim::panic("QueryService: request ", id,
                   " terminated into non-terminal state");
    }
}

namespace
{

const char *
reqStateName(int s)
{
    switch (s) {
      case 0: return "unborn";
      case 1: return "queued";
      case 2: return "in-flight";
      case 3: return "completed";
      case 4: return "failed";
      case 5: return "shed-queue-full";
      case 6: return "shed-deadline";
    }
    return "?";
}

} // namespace

void
QueryService::dumpRequests(std::ostream &os) const
{
    os << "QueryService state: generated " << generated << "/"
       << cfg.totalRequests << ", accounted " << accountedReqs
       << ", queue depth " << queue.size() << "/" << cfg.queueCapacity
       << ", in-flight batches " << inFlight << ", degrade level "
       << level << "\n";
    std::uint64_t shown = 0;
    for (std::uint64_t id = 0; id < generated; ++id) {
        ReqState s = reqs[id].state;
        if (s == ReqState::Completed || s == ReqState::Failed ||
            s == ReqState::ShedQueueFull ||
            s == ReqState::ShedDeadline) {
            continue;
        }
        os << "  req " << id << ": " << reqStateName(int(s))
           << " arrival=" << reqs[id].arrival
           << " deadline=" << deadlineOf(id) << "\n";
        ++shown;
    }
    if (shown == 0)
        os << "  (no unterminated requests)\n";
}

void
QueryService::reportWedge(const std::string &who) const
{
    std::ostringstream os;
    os << who << ": event queue drained with "
       << cfg.totalRequests - accountedReqs
       << " request(s) unaccounted — the service wedged.\n";
    dumpRequests(os);
    os << "GAM state:\n";
    sys.gam().dumpProgress(os);
    sim::panic(os.str());
}

} // namespace reach::service
