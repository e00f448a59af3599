/**
 * @file
 * Open-loop asynchronous query service over the simulated hierarchy.
 *
 * Closed-loop runs (CbirDeployment::run) submit pre-formed batches
 * back-to-back, so they measure capacity but never arrival-rate
 * pressure. QueryService is the missing front-end, driven entirely
 * inside the DES:
 *
 *   arrivals -> bounded queue -> batch former -> GAM jobs
 *                  |                 |
 *              admission        degradation
 *               control          controller
 *
 *  - An ArrivalProcess (Poisson / bursty MMPP / trace) generates
 *    requests open-loop: the stream does not slow down because the
 *    machine is busy.
 *  - Admission control sheds load explicitly: a request arriving at
 *    a full queue is rejected on the spot, and a queued request
 *    whose SLO deadline has already passed is dropped at batch
 *    formation instead of wasting machine time. Every submitted
 *    request terminates in exactly one of {completed, failed, shed}.
 *  - The deadline-aware batch former closes a batch when batchSize
 *    requests are waiting, or when the oldest request has waited
 *    formTimeout — pulled earlier when its SLO deadline minus the
 *    current service-latency estimate comes first. Partial batches
 *    are padded to the configured batch shape (the job charges the
 *    full-batch work, like production batchers padding a tensor).
 *  - The overload controller watches queue occupancy at batch
 *    close/completion events and degrades gracefully: each level
 *    steps down quality knobs that already exist (fp16 shortlist
 *    scan, then probe count, then PQ refine / candidate budget)
 *    before any request is rejected, and steps back up only after
 *    hysteresisEvals consecutive calm observations (hysteresis
 *    against flapping).
 *  - Batches the GAM abandons (fault-recovery budget exhausted,
 *    PR 4) are retried with exponential backoff up to
 *    maxBatchRetries, then every member request is reported as an
 *    explicit failure.
 *
 * Determinism: arrivals draw from sim::Rng in event order inside the
 * owning Simulator, and every controller decision happens at a DES
 * event, so a config reproduces bitwise-identical ServiceResults at
 * any sweep --jobs count.
 */

#ifndef REACH_SERVICE_QUERY_SERVICE_HH
#define REACH_SERVICE_QUERY_SERVICE_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <vector>

#include "core/cbir_deployment.hh"
#include "service/arrival.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace reach::service
{

struct ServiceConfig
{
    ArrivalConfig arrival{};

    /** Requests the arrival process generates before stopping. */
    std::uint64_t totalRequests = 256;

    /** Bounded request queue; arrivals beyond this are shed. */
    std::uint32_t queueCapacity = 64;

    /** Per-request latency SLO (also the deadline for drops). */
    sim::Tick sloLatency = 50 * sim::tickPerMs;

    /** Max wait of the oldest queued request before a partial batch
     *  ships anyway. */
    sim::Tick formTimeout = 2 * sim::tickPerMs;

    /** Seed of the batch-latency EWMA the deadline-aware close uses
     *  before the first completion calibrates it. */
    sim::Tick initialLatencyEstimate = 5 * sim::tickPerMs;

    /** Batches in flight through the GAM (stream depth). */
    std::uint32_t maxInFlight = 4;

    /** Re-submissions of a GAM-failed batch before its requests are
     *  reported failed. */
    std::uint32_t maxBatchRetries = 2;

    /** Base retry delay; doubles per attempt (exponential backoff). */
    sim::Tick retryBackoff = 500 * sim::tickPerUs;

    /** Overload-degradation controller on/off (the A/B knob): on,
     *  the three-level degradeLadder(); off, full quality only. */
    bool degrade = true;

    /** Queue occupancy (fraction) that steps quality down a level. */
    double highWatermark = 0.75;

    /** Occupancy below which an evaluation counts as calm. */
    double lowWatermark = 0.25;

    /** Consecutive calm evaluations before stepping quality back up. */
    std::uint32_t hysteresisEvals = 4;

    /** Fatal on malformed values. */
    void validate() const;
};

/** Everything one open-loop run reports. */
struct ServiceResult
{
    // ----- Request accounting (the no-silent-drop invariant) -----
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedDeadline = 0;

    /** Completed within / beyond the SLO. */
    std::uint64_t goodRequests = 0;
    std::uint64_t sloMisses = 0;

    // ----- Batch-level accounting -----
    std::uint64_t batchesSubmitted = 0; ///< incl. retry submissions
    std::uint64_t batchesCompleted = 0;
    std::uint64_t batchesFailed = 0;
    std::uint64_t batchesRetried = 0;
    /** Submissions that ran below full quality (retries included). */
    std::uint64_t degradedBatches = 0;

    std::uint32_t maxDegradeLevel = 0;
    /** Ticks spent at any degrade level > 0. */
    sim::Tick timeDegraded = 0;

    /** First arrival scheduling to last request termination. */
    sim::Tick makespan = 0;

    // ----- Completed-request latency (exact percentiles) -----
    sim::Tick p50 = 0, p95 = 0, p99 = 0, p999 = 0;
    sim::Tick maxLatency = 0;
    double meanLatency = 0;

    std::uint64_t shedTotal() const
    {
        return shedQueueFull + shedDeadline;
    }

    /** Every submitted request terminated explicitly. */
    bool
    accounted() const
    {
        return completed + failed + shedTotal() == submitted;
    }

    double
    offeredQps() const
    {
        if (makespan == 0)
            return 0;
        return static_cast<double>(submitted) /
               sim::secondsFromTicks(makespan);
    }

    /** Goodput under SLO: completed-within-deadline requests/s. */
    double
    goodputQps() const
    {
        if (makespan == 0)
            return 0;
        return static_cast<double>(goodRequests) /
               sim::secondsFromTicks(makespan);
    }

    double
    completedQps() const
    {
        if (makespan == 0)
            return 0;
        return static_cast<double>(completed) /
               sim::secondsFromTicks(makespan);
    }

    /** Field-exact equality (the --jobs determinism gate). */
    bool operator==(const ServiceResult &o) const;
    bool operator!=(const ServiceResult &o) const
    {
        return !(*this == o);
    }
};

/**
 * The quality ladder: level 0 is the base scale, each deeper level
 * additionally steps one existing knob down —
 *   1: fp16 shortlist scan (centroidBytesPerDim 4 -> 2),
 *   2: probe count halved (nprobe, min 1),
 *   3: PQ exact-refine budget quartered when PQ is on, else the
 *      rerank candidate budget halved (min topK).
 * Returned size is levels+1, capped at the 3 defined steps.
 */
std::vector<cbir::ScaleConfig>
degradeLadder(const cbir::ScaleConfig &base, std::uint32_t levels);

class QueryService : public sim::SimObject
{
  public:
    /**
     * @param system  The simulated machine (owns the Simulator).
     * @param scale   Full-quality workload scale; batchSize is the
     *                batch former's target.
     * @param mapping Stage-to-level assignment for every batch job.
     */
    QueryService(core::ReachSystem &system,
                 const cbir::ScaleConfig &scale, core::Mapping mapping,
                 const ServiceConfig &cfg);

    /**
     * Generate cfg.totalRequests arrivals and simulate until every
     * request has terminated explicitly. Panics with the dumped
     * request table + GAM progress table if the event queue drains
     * first (a wedge can only be a bug, never a report).
     */
    ServiceResult run();

    /** Unterminated requests + queue/controller state (diagnostics). */
    void dumpRequests(std::ostream &os) const;

    /**
     * The service-layer wedge diagnostic: panics with dumpRequests()
     * and the GAM progress table.
     */
    [[noreturn]] void reportWedge(const std::string &who) const;

    const ServiceConfig &config() const { return cfg; }
    std::uint32_t currentDegradeLevel() const { return level; }
    std::uint32_t numDegradeLevels() const
    {
        return static_cast<std::uint32_t>(ladder.size()) - 1;
    }
    /** The effective scale at one degrade level (tests, benches). */
    const cbir::ScaleConfig &scaleAt(std::uint32_t lvl) const
    {
        return ladder.at(lvl);
    }

  private:
    enum class ReqState : std::uint8_t
    {
        Unborn,
        Queued,
        InFlight,
        Completed,
        Failed,
        ShedQueueFull,
        ShedDeadline,
    };

    struct ReqRec
    {
        sim::Tick arrival = 0;
        ReqState state = ReqState::Unborn;
    };

    struct Batch
    {
        std::vector<std::uint64_t> members;
        std::uint32_t level = 0;
        std::uint32_t attempts = 0;
        sim::Tick closedAt = 0;
        sim::Tick deadline = 0;
    };

    void onArrival();
    /** Drop queued requests that can no longer meet their deadline. */
    void dropExpiredFront();
    /**
     * The batch-former pump: close size- or timeout-ripe batches
     * while an in-flight slot is free, then (re-)arm the form timer.
     */
    void pump();
    void armFormTimer();
    void closeBatch(std::size_t count);
    void submitBatch(const std::shared_ptr<Batch> &batch);
    void batchDone(const std::shared_ptr<Batch> &batch, sim::Tick at);
    void batchFailed(const std::shared_ptr<Batch> &batch,
                     sim::Tick at);
    /** Step the degradation controller at a batch event. */
    void evaluateController();
    void stepLevel(std::uint32_t to);
    void terminate(std::uint64_t id, ReqState state, sim::Tick at);

    sim::Tick deadlineOf(std::uint64_t id) const
    {
        return reqs[id].arrival + cfg.sloLatency;
    }

    core::ReachSystem &sys;
    core::Mapping map;
    ServiceConfig cfg;
    std::uint32_t batchSize;

    ArrivalProcess arrivals;
    std::vector<cbir::ScaleConfig> ladder;
    /** One deployment per quality level, over the same system. */
    std::vector<std::unique_ptr<core::CbirDeployment>> deployments;

    std::vector<ReqRec> reqs;
    std::deque<std::uint64_t> queue;

    bool started = false;
    std::uint64_t generated = 0;
    std::uint64_t accountedReqs = 0;
    std::uint64_t completedReqs = 0;
    std::uint64_t failedReqs = 0;
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedDeadline = 0;
    std::uint64_t goodReqs = 0;
    std::uint64_t sloMisses = 0;

    std::uint32_t inFlight = 0;
    std::uint64_t batchSeq = 0;
    std::uint64_t batchesSubmitted = 0;
    std::uint64_t batchesCompleted = 0;
    std::uint64_t batchesFailed = 0;
    std::uint64_t batchesRetried = 0;
    std::uint64_t degradedBatches = 0;

    /** Timeout-close owed because every slot was busy when it fired. */
    bool timeoutPending = false;
    std::uint64_t formTimerSeq = 0;
    /** Queue front the armed timer was computed for (~0 = none). */
    std::uint64_t timerFront = ~std::uint64_t(0);

    sim::Tick estBatchLatency;
    std::uint32_t level = 0;
    std::uint32_t maxLevel = 0;
    std::uint32_t calmEvals = 0;
    sim::Tick levelSince = 0;
    sim::Tick degradedTicks = 0;

    sim::Tick t0 = 0;
    sim::Tick lastEvent = 0;
    sim::PercentileRecorder latency;
};

} // namespace reach::service

#endif // REACH_SERVICE_QUERY_SERVICE_HH
