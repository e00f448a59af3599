#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <sys/resource.h>
#include <unistd.h>

#include "cbir/kmeans.hh"
#include "cbir/rerank.hh"
#include "cbir/shortlist.hh"
#include "energy/energy_model.hh"
#include "sim/stats.hh"
#include "simd/simd.hh"
#include "trace.hh"

namespace perfbench
{

using namespace reach;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Nearest-rank percentile of @p v (0 < p <= 100). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double
minOf(const std::vector<double> &v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double
maxOf(const std::vector<double> &v)
{
    return v.empty() ? 0 : *std::max_element(v.begin(), v.end());
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

constexpr std::uint32_t kBatch = 16;
/** Perturbation added to dataset vectors to form queries. */
constexpr double kQueryNoise = 0.5;
/**
 * Batches in the query pool the timed loop passes over. 1024 batches
 * leave ten beyond the p99.
 */
constexpr std::size_t kPoolBatches = 1024;
/**
 * Fewest timed passes of an engine-timed workload, and timed passes
 * per set-up. On a noisy host a batch can be slowed in most passes;
 * the more passes, the less such batches reach the p99, so set-up,
 * the longer step, runs only before every second pass.
 */
constexpr std::size_t kMinEnginePasses = 8;
constexpr std::size_t kPassesPerSetup = 2;
/**
 * A simulator-timed workload makes two engine passes back to back
 * after every kRunsPerEnginePair-th stream run: at least 12 passes
 * over its 25 or more stream runs. A stream run evicts the engine's
 * data from the caches, and a 32-batch warm-up brings back only what
 * those batches touch; the second pass of a pair finds all of it warm,
 * as the passes of an engine-timed workload do.
 */
constexpr std::size_t kRunsPerEnginePair = 4;
/** Queries scored against exhaustive search for recall. */
constexpr std::size_t kRecallQueries = 2000;
/** Closed-loop batches behind sim_capacity_qps. */
constexpr std::uint32_t kCapacityBatches = 64;

cbir::Matrix
drawQueries(const workload::Dataset &data, const WorkloadSpec &w,
            std::size_t count, std::uint64_t seed)
{
    if (w.queryZipfS > 0)
        return data.makeQueriesZipf(count, kQueryNoise, seed, w.queryZipfS);
    return data.makeQueries(count, kQueryNoise, seed);
}

std::vector<cbir::Matrix>
toBatches(const cbir::Matrix &q)
{
    std::vector<cbir::Matrix> out;
    for (std::size_t r0 = 0; r0 + kBatch <= q.rows(); r0 += kBatch) {
        cbir::Matrix b(kBatch, q.cols());
        for (std::size_t r = 0; r < kBatch; ++r) {
            auto src = q.row(r0 + r);
            std::copy(src.begin(), src.end(), b.row(r).begin());
        }
        out.push_back(std::move(b));
    }
    return out;
}

/**
 * Queries in @p res that are not a valid answer: fewer than @p k
 * neighbours, an id outside the database, or distances that are not
 * finite and ascending.
 */
std::uint64_t
invalidAnswers(const cbir::RerankResults &res, std::size_t k,
               std::size_t db_size)
{
    std::uint64_t bad = 0;
    for (const auto &nn : res) {
        bool ok = nn.size() == k;
        for (std::size_t i = 0; ok && i < nn.size(); ++i) {
            ok = nn[i].id < db_size && std::isfinite(nn[i].distSq) &&
                 (i == 0 || nn[i - 1].distSq <= nn[i].distSq);
        }
        bad += ok ? 0 : 1;
    }
    return bad;
}

/** Reported distances must be the exact squared L2 distances. */
bool
distancesExact(const cbir::Matrix &q, const cbir::Matrix &db,
               const cbir::RerankResults &res)
{
    for (std::size_t i = 0; i < res.size(); ++i) {
        for (const cbir::Neighbor &n : res[i]) {
            double d = 0;
            auto a = q.row(i);
            auto b = db.row(n.id);
            for (std::size_t j = 0; j < a.size(); ++j) {
                double diff = double(a[j]) - double(b[j]);
                d += diff * diff;
            }
            if (std::abs(d - n.distSq) > 1e-3 * std::max(1.0, d))
                return false;
        }
    }
    return true;
}

// ------------------------------------------------------------------
// Host functional engine
//
// The shared host drifts: for tens of seconds at a time every
// configuration runs 10-50% slower. Interference only ever slows a
// measurement down, so each host-time estimator below is the fastest
// of several samples spread through the run (the minimum set-up, the
// best pass, each batch's fastest pass), not a median that a slow
// phase covering half the samples moves.

struct EngineRun
{
    std::vector<double> setupS;
    /**
     * Per pool batch: its fastest latency over the passes. Allocated
     * once, so the passes allocate nothing of the benchmark's own
     * that could fragment the heap between the library's buffers.
     */
    std::vector<double> fastestBatchMs;
    double totalBatchMs = 0;
    std::vector<double> passQps;
    std::uint64_t batchesRun = 0;
    std::uint64_t queries = 0;
    std::uint64_t invalid = 0;
    double recall = 0;
    double workingSetMb = 0;
    /** Peak RSS of the process before the recall check. */
    double peakRssMb = 0;
};

/** Seed of the recall query set: disjoint from the timed queries. */
std::uint64_t
recallSeed(std::uint64_t seed)
{
    return seed ^ 0x5eed0f0ecae11ull;
}

/** Untimed calls that bring the index and code back into cache. */
template <typename Answer>
void
warmUp(const std::vector<cbir::Matrix> &batches, Answer &&answer)
{
    const std::size_t n = std::min<std::size_t>(batches.size(), 32);
    for (std::size_t b = 0; b < n; ++b)
        answer(batches[b], -1);
}

/**
 * One timed pass of a closed loop of one caller over the pool
 * @p batches: records each batch's latency and the pass throughput.
 * @p answer gets the batch and its id across passes.
 */
template <typename Answer>
void
timedPass(const std::vector<cbir::Matrix> &batches, std::size_t k,
          std::size_t db_size, EngineRun &out, Answer &&answer)
{
    if (out.fastestBatchMs.empty())
        out.fastestBatchMs.assign(batches.size(),
                                  std::numeric_limits<double>::infinity());
    const std::size_t pass = out.passQps.size();
    auto pass_start = Clock::now();
    for (std::size_t b = 0; b < batches.size(); ++b) {
        auto tb = Clock::now();
        cbir::RerankResults res = answer(
            batches[b], static_cast<std::int64_t>(pass * batches.size() + b));
        auto te = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(te - tb).count();
        out.fastestBatchMs[b] = std::min(out.fastestBatchMs[b], ms);
        out.totalBatchMs += ms;
        out.invalid += invalidAnswers(res, k, db_size);
    }
    out.batchesRun += batches.size();
    out.queries += batches.size() * kBatch;
    out.passQps.push_back(double(batches.size() * kBatch) /
                          secondsSince(pass_start));
}

/**
 * p-th percentile over the pool of each batch's fastest latency
 * across passes. A stall on the shared host hits a batch in one pass,
 * not in all of them, so the tail reflects the batches' own work.
 */
double
batchLatencyPercentile(const EngineRun &run, double p)
{
    return percentile(run.fastestBatchMs, p);
}

double
engineWorkingSetMb(const core::CbirService &svc)
{
    const auto &ivf = svc.index();
    double bytes = static_cast<double>(svc.dataset().vectors().bytes()) +
                   static_cast<double>(ivf.centroids().bytes()) +
                   4.0 * static_cast<double>(ivf.totalIds());
    for (std::size_t c = 0; c < ivf.numClusters(); ++c)
        bytes += static_cast<double>(ivf.clusterPackedCodes(c).size() +
                                     ivf.clusterCodes(c).size());
    return bytes / (1024.0 * 1024.0);
}

/**
 * The untraced engine: a CbirService over the workload's fixture and a
 * pool of query batches drawn from the seed. Its caller decides when
 * to set it up again and when to make a timed pass, so the samples can
 * be spread through the run.
 */
class EngineSession
{
  public:
    EngineSession(const WorkloadSpec &w, EngineRun &out) : w_(w), out_(out)
    {
        setUp();
        out_.workingSetMb = engineWorkingSetMb(*svc_);
        batches_ = toBatches(drawQueries(svc_->dataset(), w_,
                                         kPoolBatches * kBatch, w_.seed));
    }

    /** Construct a fresh CbirService and record its set-up time. */
    void
    setUp()
    {
        svc_.reset();
        auto t0 = Clock::now();
        svc_ = std::make_unique<core::CbirService>(w_.engine);
        out_.setupS.push_back(secondsSince(t0));
    }

    /** Untimed warm-up, then one timed pass over the pool. */
    void
    pass()
    {
        auto answer = [&](const cbir::Matrix &q, std::int64_t) {
            return svc_->query(q);
        };
        warmUp(batches_, answer);
        timedPass(batches_, w_.engine.topK, svc_->dataset().size(), out_,
                  answer);
    }

    /** Check the answers and measure recall, outside any timing. */
    void
    finish(std::vector<std::string> &problems)
    {
        out_.peakRssMb = peakRssMb();
        if (out_.invalid > 0)
            problems.push_back(std::to_string(out_.invalid) +
                               " engine answers were incomplete or invalid");

        const cbir::Matrix &db = svc_->dataset().vectors();
        const std::size_t k = w_.engine.topK;
        cbir::Matrix rq = drawQueries(svc_->dataset(), w_, kRecallQueries,
                                      recallSeed(w_.seed));
        cbir::RerankResults got = svc_->query(rq);
        // Ground truth is untimed, so it may use every core.
        cbir::RerankResults truth = cbir::bruteForce(rq, db, k);
        out_.recall = cbir::recallAtK(got, truth, k);
        if (invalidAnswers(got, k, db.rows()) != 0 ||
            !distancesExact(rq, db, got))
            problems.push_back("recall-set answers carry wrong distances");
        if (!distancesExact(rq, db, truth))
            problems.push_back("exhaustive search distances are wrong");
        if (!(out_.recall >= 0.5))
            problems.push_back("recall@10 below 0.5");
    }

  private:
    const WorkloadSpec &w_;
    EngineRun &out_;
    std::unique_ptr<core::CbirService> svc_;
    std::vector<cbir::Matrix> batches_;
};

/**
 * Engine-timed run: a fresh set-up before every kPassesPerSetup-th
 * timed pass, for @p seconds and at least kMinEnginePasses passes,
 * then recall.
 */
void
runEngine(const WorkloadSpec &w, double seconds, EngineRun &out,
          std::vector<std::string> &problems)
{
    EngineSession eng(w, out);
    auto t0 = Clock::now();
    for (std::size_t pass = 0;; ++pass) {
        if (pass > 0 && pass % kPassesPerSetup == 0)
            eng.setUp();
        eng.pass();
        if (pass + 1 >= kMinEnginePasses && secondsSince(t0) >= seconds)
            break;
    }
    eng.finish(problems);
}

/** Per-layer figures of the traced engine run. */
struct TracedEngine
{
    std::map<std::string, LayerTime> layers;
    /** Mean wall time per batch of the untraced and traced passes. */
    double untracedBatchMs = 0;
    double tracedBatchMs = 0;
    /** Shortlist + rerank span time over the traced batches' wall time. */
    double spanCoverage = 0;
    double candidatesPerQuery = 0;
    double distinctProbeFrac = 0;
    double shortlistBytesPerBatch = 0;
};

double
meanBatchMs(const EngineRun &run)
{
    return ratio(run.totalBatchMs, double(run.batchesRun));
}

/**
 * Traced engine run: the layers are called one at a time from here,
 * each call wrapped in a span, and the results are checked bit for bit
 * against CbirService::query.
 */
void
runEngineTraced(const WorkloadSpec &w, double seconds, SpanRecorder &rec,
                TracedEngine &out,
                std::vector<std::string> &problems)
{
    const core::CbirService::Config &e = w.engine;
    std::optional<workload::Dataset> data;
    std::optional<cbir::InvertedFileIndex> ivf;
    {
        ScopedSpan setup(rec, "setup");
        {
            ScopedSpan s(rec, "workload.dataset");
            data.emplace(e.dataset);
        }
        cbir::KMeansResult km;
        {
            ScopedSpan s(rec, "cbir.kmeans");
            km = cbir::kMeans(data->vectors(), e.kmeans);
        }
        {
            ScopedSpan s(rec, "cbir.ivf_build");
            ivf.emplace(std::move(km.centroids), std::move(km.assignment),
                        data->vectors(), e.parallel);
        }
        if (e.pq.enabled) {
            ScopedSpan s(rec, "cbir.pq_train");
            ivf->buildPq(data->vectors(), e.pq, e.parallel);
        }
    }
    core::CbirService svc(e);

    const cbir::Matrix &db = data->vectors();
    auto batches =
        toBatches(drawQueries(*data, w, kPoolBatches * kBatch, w.seed));

    auto layered = [&](const cbir::Matrix &q, std::int64_t b,
                       cbir::ShortLists *keep_lists) {
        std::optional<ScopedSpan> batch_span;
        if (b >= 0)
            batch_span.emplace(rec, "cbir.query_batch", b);
        cbir::ShortLists lists;
        {
            std::optional<ScopedSpan> s;
            if (b >= 0)
                s.emplace(rec, "cbir.shortlist", b);
            lists = cbir::shortlistRetrieve(q, *ivf, e.nprobe, e.parallel,
                                            e.shortlistPrecision);
        }
        cbir::RerankResults res;
        {
            std::optional<ScopedSpan> s;
            if (b >= 0)
                s.emplace(rec, "cbir.rerank", b);
            res = cbir::rerank(q, db, *ivf, lists, w.rerank);
        }
        if (keep_lists)
            *keep_lists = std::move(lists);
        return res;
    };

    // Untimed: check every pool batch and count its probe statistics.
    double candidates = 0, distinct_frac = 0;
    std::uint64_t counted_queries = 0;
    for (const cbir::Matrix &q : batches) {
        cbir::ShortLists lists;
        if (layered(q, -1, &lists) != svc.query(q)) {
            problems.push_back(
                "layer-by-layer answers differ from CbirService::query");
            break;
        }
        std::vector<char> seen(ivf->numClusters(), 0);
        std::size_t probes = 0, unique = 0;
        for (const auto &list : lists) {
            std::size_t cand = 0;
            for (std::uint32_t c : list) {
                ++probes;
                unique += seen[c] ? 0 : 1;
                seen[c] = 1;
                cand += ivf->cluster(c).size();
            }
            if (e.maxCandidates != 0)
                cand = std::min(cand, e.maxCandidates);
            candidates += static_cast<double>(cand);
            ++counted_queries;
        }
        distinct_frac += ratio(double(unique), double(probes));
    }

    // Untraced and traced passes alternate, in ABBA order, so host
    // drift cancels out of their difference.
    EngineRun untraced, traced;
    auto plain = [&](const cbir::Matrix &q, std::int64_t) {
        return svc.query(q);
    };
    auto spanned = [&](const cbir::Matrix &q, std::int64_t b) {
        return layered(q, b, nullptr);
    };
    warmUp(batches, plain);
    warmUp(batches, spanned);
    auto t0 = Clock::now();
    for (std::size_t pass = 0;; ++pass) {
        if (pass % 2 == 0) {
            timedPass(batches, e.topK, db.rows(), untraced, plain);
            timedPass(batches, e.topK, db.rows(), traced, spanned);
        } else {
            timedPass(batches, e.topK, db.rows(), traced, spanned);
            timedPass(batches, e.topK, db.rows(), untraced, plain);
        }
        if (pass % 2 == 1 && secondsSince(t0) >= seconds)
            break;
    }
    if (untraced.invalid + traced.invalid > 0)
        problems.push_back("traced run returned invalid answers");

    out.layers = rec.layerTimes();
    out.untracedBatchMs = meanBatchMs(untraced);
    out.tracedBatchMs = meanBatchMs(traced);
    const double covered_us = out.layers["cbir.shortlist"].totalUs +
                              out.layers["cbir.rerank"].totalUs;
    out.spanCoverage = ratio(covered_us / 1e3,
                             out.tracedBatchMs * double(traced.batchesRun));
    out.candidatesPerQuery = ratio(candidates, double(counted_queries));
    out.distinctProbeFrac = ratio(distinct_frac, double(batches.size()));
    out.shortlistBytesPerBatch =
        static_cast<double>(ivf->numClusters()) * e.dataset.dim *
        cbir::centroidBytesPerDim(e.shortlistPrecision);
}

// ------------------------------------------------------------------
// Simulated machine

/** Busy ticks and bytes of one class of simulated resources. */
struct ResourceSample
{
    std::string name;
    double busyTicks = 0;
    double bytes = 0;
    /** Instances in the class; utilization is the per-instance mean. */
    double instances = 1;
};

std::vector<ResourceSample>
sampleResources(core::ReachSystem &sys)
{
    std::vector<ResourceSample> v;
    auto add = [&](const char *name, double busy, double bytes) {
        for (ResourceSample &s : v) {
            if (s.name == name) {
                s.busyTicks += busy;
                s.bytes += bytes;
                s.instances += 1;
                return;
            }
        }
        v.push_back({name, busy, bytes, 1});
    };
    auto add_acc = [&](const char *name, acc::Accelerator &a) {
        add(name, double(a.activeTicks()), 0);
    };
    auto add_link = [&](const char *name, noc::Link &l) {
        add(name, double(l.busyTicks()), double(l.bytesMoved()));
    };

    add_acc("acc.onchip", sys.onChip());
    for (std::uint32_t i = 0; i < sys.numAims(); ++i)
        add_acc("acc.aim", sys.aim(i));
    for (std::uint32_t i = 0; i < sys.numNs(); ++i)
        add_acc("acc.ns", sys.ns(i));
    add_acc("acc.cpu", sys.hostCore());

    add_link("noc.host_dram", sys.hostDramLink());
    add_link("noc.cache", sys.cacheLink());
    add_link("noc.host_io", sys.hostIoUplink());
    add_link("noc.aim_bus", sys.aimBusLink());
    for (std::uint32_t i = 0; i < sys.numAims(); ++i)
        add_link("noc.aim_local", sys.aimLocalLink(i));
    for (std::uint32_t i = 0; i < sys.config().numSsds; ++i) {
        add_link("noc.ns_local", sys.nsLocalLink(i));
        add_link("noc.ssd_host", sys.ssdHostLink(i));
    }
    for (std::uint32_t i = 0; i < sys.config().numSsds; ++i) {
        storage::Ssd &d = sys.ssdAt(i);
        add("storage.ssd", double(d.activeTicks()),
            double(d.bytesRead() + d.bytesWritten()));
    }
    return v;
}

constexpr std::pair<energy::Component, const char *> kEnergyNames[] = {
    {energy::Component::Acc, "acc"},
    {energy::Component::Cache, "cache"},
    {energy::Component::Dram, "dram"},
    {energy::Component::Ssd, "ssd"},
    {energy::Component::McInterconnect, "mc_noc"},
    {energy::Component::Pcie, "pcie"},
};

/** Simulated time between two host-clock readings of a stream run. */
constexpr sim::Tick kSliceTicks = 50 * sim::tickPerMs;

/**
 * Reads the host clock every kSliceTicks of simulated time while a
 * stream runs. Slice boundaries are fixed simulated ticks, so repeats
 * of one stream cut it into the same slices. The reading event touches
 * no simulated state and is the last of its tick, so the run's results
 * do not change; it stops once it is the only pending event.
 */
class SliceTimer
{
  public:
    explicit SliceTimer(sim::Simulator &s) : sim_(s) {}

    void
    start()
    {
        last_ = Clock::now();
        arm();
    }

    /** Close the last slice; returns host seconds per slice. */
    std::vector<double>
    finish()
    {
        slices_.push_back(secondsSince(last_));
        return std::move(slices_);
    }

    /** Reading events executed; not part of the simulated run. */
    std::uint64_t readings() const { return readings_; }

  private:
    void
    arm()
    {
        sim_.events().schedule(
            sim_.now() + kSliceTicks,
            [this] {
                ++readings_;
                auto t = Clock::now();
                slices_.push_back(
                    std::chrono::duration<double>(t - last_).count());
                last_ = t;
                if (!sim_.events().empty())
                    arm();
            },
            sim::EventPriority::Observer);
    }

    sim::Simulator &sim_;
    Clock::time_point last_;
    std::vector<double> slices_;
    std::uint64_t readings_ = 0;
};

/** One open-loop stream served on a fresh machine. */
struct StreamRun
{
    service::ServiceResult result;
    double setupS = 0;
    double runS = 0;
    /** Host seconds per kSliceTicks slice of the run. */
    std::vector<double> sliceS;
    std::uint64_t events = 0;
    /** The stream's sim_* end-to-end metrics and per-layer counters. */
    std::vector<Metric> endToEnd;
    std::vector<Metric> layers;
};

/** Arrival seed of stream @p i of a run seeded with @p seed. */
std::uint64_t
streamSeed(std::uint64_t seed, std::size_t i)
{
    return seed + i * 0x9e3779b97f4a7c15ull;
}

StreamRun
serveStream(const WorkloadSpec &w, std::uint64_t arrival_seed)
{
    StreamRun out;
    service::ServiceConfig cfg = w.service;
    cfg.arrival.seed = arrival_seed;
    auto ts = Clock::now();
    core::ReachSystem sys(w.system);
    service::QueryService svc(sys, w.scale, w.mapping, cfg);
    out.setupS = secondsSince(ts);

    auto before = sampleResources(sys);
    energy::EnergyBreakdown e0 = sys.measureEnergy();
    sim::Tick tick0 = sys.simulator().now();
    std::uint64_t ev0 = sys.simulator().eventsExecuted();
    std::uint64_t tasks0 = sys.gam().tasksDispatched();
    std::uint64_t polls0 = sys.gam().statusPolls();

    SliceTimer timer(sys.simulator());
    auto tr = Clock::now();
    timer.start();
    const service::ServiceResult &r = out.result = svc.run();
    out.sliceS = timer.finish();
    out.runS = secondsSince(tr);
    out.events =
        sys.simulator().eventsExecuted() - ev0 - timer.readings();
    energy::EnergyBreakdown de = sys.measureEnergy() - e0;

    const double done = double(r.completed);
    auto &E = out.endToEnd;
    E.push_back({"sim_goodput_qps", r.goodputQps(), "1/s"});
    E.push_back({"sim_p50_ms", sim::secondsFromTicks(r.p50) * 1e3, "ms"});
    E.push_back({"sim_p99_ms", sim::secondsFromTicks(r.p99) * 1e3, "ms"});
    E.push_back({"sim_j_per_query", ratio(de.total(), done), "J"});
    E.push_back({"full_quality_frac",
                 1.0 - ratio(double(r.degradedBatches),
                             double(r.batchesSubmitted)),
                 "fraction"});

    const double interval = double(sys.simulator().now() - tick0);
    auto after = sampleResources(sys);
    auto &L = out.layers;
    L.push_back({"sim.events_per_request",
                 ratio(double(out.events), double(r.submitted)), "count"});
    L.push_back({"sim.host_us_per_event",
                 ratio(out.runS * 1e6, double(out.events)), "us"});
    L.push_back({"service.mean_batch_size",
                 ratio(done, double(r.batchesCompleted)), "count"});
    L.push_back({"service.degraded_batch_frac",
                 ratio(double(r.degradedBatches), double(r.batchesSubmitted)),
                 "fraction"});
    L.push_back({"service.shed_frac",
                 ratio(double(r.shedTotal()), double(r.submitted)),
                 "fraction"});
    L.push_back({"service.retried_batches", double(r.batchesRetried),
                 "count"});
    double tasks = double(sys.gam().tasksDispatched() - tasks0);
    L.push_back({"gam.tasks_per_batch",
                 ratio(tasks, double(r.batchesSubmitted)), "count"});
    L.push_back({"gam.polls_per_task",
                 ratio(double(sys.gam().statusPolls() - polls0), tasks),
                 "count"});
    const sim::Stat *wait = sys.simulator().stats().find("gam.queueWait");
    L.push_back({"gam.queue_wait_us",
                 wait ? wait->value() / sim::tickPerUs : 0, "us"});
    for (std::size_t i = 0; i < after.size(); ++i) {
        const ResourceSample &a = after[i], &b = before[i];
        L.push_back({a.name + ".util",
                     ratio(a.busyTicks - b.busyTicks,
                           interval * a.instances),
                     "fraction"});
        if (a.name.rfind("acc.", 0) != 0)
            L.push_back({a.name + ".bytes_per_query",
                         ratio(a.bytes - b.bytes, done), "B"});
    }
    for (auto [c, name] : kEnergyNames) {
        L.push_back({std::string("energy.") + name + ".j_per_query",
                     ratio(de[c], done), "J"});
    }
    return out;
}

/** Element-wise mean of equally shaped metric lists. */
std::vector<Metric>
meanMetrics(const std::vector<const std::vector<Metric> *> &lists)
{
    std::vector<Metric> mean = *lists.front();
    for (std::size_t i = 0; i < mean.size(); ++i) {
        double sum = 0;
        for (const std::vector<Metric> *l : lists)
            sum += (*l)[i].value;
        mean[i].value = sum / double(lists.size());
    }
    return mean;
}

struct SimRun
{
    std::vector<double> setupS;
    /**
     * Stream 0's requests over its host time taken slice by slice,
     * each slice at its fastest over the stream's runs.
     */
    double hostQps = 0;
    /** Totals over the distinct streams. */
    std::uint64_t submitted = 0;
    std::uint64_t failed = 0;
    std::uint64_t events = 0;
    std::size_t runs = 0;
    /** Means over the distinct streams of each stream's metrics. */
    std::vector<Metric> endToEnd;
    std::vector<Metric> layers;
    double capacityQps = 0;
};

/** Fewest repeats of stream 0 in a simulator-timed run. */
constexpr std::size_t kMinSpeedRepeats = 4;
/** Distinct streams served between two repeats of stream 0. */
constexpr std::size_t kStreamsPerRepeat = 4;

/**
 * Serve w.simStreams distinct open-loop streams, each on a fresh
 * machine. With @p seconds > 0 stream 0 is also served again after
 * every kStreamsPerRepeat distinct streams, and then in turn until
 * @p seconds of host time have passed and it has been repeated at
 * least kMinSpeedRepeats times. Every repeat must reproduce its first
 * ServiceResult exactly. The simulated metrics depend only on the
 * seed: they are means over the distinct streams, whatever the number
 * of repeats.
 *
 * The simulator's host speed drifts by a third within a run, while the
 * fastest of several readings of one slice of a stream barely moves;
 * so host_qps is stream 0 timed slice by slice, each slice at its
 * fastest over the repeats (see the note above EngineRun).
 * @p after_stream, if set, gets the index of each stream run after it.
 */
void
runSim(const WorkloadSpec &w, double seconds, SimRun &out,
       std::vector<std::string> &problems,
       const std::function<void(std::size_t)> &after_stream = {})
{
    const std::size_t streams = w.simStreams;
    std::vector<StreamRun> first;
    std::vector<double> fastest_slices;
    std::size_t repeats = 0;
    auto serve = [&](std::size_t stream, bool repeat) {
        StreamRun sr = serveStream(w, streamSeed(w.seed, stream));
        out.setupS.push_back(sr.setupS);
        if (!sr.result.accounted())
            problems.push_back("completed + failed + shed != submitted");
        if (stream == 0) {
            if (fastest_slices.empty())
                fastest_slices = sr.sliceS;
            for (std::size_t i = 0;
                 i < std::min(sr.sliceS.size(), fastest_slices.size()); ++i)
                fastest_slices[i] = std::min(fastest_slices[i], sr.sliceS[i]);
        }
        if (!repeat) {
            first.push_back(std::move(sr));
        } else {
            ++repeats;
            if (sr.result != first[stream].result)
                problems.push_back("repeated simulation diverged");
        }
        if (after_stream)
            after_stream(out.runs);
        ++out.runs;
    };

    auto t_all = Clock::now();
    for (std::size_t i = 0; i < streams; ++i) {
        serve(i, false);
        if (seconds > 0 && i % kStreamsPerRepeat == kStreamsPerRepeat - 1)
            serve(0, true);
    }
    while (seconds > 0 &&
           (repeats < kMinSpeedRepeats || secondsSince(t_all) < seconds))
        serve(0, true);
    double fastest_s = 0;
    for (double t : fastest_slices)
        fastest_s += t;
    out.hostQps = ratio(double(first[0].result.submitted), fastest_s);

    std::vector<const std::vector<Metric> *> e2e, layers;
    for (const StreamRun &sr : first) {
        out.submitted += sr.result.submitted;
        out.failed += sr.result.failed + sr.result.shedTotal();
        out.events += sr.events;
        e2e.push_back(&sr.endToEnd);
        layers.push_back(&sr.layers);
    }
    out.endToEnd = meanMetrics(e2e);
    out.layers = meanMetrics(layers);

    core::ReachSystem sys(w.system);
    cbir::CbirWorkloadModel model(w.scale);
    core::CbirDeployment dep(sys, model, w.mapping);
    core::RunResult rr = dep.run(kCapacityBatches);
    out.capacityQps = rr.queriesPerSec(w.scale.batchSize);
    if (rr.completedBatches != rr.batches)
        problems.push_back("closed-loop capacity run lost batches");
}

std::string
jsonString(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"query-exact",
                                                   "openloop-onchip"};
    return names;
}

WorkloadSpec
makeSpec(const std::string &name, std::uint64_t seed)
{
    WorkloadSpec w;
    w.name = name;
    w.seed = seed;
    core::CbirService::Config &e = w.engine;
    // One engine thread. On a shared 4-core VM two threads answered a
    // batch 1.5x faster, but each batch then waits for its slower
    // worker: per-second p99 swung 1.3-3.6 ms with 25 ms outliers,
    // against 1.4-1.8 ms with one thread.
    e.parallel.threads = 1;
    e.kmeans.parallel = e.parallel;
    e.kmeans.maxIterations = 6;
    e.topK = 10;
    e.maxCandidates = 4096;

    service::ServiceConfig &s = w.service;
    if (name == "query-exact") {
        // Exact float rerank dominates the batch; uniform queries.
        e.dataset.numVectors = 60'000;
        e.kmeans.clusters = 192;
        e.nprobe = 3;
        w.mapping = core::Mapping::Reach;
        s.arrival.ratePerSec = 1550;
        s.totalRequests = 16'000;
    } else if (name == "openloop-onchip") {
        // PQ 4-bit FastScan + exact refine behind an fp16 shortlist,
        // with Zipf-skewed topics so a batch's probes overlap. Many
        // small clusters, so the shortlist scan is a visible share of
        // the batch.
        e.dataset.numVectors = 20'000;
        e.kmeans.clusters = 1024;
        e.nprobe = 16;
        e.shortlistPrecision = cbir::ShortlistPrecision::Fp16;
        e.pq.enabled = true;
        e.pq.bits = 4;
        e.pq.m = 48;
        e.pq.refine = 256;
        w.queryZipfS = 2.0;
        w.simulatorTimed = true;
        w.mapping = core::Mapping::OnChipOnly;
        s.arrival.ratePerSec = 908;
        // Once degraded, the controller can stay degraded for most of
        // a stream, so a stream's full-quality share ranges from 0.1
        // to 1 between seeds; many short streams average it.
        s.totalRequests = 3'000;
        w.simStreams = 20;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }

    // The options CbirService::query passes to rerank, for the traced
    // run's layer-by-layer calls.
    w.rerank.k = e.topK;
    w.rerank.maxCandidates = e.maxCandidates;
    w.rerank.parallel = e.parallel;
    w.rerank.usePq = e.pq.enabled;
    w.rerank.pqRefine = e.pq.refine;

    // The simulated machine serves the engine's retrieval
    // configuration, the same sync core::CoSimulation performs, except
    // that simulated OnChipOnly probes 4 clusters: with the engine's
    // 16, a simulated request costs about 6x more host time.
    w.scale.batchSize = kBatch;
    w.scale.nprobe = w.mapping == core::Mapping::OnChipOnly ? 4 : e.nprobe;
    w.scale.rerankCandidates = static_cast<std::uint32_t>(e.maxCandidates);
    w.scale.topK = e.topK;
    w.scale.pq = e.pq;
    w.scale.centroidBytesPerDim =
        cbir::centroidBytesPerDim(e.shortlistPrecision);
    w.system.aimUsesHbm =
        w.scale.shortlistPlacement == cbir::ScanPlacement::Hbm;

    // Front-end knobs shared by every workload, as in
    // bench/fig_openloop.cpp; the degrade controller keeps the
    // library's defaults.
    s.arrival.kind = service::ArrivalKind::Poisson;
    s.arrival.seed = seed;
    s.queueCapacity = 64;
    s.sloLatency = 150 * sim::tickPerMs;
    s.formTimeout = 4 * sim::tickPerMs;
    s.initialLatencyEstimate = 10 * sim::tickPerMs;
    s.maxInFlight = 4;
    return w;
}

namespace
{

/** Per-layer metrics: a traced engine run plus simulator counters. */
void
runTraced(const WorkloadSpec &w, double seconds,
          const std::string &trace_path, RunOutput &out)
{
    SimRun sim;
    runSim(w, 0, sim, out.problems);
    SpanRecorder rec;
    TracedEngine te;
    runEngineTraced(w, seconds, rec, te, out.problems);
    if (!trace_path.empty() && !rec.writeChromeJson(trace_path))
        out.problems.push_back("could not write " + trace_path);

    auto layer = [&](const char *n) { return te.layers[n]; };
    auto self_ms = [&](const char *n) {
        LayerTime lt = layer(n);
        return ratio(lt.selfUs, double(lt.count)) / 1e3;
    };
    LayerTime batch = layer("cbir.query_batch");
    auto &M = out.metrics;
    M.push_back({"workload.dataset_s",
                 layer("workload.dataset").totalUs / 1e6, "s"});
    M.push_back({"cbir.kmeans_s", layer("cbir.kmeans").totalUs / 1e6, "s"});
    M.push_back({"cbir.pq_train_s", layer("cbir.pq_train").totalUs / 1e6,
                 "s"});
    M.push_back({"cbir.shortlist.self_ms", self_ms("cbir.shortlist"), "ms"});
    M.push_back({"cbir.shortlist.bytes_per_batch", te.shortlistBytesPerBatch,
                 "B"});
    M.push_back({"cbir.rerank.self_ms", self_ms("cbir.rerank"), "ms"});
    M.push_back({"cbir.rerank.candidates_per_query", te.candidatesPerQuery,
                 "count"});
    M.push_back({"cbir.rerank.distinct_probe_frac", te.distinctProbeFrac,
                 "fraction"});
    M.push_back({"trace.batch_ms", te.tracedBatchMs, "ms"});
    M.push_back({"trace.untraced_batch_ms", te.untracedBatchMs, "ms"});
    M.push_back({"trace.span_coverage", te.spanCoverage, "fraction"});
    M.push_back({"trace.overhead_ms", te.tracedBatchMs - te.untracedBatchMs,
                 "ms"});
    M.insert(M.end(), sim.layers.begin(), sim.layers.end());
    out.attempted = batch.count * kBatch + sim.submitted;
    out.failed = sim.failed;
}

/**
 * End-to-end metrics. The timed surface runs for @p seconds. On an
 * engine-timed workload each simulated stream then runs once, after
 * peak RSS is read. On a simulator-timed workload the engine, set up
 * once, makes a pair of timed passes after every kRunsPerEnginePair-th
 * stream run, so its passes are spread through the run like those of
 * an engine-timed workload (see the note above EngineRun): a few
 * passes back to back all fall into the same phase of host drift.
 * Peak RSS is read before the untimed recall check.
 */
void
runUntraced(const WorkloadSpec &w, double seconds, RunOutput &out)
{
    EngineRun eng;
    SimRun sim;
    if (w.simulatorTimed) {
        EngineSession session(w, eng);
        runSim(w, seconds, sim, out.problems, [&](std::size_t run) {
            if (run % kRunsPerEnginePair == kRunsPerEnginePair - 1) {
                session.pass();
                session.pass();
            }
        });
        session.finish(out.problems);
    } else {
        runEngine(w, seconds, eng, out.problems);
        runSim(w, 0, sim, out.problems);
    }
    double host_qps;
    double setup_s;
    if (w.simulatorTimed) {
        host_qps = sim.hostQps;
        setup_s = minOf(sim.setupS);
        out.attempted = sim.submitted;
        out.failed = sim.failed;
    } else {
        host_qps = maxOf(eng.passQps);
        setup_s = minOf(eng.setupS);
        out.attempted = eng.queries;
        out.failed = eng.invalid;
    }
    auto &M = out.metrics;
    M.push_back({"setup_s", setup_s, "s"});
    M.push_back({"peak_rss_mb", eng.peakRssMb, "MB"});
    M.push_back({"host_qps", host_qps, "1/s"});
    M.push_back({"p50_ms", batchLatencyPercentile(eng, 50), "ms"});
    M.push_back({"p99_ms", batchLatencyPercentile(eng, 99), "ms"});
    M.push_back({"recall_at_10", eng.recall, "fraction"});
    M.push_back({"sim_capacity_qps", sim.capacityQps, "1/s"});
    M.insert(M.end(), sim.endToEnd.begin(), sim.endToEnd.end());

    const double l3 = double(std::max(0L, sysconf(_SC_LEVEL3_CACHE_SIZE)));
    auto &C = out.context;
    C.push_back({"engine_batches", jsonNumber(double(eng.batchesRun))});
    C.push_back({"engine_setups", jsonNumber(double(eng.setupS.size()))});
    C.push_back({"engine_working_set_mb", jsonNumber(eng.workingSetMb)});
    C.push_back({"working_set_fits_l3",
                 eng.workingSetMb * 1024 * 1024 < l3 ? "true" : "false"});
    C.push_back({"sim_streams", jsonNumber(double(w.simStreams))});
    C.push_back({"sim_requests", jsonNumber(double(sim.submitted))});
    C.push_back({"sim_stream_runs", jsonNumber(double(sim.runs))});
    C.push_back({"sim_events", jsonNumber(double(sim.events))});
}

} // namespace

RunOutput
runWorkload(const WorkloadSpec &w, double seconds, bool traced,
            const std::string &trace_path)
{
    RunOutput out;
    if (traced)
        runTraced(w, seconds, trace_path, out);
    else
        runUntraced(w, seconds, out);

    auto &C = out.context;
    C.push_back({"workload", jsonString(w.name)});
    C.push_back({"timed_surface",
                 jsonString(w.simulatorTimed ? "simulator" : "engine")});
    C.push_back({"mapping", jsonString(core::mappingName(w.mapping))});
    C.push_back({"offered_qps", jsonNumber(w.service.arrival.ratePerSec)});
    C.push_back({"threads", jsonNumber(w.engine.parallel.resolved())});
    C.push_back({"simd", jsonString(simd::name(
                             simd::resolve(w.engine.parallel.simd)))});
    C.push_back({"l2_bytes", jsonNumber(double(std::max(
                                 0L, sysconf(_SC_LEVEL2_CACHE_SIZE))))});
    C.push_back({"l3_bytes", jsonNumber(double(std::max(
                                 0L, sysconf(_SC_LEVEL3_CACHE_SIZE))))});
    C.push_back({"database_vectors",
                 jsonNumber(double(w.engine.dataset.numVectors))});
    C.push_back({"database_mb",
                 jsonNumber(double(w.engine.dataset.numVectors) *
                            double(w.engine.dataset.dim) * 4 /
                            (1024.0 * 1024.0))});
    return out;
}

} // namespace perfbench
