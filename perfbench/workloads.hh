/**
 * @file
 * The benchmark's workloads: one retrieval configuration served at
 * both of the repository's resolutions. The functional engine
 * (core::CbirService at sampled scale) answers real queries on the
 * host; the simulated machine (service::QueryService over
 * core::ReachSystem at billion scale) reports what serving the same
 * configuration would cost. Each workload times one of the two
 * surfaces for the requested seconds (its primary surface) and also
 * runs the other, so every workload reports every metric.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cbir/rerank.hh"
#include "core/cosim.hh"
#include "core/system_config.hh"
#include "service/query_service.hh"

namespace perfbench
{

/** Every library config one workload uses, built in one place. */
struct WorkloadSpec
{
    std::string name;
    /** Drives the query draws and the arrival process. */
    std::uint64_t seed = 0;
    /** Primary surface: the simulator (true) or the host engine. */
    bool simulatorTimed = false;

    reach::core::CbirService::Config engine;
    /** Zipf exponent of the queried topics; 0 = uniform queries. */
    double queryZipfS = 0;

    /** Rerank options of the traced layer-by-layer calls. */
    reach::cbir::RerankConfig rerank;

    reach::cbir::ScaleConfig scale;
    reach::core::SystemConfig system;
    reach::core::Mapping mapping = reach::core::Mapping::Reach;
    reach::service::ServiceConfig service;
    /**
     * Distinct open-loop streams (arrival seeds derived from seed);
     * the simulated metrics are means over them.
     */
    std::size_t simStreams = 1;
};

/** Names accepted by makeSpec, in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * The spec of workload @p name. @p seed drives the query draws and
 * the arrival process; the database, index and codebooks are fixed
 * fixtures.
 */
WorkloadSpec makeSpec(const std::string &name, std::uint64_t seed);

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct RunOutput
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Failed output checks; empty when every check passed. */
    std::vector<std::string> problems;
    /** Run context as (key, JSON value) pairs. */
    std::vector<std::pair<std::string, std::string>> context;
};

/**
 * Run @p spec for @p seconds of timed work. Untraced runs report the
 * end-to-end metrics; traced runs report the per-layer metrics and
 * write Chrome trace-event JSON to @p trace_path.
 */
RunOutput runWorkload(const WorkloadSpec &spec, double seconds,
                      bool traced, const std::string &trace_path);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
