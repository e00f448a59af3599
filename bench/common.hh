/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses: stage
 * runners for the per-stage sweeps (Figs. 9-11), formatting, and the
 * standard scale/system configurations.
 */

#ifndef REACH_BENCH_COMMON_HH
#define REACH_BENCH_COMMON_HH

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cbir/shortlist.hh"
#include "core/cbir_deployment.hh"
#include "core/reach_system.hh"
#include "energy/energy_model.hh"
#include "parallel/thread_pool.hh"
#include "sim/logging.hh"

namespace reach::bench
{

using core::Stage;
using core::stageName;

struct StageResult
{
    double runtimeSeconds = 0;
    double energyJoules = 0;
    /** Per-component energy of the run. */
    energy::EnergyBreakdown breakdown{};
};

/**
 * System configuration for running one stage at one level with
 * @p instances near-data modules (the Fig. 9-11 sweeps scale the
 * number of DIMM/SSD-paired FPGAs).
 */
inline core::SystemConfig
sweepConfig(acc::Level level, std::uint32_t instances)
{
    core::SystemConfig cfg;
    if (level == acc::Level::NearMem)
        cfg.numAimModules = std::max(instances, 1u);
    if (level == acc::Level::NearStor)
        cfg.numSsds = std::max(instances, 1u);
    return cfg;
}

/**
 * Apply the workload-side placement knob to a machine config: AIM
 * links run at HBM bandwidth/latency iff the scale places the
 * shortlist scan in HBM (the same sync CoSimulation performs).
 */
inline core::SystemConfig
systemForScale(core::SystemConfig cfg, const cbir::ScaleConfig &scale)
{
    cfg.aimUsesHbm =
        scale.shortlistPlacement == cbir::ScanPlacement::Hbm;
    return cfg;
}

/**
 * Apply a shortlist scan precision to a timing scale through the one
 * shared precision -> bytes mapping (the same sync CoSimulation
 * performs from CbirService::Config::shortlistPrecision), so ablation
 * variants can never hand the byte model a width the functional path
 * does not implement.
 */
inline cbir::ScaleConfig
scaleWithPrecision(cbir::ScaleConfig scale,
                   cbir::ShortlistPrecision precision)
{
    scale.centroidBytesPerDim = cbir::centroidBytesPerDim(precision);
    return scale;
}

/**
 * Run @p batches of @p stage in isolation through the GAM, on the
 * sweepConfig(level, instances) machine with the shortlist-placement
 * link sync (systemForScale). Each batch is one job built by the
 * deployment's stage builder (core::addStageTasks) over every module
 * at @p level, reading its input from the host.
 */
StageResult runStage(Stage stage, acc::Level level,
                     std::uint32_t instances, std::uint32_t batches,
                     const cbir::ScaleConfig &scale = {});

/** Print a markdown-ish table header. */
inline void
printHeader(const std::string &title)
{
    std::printf("\n=== %s ===\n", title.c_str());
}

/**
 * Concurrency knob for the figure/ablation sweeps. Every sweep point
 * is an independent Simulator, so points run concurrently on the
 * process-wide parallel::ThreadPool without touching each other's
 * state.
 */
struct SweepOptions
{
    /** Concurrent sweep points; 0 = one per hardware thread. */
    unsigned jobs = 0;

    unsigned
    resolved() const
    {
        if (jobs != 0)
            return jobs;
        unsigned hc = std::thread::hardware_concurrency();
        return hc != 0 ? hc : 1;
    }
};

/**
 * Parse the shared bench command line: `--jobs N` / `--jobs=N`, else
 * the REACH_SWEEP_JOBS environment variable, else the default (one
 * job per hardware thread). Unknown arguments are ignored so benches
 * keep accepting bench-specific flags. fatal() on a malformed value.
 */
SweepOptions parseSweepOptions(int argc, char **argv);

/**
 * Run fn(i) for every sweep point i in [0, points) using up to
 * opt.resolved() concurrent jobs, and return the results indexed by
 * point.
 *
 * Determinism contract: fn must depend only on its point index
 * (every point builds its own Simulator/ReachSystem), each result is
 * written to its pre-sized slot, and callers print results in point
 * order — so the output is bitwise identical at any job count, and
 * `--jobs 1` reproduces the historical serial runs exactly.
 */
template <typename Fn>
auto
runSweep(std::size_t points, const SweepOptions &opt, Fn &&fn)
    -> std::vector<decltype(fn(std::size_t{}))>
{
    using Result = decltype(fn(std::size_t{}));
    std::vector<Result> results(points);
    unsigned jobs = opt.resolved();
    if (jobs <= 1 || points <= 1) {
        for (std::size_t i = 0; i < points; ++i)
            results[i] = fn(i);
        return results;
    }
    parallel::ThreadPool::global().run(
        points, jobs, [&](std::size_t i) { results[i] = fn(i); });
    return results;
}

} // namespace reach::bench

#endif // REACH_BENCH_COMMON_HH
