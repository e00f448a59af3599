/**
 * @file
 * Ablation: the near-storage module's private DRAM parameter buffer
 * (paper §II-C: it exists "to limit disk accesses and exploit the
 * parameters' reuse ratio"). We run near-storage feature extraction
 * with reusable parameters (one key, buffer hits after the first
 * fetch) and with unique per-task keys (no reuse possible, every
 * task refetches over the host path).
 */

#include <cstdio>

#include "common.hh"

using namespace reach;
using namespace reach::bench;

namespace
{

double
runNsFeatureExtraction(bool reuse, std::uint32_t batches)
{
    core::SystemConfig cfg;
    core::ReachSystem sys(cfg);
    cbir::CbirWorkloadModel model{cbir::ScaleConfig{}};
    core::StagePlacement where{acc::Level::NearStor, sys.numNs()};

    std::uint32_t task_seq = 0;
    sys.runJobs(batches, batches, [&](std::uint32_t) {
        gam::JobDesc job;
        job.label = "fe-ns";
        core::addStageTasks(job, Stage::FeatureExtraction, where, {},
                            sys, model);
        if (!reuse) {
            for (gam::TaskDesc &t : job.tasks)
                t.work.paramKey = "vgg16#" + std::to_string(task_seq++);
        }
        return job;
    });
    return sim::secondsFromTicks(sys.simulator().now());
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);
    SweepOptions opt = parseSweepOptions(argc, argv);
    printHeader("Ablation: near-storage DRAM parameter buffer "
                "(feature extraction on NS modules)");
    std::printf("%-22s %14s\n", "parameter reuse", "runtime (ms)");

    const std::uint32_t batches = 4;
    auto results = runSweep(2, opt, [&](std::size_t i) {
        return runNsFeatureExtraction(i == 0, batches);
    });
    double with_buffer = results[0];
    double without = results[1];

    std::printf("%-22s %14.2f\n", "buffered (hits)",
                with_buffer * 1e3);
    std::printf("%-22s %14.2f\n", "refetch every task",
                without * 1e3);
    std::printf("buffer speedup: %.2fx (the paper's rationale for "
                "the 1 GB device DRAM)\n",
                without / with_buffer);
    return 0;
}
