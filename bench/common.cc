#include "common.hh"

#include <cstdlib>
#include <cstring>

namespace reach::bench
{

namespace
{

unsigned
parseJobsValue(const char *text, const char *origin)
{
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < 0 || v > 4096)
        sim::fatal("invalid ", origin, " value '", text,
                   "' (expected an integer job count)");
    return static_cast<unsigned>(v);
}

} // namespace

SweepOptions
parseSweepOptions(int argc, char **argv)
{
    SweepOptions opt;
    bool from_flag = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--jobs") == 0) {
            if (i + 1 >= argc)
                sim::fatal("--jobs expects a value");
            opt.jobs = parseJobsValue(argv[++i], "--jobs");
            from_flag = true;
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            opt.jobs = parseJobsValue(arg + 7, "--jobs");
            from_flag = true;
        }
    }
    if (!from_flag) {
        if (const char *env = std::getenv("REACH_SWEEP_JOBS")) {
            if (*env != '\0')
                opt.jobs = parseJobsValue(env, "REACH_SWEEP_JOBS");
        }
    }
    return opt;
}

StageResult
runStage(Stage stage, acc::Level level, std::uint32_t instances,
         std::uint32_t batches, const cbir::ScaleConfig &scale)
{
    core::ReachSystem sys(
        systemForScale(sweepConfig(level, instances), scale));
    cbir::CbirWorkloadModel model(scale);
    core::StagePlacement where{level, sys.instancesAt(level)};

    sys.runJobs(batches, batches, [&](std::uint32_t) {
        gam::JobDesc job;
        job.label = "stage-batch";
        core::addStageTasks(job, stage, where, {}, sys, model);
        return job;
    });

    StageResult res;
    res.runtimeSeconds =
        sim::secondsFromTicks(sys.simulator().now());
    res.breakdown = sys.measureEnergy();
    res.energyJoules = res.breakdown.total();
    return res;
}

} // namespace reach::bench
