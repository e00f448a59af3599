/**
 * @file
 * A command-line exploration tool over the ReACH model — the binary
 * a downstream user reaches for to answer "what if":
 *
 *   sweep_cli --mapping=reach --batches=16
 *   sweep_cli --all --nprobe=16 --candidates=8192
 *   sweep_cli --mapping=near-mem --instances=2 --trace
 *   sweep_cli --mapping=onchip --stats       # dump all counters (JSON)
 */

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "core/cbir_deployment.hh"
#include "sim/logging.hh"

using namespace reach;
using namespace reach::core;

namespace
{

struct Options
{
    std::vector<Mapping> mappings{Mapping::Reach};
    std::uint32_t batches = 8;
    std::uint32_t instances = 0;
    cbir::ScaleConfig scale{};
    bool dumpStats = false;
    bool trace = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(
        stderr,
        "usage: sweep_cli [options]\n"
        "  --mapping=cpu|onchip|near-mem|near-stor|reach\n"
        "  --all                 run every mapping\n"
        "  --batches=N           query batches to run (default 8)\n"
        "  --instances=N         near-data modules to use (default all)\n"
        "  --batchsize=N         queries per batch (default 16)\n"
        "  --nprobe=N            clusters probed per query (default 8)\n"
        "  --candidates=N        rerank candidates per query "
        "(default 4096)\n"
        "  --reverse-lookup      include the image-fetch stage\n"
        "  --trace               print the task timeline\n"
        "  --stats               dump every simulator counter as "
        "JSON\n");
    std::exit(2);
}

Mapping
parseMapping(const std::string &s)
{
    if (s == "cpu")
        return Mapping::CpuOnly;
    if (s == "onchip")
        return Mapping::OnChipOnly;
    if (s == "near-mem")
        return Mapping::NearMemOnly;
    if (s == "near-stor")
        return Mapping::NearStorOnly;
    if (s == "reach")
        return Mapping::Reach;
    usage();
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *prefix) -> const char * {
            std::size_t n = std::strlen(prefix);
            return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n
                                                  : nullptr;
        };
        if (const char *v = value("--mapping="))
            opt.mappings = {parseMapping(v)};
        else if (arg == "--all")
            opt.mappings = {Mapping::CpuOnly, Mapping::OnChipOnly,
                            Mapping::NearMemOnly,
                            Mapping::NearStorOnly, Mapping::Reach};
        else if (const char *v = value("--batches="))
            opt.batches = static_cast<std::uint32_t>(std::atoi(v));
        else if (const char *v = value("--instances="))
            opt.instances = static_cast<std::uint32_t>(std::atoi(v));
        else if (const char *v = value("--batchsize="))
            opt.scale.batchSize =
                static_cast<std::uint32_t>(std::atoi(v));
        else if (const char *v = value("--nprobe="))
            opt.scale.nprobe =
                static_cast<std::uint32_t>(std::atoi(v));
        else if (const char *v = value("--candidates="))
            opt.scale.rerankCandidates =
                static_cast<std::uint32_t>(std::atoi(v));
        else if (arg == "--reverse-lookup")
            opt.scale.includeReverseLookup = true;
        else if (arg == "--trace")
            opt.trace = true;
        else if (arg == "--stats")
            opt.dumpStats = true;
        else
            usage();
    }
    if (opt.batches == 0)
        usage();
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);
    Options opt = parse(argc, argv);
    cbir::CbirWorkloadModel model(opt.scale);

    std::printf("%-10s %10s %16s %14s %12s\n", "mapping", "batches",
                "throughput(q/s)", "mean lat(ms)", "energy(J)");

    for (Mapping m : opt.mappings) {
        ReachSystem sys{SystemConfig{}};

        if (opt.trace) {
            sys.gam().setTaskObserver(
                [](const gam::Gam::TaskEvent &e) {
                    if (e.kind != gam::Gam::TaskEventKind::Complete)
                        return;
                    std::printf("  [%10.3f - %10.3f ms] %-22s %s\n",
                                sim::secondsFromTicks(e.dispatched) *
                                    1e3,
                                sim::secondsFromTicks(e.finished) *
                                    1e3,
                                e.label.c_str(), e.accName.c_str());
                });
        }

        CbirDeployment dep(sys, model, m, opt.instances);
        RunResult r = dep.run(opt.batches);
        double energy = sys.measureEnergy().total();

        std::printf("%-10s %10u %16.1f %14.2f %12.2f\n",
                    mappingName(m), r.batches,
                    r.queriesPerSec(opt.scale.batchSize),
                    sim::secondsFromTicks(r.meanLatency) * 1e3,
                    energy);

        if (opt.dumpStats)
            sys.simulator().stats().dumpJson(std::cout);
    }
    return 0;
}
