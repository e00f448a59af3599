/**
 * @file
 * Benchmark binary: runs one workload in this process and prints the
 * run context as "# context:" lines, any failed output check as
 * "# check failed:" lines, and one JSON result object as the last
 * line of standard output. Exits 1 when an output check failed.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--git-sha SHA]
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "sim/logging.hh"
#include "workloads.hh"

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE] "
                 "[--git-sha SHA]\nworkloads:",
                 why);
    for (const std::string &n : perfbench::workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

/** Parse a whole decimal string, or exit with usage. */
double
parseNumber(const std::string &text, const char *flag)
{
    try {
        std::size_t used = 0;
        double v = std::stod(text, &used);
        if (used == text.size())
            return v;
    } catch (const std::exception &) {
    }
    usage((std::string("bad value for ") + flag).c_str());
}

/** Parse a non-negative 64-bit integer, or exit with usage. */
std::uint64_t
parseSeed(const std::string &text)
{
    try {
        std::size_t used = 0;
        std::uint64_t v = std::stoull(text, &used);
        if (used == text.size() && text[0] != '-')
            return v;
    } catch (const std::exception &) {
    }
    usage("--seed must be a non-negative integer");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_out, git_sha = "unknown";
    std::uint64_t seed = 0;
    bool have_seed = false;
    double seconds = -1, trace = -1;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed") {
            seed = parseSeed(value);
            have_seed = true;
        }
        else if (flag == "--seconds")
            seconds = parseNumber(value, "--seconds");
        else if (flag == "--trace")
            trace = parseNumber(value, "--trace");
        else if (flag == "--trace-out")
            trace_out = value;
        else if (flag == "--git-sha")
            git_sha = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    bool known = false;
    for (const std::string &n : perfbench::workloadNames())
        known = known || n == workload;
    if (!known)
        usage("unknown or missing --workload");
    if (!have_seed)
        usage("missing --seed");
    if (!(seconds > 0 && seconds <= 600))
        usage("--seconds must be in (0, 600]");
    if (trace != 0 && trace != 1)
        usage("--trace must be 0 or 1");

    reach::sim::setQuiet(true);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    perfbench::WorkloadSpec spec = perfbench::makeSpec(workload, seed);
    perfbench::RunOutput out =
        perfbench::runWorkload(spec, seconds, trace == 1, trace_out);

    std::printf("# context: {\"git_sha\": \"%s\", \"nproc\": %u",
                git_sha.c_str(), nproc);
    for (const auto &[key, value] : out.context)
        std::printf(", \"%s\": %s", key.c_str(), value.c_str());
    std::printf("}\n");
    for (const std::string &p : out.problems)
        std::printf("# check failed: %s\n", p.c_str());

    const bool correct = out.problems.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const perfbench::Metric &m = out.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("}}\n");
    return correct ? 0 : 1;
}
