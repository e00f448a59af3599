#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "logging.hh"

namespace reach::sim
{

void
Distribution::sample(double v)
{
    if (n == 0) {
        mn = v;
        mx = v;
    } else {
        mn = std::min(mn, v);
        mx = std::max(mx, v);
    }
    ++n;
    total += v;
}

void
PercentileRecorder::sample(std::uint64_t v)
{
    if (sorted && !samples.empty() && v < samples.back())
        sorted = false;
    samples.push_back(v);
    total += v;
}

std::uint64_t
PercentileRecorder::maxValue() const
{
    if (samples.empty())
        return 0;
    if (sorted)
        return samples.back();
    return *std::max_element(samples.begin(), samples.end());
}

std::uint64_t
PercentileRecorder::minValue() const
{
    if (samples.empty())
        return 0;
    if (sorted)
        return samples.front();
    return *std::min_element(samples.begin(), samples.end());
}

double
PercentileRecorder::mean() const
{
    if (samples.empty())
        return 0;
    return static_cast<double>(total) /
           static_cast<double>(samples.size());
}

std::uint64_t
PercentileRecorder::percentile(double p) const
{
    if (samples.empty())
        return 0;
    if (!(p > 0) || p > 100)
        panic("percentile(", p, ") out of (0, 100]");
    if (!sorted) {
        std::sort(samples.begin(), samples.end());
        sorted = true;
    }
    // Nearest-rank: ceil(p/100 * n), 1-based.
    auto n = samples.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank == 0)
        rank = 1;
    if (rank > n)
        rank = n;
    return samples[rank - 1];
}

void
StatRegistry::add(Stat &stat)
{
    auto [it, inserted] = stats.emplace(stat.name(), &stat);
    (void)it;
    if (!inserted)
        panic("duplicate stat name '", stat.name(), "'");
}

const Stat *
StatRegistry::find(const std::string &name) const
{
    auto it = stats.find(name);
    return it == stats.end() ? nullptr : it->second;
}

namespace
{

/** Minimal JSON string escaping for names/descriptions. */
std::string
jsonEscape(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    for (char c : in) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

void
StatRegistry::dumpJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const auto &[name, stat] : stats) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  \"" << jsonEscape(name) << "\": {\"value\": "
           << stat->value() << ", \"desc\": \""
           << jsonEscape(stat->desc()) << "\"}";
    }
    os << "\n}\n";
}

} // namespace reach::sim
