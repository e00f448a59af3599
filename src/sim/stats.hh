/**
 * @file
 * A small statistics framework in the spirit of gem5's Stats package.
 *
 * Components own stat objects and register them with a StatRegistry
 * under hierarchical dotted names ("mem.ctrl0.readReqs"). The registry
 * finds a stat by name and dumps every stat as JSON.
 */

#ifndef REACH_SIM_STATS_HH
#define REACH_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace reach::sim
{

/** Base class of all statistics. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : _name(std::move(name)), _desc(std::move(desc))
    {}
    virtual ~Stat() = default;

    const std::string &name() const { return _name; }
    const std::string &desc() const { return _desc; }

    /** Current value rendered as a double (for dumping). */
    virtual double value() const = 0;

  private:
    std::string _name;
    std::string _desc;
};

/** A simple accumulating scalar (counter or gauge). */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator+=(double v) { val += v; return *this; }
    Scalar &operator++() { val += 1; return *this; }
    void set(double v) { val = v; }

    double value() const override { return val; }

  private:
    double val = 0;
};

/** Tracks count/sum/min/max/mean of a sampled quantity. */
class Distribution : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v);

    std::uint64_t count() const { return n; }
    double sum() const { return total; }
    double mean() const { return n ? total / static_cast<double>(n) : 0; }
    double minValue() const { return n ? mn : 0; }
    double maxValue() const { return n ? mx : 0; }

    /** value() reports the mean. */
    double value() const override { return mean(); }

  private:
    std::uint64_t n = 0;
    double total = 0;
    double mn = 0;
    double mx = 0;
};

/**
 * Streaming exact-percentile recorder for latency-style samples.
 *
 * Keeps every sample (long open-loop runs sample one value per
 * request, so memory stays proportional to the run) and answers
 * nearest-rank percentile queries exactly — no digest approximation
 * that could blur a tail-latency gate. Queries sort lazily and
 * interleave freely with further sampling. The sum accumulates in
 * __int128 so multi-hour tick sums cannot overflow a 64-bit tick.
 */
class PercentileRecorder : public Stat
{
  public:
    using Stat::Stat;
    PercentileRecorder() : Stat("", "") {}

    void sample(std::uint64_t v);

    std::uint64_t count() const { return samples.size(); }
    std::uint64_t maxValue() const;
    std::uint64_t minValue() const;
    double mean() const;

    /**
     * Exact nearest-rank percentile: the smallest recorded sample
     * >= @p p percent of the distribution (p in (0, 100]). 0 with no
     * samples.
     */
    std::uint64_t percentile(double p) const;

    std::uint64_t p50() const { return percentile(50); }
    std::uint64_t p95() const { return percentile(95); }
    std::uint64_t p99() const { return percentile(99); }
    std::uint64_t p999() const { return percentile(99.9); }

    /** value() reports p99 so registries dump the tail. */
    double value() const override
    {
        return static_cast<double>(p99());
    }

  private:
    /** Sorted on demand; `sorted` tracks whether it still is. */
    mutable std::vector<std::uint64_t> samples;
    mutable bool sorted = true;
    unsigned __int128 total = 0;
};

/**
 * Owns nothing; tracks registered stats by name for lookup and dump.
 * Stats must outlive the registry entries that reference them.
 */
class StatRegistry
{
  public:
    /** Register a stat; names must be unique. */
    void add(Stat &stat);

    /** Look up a stat, or nullptr. */
    const Stat *find(const std::string &name) const;

    /**
     * Write the registry as a JSON object, in name order:
     * {"name": {"value": v, "desc": "..."}, ...} — for downstream
     * analysis scripts and plotting.
     */
    void dumpJson(std::ostream &os) const;

  private:
    std::map<std::string, Stat *> stats;
};

} // namespace reach::sim

#endif // REACH_SIM_STATS_HH
