/** @file Unit tests for the statistics framework. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace reach::sim;

TEST(Stats, ScalarAccumulates)
{
    Scalar s("s", "a counter");
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.set(10);
    EXPECT_DOUBLE_EQ(s.value(), 10.0);
}

TEST(Stats, DistributionTracksMoments)
{
    Distribution d("d", "samples");
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);

    d.sample(2);
    d.sample(4);
    d.sample(9);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.sum(), 15.0);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.minValue(), 2.0);
    EXPECT_DOUBLE_EQ(d.maxValue(), 9.0);
}

TEST(Stats, DistributionSingleNegativeSample)
{
    Distribution d("d", "samples");
    d.sample(-3.5);
    EXPECT_DOUBLE_EQ(d.minValue(), -3.5);
    EXPECT_DOUBLE_EQ(d.maxValue(), -3.5);
    EXPECT_DOUBLE_EQ(d.mean(), -3.5);
}

TEST(StatRegistry, AddAndFind)
{
    StatRegistry reg;
    EXPECT_EQ(reg.find("mod.counter"), nullptr);
    Scalar s("mod.counter", "desc");
    reg.add(s);
    EXPECT_EQ(reg.find("mod.counter"), &s);
    EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(StatRegistry, DuplicateNamePanics)
{
    StatRegistry reg;
    Scalar a("x", ""), b("x", "");
    reg.add(a);
    EXPECT_THROW(reg.add(b), SimPanic);
}

TEST(StatRegistry, DumpJsonIsNameSorted)
{
    StatRegistry reg;
    Scalar c("c", ""), a("a", ""), b("b", "");
    reg.add(c);
    reg.add(a);
    reg.add(b);

    std::ostringstream os;
    reg.dumpJson(os);
    std::string s = os.str();
    auto pa = s.find("\"a\"");
    auto pb = s.find("\"b\"");
    auto pc = s.find("\"c\"");
    ASSERT_NE(pc, std::string::npos);
    EXPECT_LT(pa, pb);
    EXPECT_LT(pb, pc);
}

TEST(StatRegistry, DumpContainsNamesValuesDescriptions)
{
    StatRegistry reg;
    Scalar a("mem.reads", "read bursts");
    a += 7;
    reg.add(a);

    std::ostringstream os;
    reg.dumpJson(os);
    std::string out = os.str();
    EXPECT_NE(out.find("mem.reads"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
    EXPECT_NE(out.find("read bursts"), std::string::npos);
}

TEST(StatRegistry, DumpJsonIsWellFormed)
{
    StatRegistry reg;
    Scalar a("mem.reads", "read \"bursts\"");
    a += 42;
    Scalar b("mem.writes", "write bursts");
    reg.add(a);
    reg.add(b);

    std::ostringstream os;
    reg.dumpJson(os);
    std::string s = os.str();

    // Contains both entries with escaped quotes in descriptions.
    EXPECT_NE(s.find("\"mem.reads\""), std::string::npos);
    EXPECT_NE(s.find("\"value\": 42"), std::string::npos);
    EXPECT_NE(s.find("read \\\"bursts\\\""), std::string::npos);

    // Balanced braces and exactly one separating comma.
    EXPECT_EQ(std::count(s.begin(), s.end(), '{'), 3);
    EXPECT_EQ(std::count(s.begin(), s.end(), '}'), 3);
}

TEST(StatRegistry, DumpJsonEmptyRegistry)
{
    StatRegistry reg;
    std::ostringstream os;
    reg.dumpJson(os);
    EXPECT_EQ(os.str(), "{\n}\n");
}

TEST(PercentileRecorder, ExactNearestRankPercentiles)
{
    PercentileRecorder r("lat", "latencies");
    EXPECT_EQ(r.count(), 0u);
    EXPECT_EQ(r.percentile(50), 0u);

    // 1..100 in shuffled insertion order: pN is exactly N.
    for (std::uint64_t v = 100; v >= 1; --v)
        r.sample(v);
    EXPECT_EQ(r.count(), 100u);
    EXPECT_EQ(r.percentile(50), 50u);
    EXPECT_EQ(r.p95(), 95u);
    EXPECT_EQ(r.p99(), 99u);
    EXPECT_EQ(r.percentile(100), 100u);
    EXPECT_EQ(r.percentile(0.5), 1u);
    EXPECT_EQ(r.minValue(), 1u);
    EXPECT_EQ(r.maxValue(), 100u);
    EXPECT_DOUBLE_EQ(r.mean(), 50.5);
    // value() renders the p99 for stat dumps.
    EXPECT_DOUBLE_EQ(r.value(), 99.0);
}

TEST(PercentileRecorder, SmallSampleCountsClampToExtremes)
{
    PercentileRecorder r("lat", "latencies");
    r.sample(7);
    EXPECT_EQ(r.p50(), 7u);
    EXPECT_EQ(r.p999(), 7u);

    r.sample(3);
    EXPECT_EQ(r.percentile(50), 3u);
    EXPECT_EQ(r.p999(), 7u);
}

TEST(PercentileRecorder, InterleavedSampleAndQuery)
{
    // Queries lazily sort; later out-of-order samples must
    // invalidate the cache.
    PercentileRecorder r("lat", "latencies");
    r.sample(10);
    r.sample(20);
    EXPECT_EQ(r.percentile(100), 20u);
    r.sample(5);
    EXPECT_EQ(r.percentile(100), 20u);
    EXPECT_EQ(r.percentile(34), 10u);
    EXPECT_EQ(r.minValue(), 5u);
}

TEST(PercentileRecorder, SumOverflowSafeMean)
{
    // Two samples near 2^63 would overflow a u64 accumulator.
    PercentileRecorder r("lat", "latencies");
    std::uint64_t big = std::uint64_t(1) << 62;
    r.sample(big);
    r.sample(big);
    r.sample(big);
    r.sample(big);
    EXPECT_DOUBLE_EQ(r.mean(), static_cast<double>(big));
}

TEST(PercentileRecorder, RejectsOutOfRangePercentile)
{
    PercentileRecorder r("lat", "latencies");
    r.sample(1);
    EXPECT_THROW(r.percentile(0), SimPanic);
    EXPECT_THROW(r.percentile(100.5), SimPanic);
}
