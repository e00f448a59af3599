/** @file Unit tests for the accelerator TLB model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include "mem/tlb.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sim/simulator.hh"

using namespace reach;
using namespace reach::mem;

namespace
{

TlbConfig
smallTlb()
{
    TlbConfig cfg;
    cfg.entries = 4;
    cfg.pageBytes = 4096;
    cfg.walkLatency = 100'000;
    return cfg;
}

} // namespace

TEST(Tlb, FirstTouchMissesThenHits)
{
    sim::Simulator sim;
    Tlb tlb(sim, "tlb", smallTlb());
    EXPECT_EQ(tlb.translate(0), 100'000u);
    EXPECT_EQ(tlb.translate(0), 0u);
    EXPECT_EQ(tlb.translate(4095), 0u); // same page
    EXPECT_EQ(tlb.missCount(), 1u);
    EXPECT_EQ(tlb.hitCount(), 2u);
}

TEST(Tlb, DistinctPagesMissSeparately)
{
    sim::Simulator sim;
    Tlb tlb(sim, "tlb", smallTlb());
    tlb.translate(0);
    EXPECT_EQ(tlb.translate(4096), 100'000u);
    EXPECT_EQ(tlb.missCount(), 2u);
}

TEST(Tlb, LruEvictionAtCapacity)
{
    sim::Simulator sim;
    Tlb tlb(sim, "tlb", smallTlb());
    for (Addr p = 0; p < 5; ++p)
        tlb.translate(p * 4096); // fills 4 entries, evicts page 0
    EXPECT_EQ(tlb.translate(0), 100'000u); // page 0 gone
    EXPECT_EQ(tlb.translate(4 * 4096), 0u); // page 4 resident
}

TEST(Tlb, TouchRefreshesLru)
{
    sim::Simulator sim;
    Tlb tlb(sim, "tlb", smallTlb());
    for (Addr p = 0; p < 4; ++p)
        tlb.translate(p * 4096);
    tlb.translate(0);        // page 0 now MRU
    tlb.translate(4 * 4096); // evicts page 1
    EXPECT_EQ(tlb.translate(0), 0u);
    EXPECT_EQ(tlb.translate(1 * 4096), 100'000u);
}

TEST(Tlb, FlushDropsEverything)
{
    sim::Simulator sim;
    Tlb tlb(sim, "tlb", smallTlb());
    tlb.translate(0);
    tlb.flush();
    EXPECT_EQ(tlb.translate(0), 100'000u);
}

TEST(Tlb, StreamingIsAllMisses)
{
    sim::Simulator sim;
    Tlb tlb(sim, "tlb", smallTlb());
    for (Addr p = 0; p < 100; ++p)
        tlb.translate(p * 4096);
    EXPECT_EQ(tlb.missCount(), 100u);
    EXPECT_EQ(tlb.hitCount(), 0u);
}

TEST(Tlb, RejectsZeroEntries)
{
    sim::Simulator sim;
    TlbConfig cfg = smallTlb();
    cfg.entries = 0;
    EXPECT_THROW(Tlb(sim, "tlb", cfg), sim::SimFatal);
}

TEST(Tlb, RejectsZeroPageSize)
{
    sim::Simulator sim;
    TlbConfig cfg = smallTlb();
    cfg.pageBytes = 0;
    EXPECT_THROW(Tlb(sim, "tlb", cfg), sim::SimFatal);
}

/**
 * Range calls against a twin TLB driven one step at a time, over
 * random mixes of single translations and ranges that do and do not
 * overlap resident pages.
 */
class TlbRangeEquivalence
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint64_t>>
{
};

TEST_P(TlbRangeEquivalence, MatchesStepwiseTranslation)
{
    auto [entries, page_bytes] = GetParam();
    TlbConfig cfg;
    cfg.entries = entries;
    cfg.pageBytes = page_bytes;
    cfg.walkLatency = 100'000;
    constexpr std::uint64_t stride = 4096;

    sim::Simulator sim;
    Tlb ranged(sim, "ranged", cfg);
    Tlb stepped(sim, "stepped", cfg);
    sim::Rng rng(entries * 1'000'003ull + page_bytes);

    std::set<std::uint64_t> touched;
    Addr cursor = 0;
    // Revisits land in the first few pages, so ranges overlap them.
    const std::uint64_t revisit_span = 2 * entries * page_bytes;
    for (int op = 0; op < 400; ++op) {
        bool revisit = rng.nextUInt(3) == 0;
        Addr first = revisit ? rng.nextUInt(revisit_span)
                             : cursor + rng.nextUInt(2 * page_bytes);
        if (rng.nextUInt(4) == 0) {
            ASSERT_EQ(ranged.translate(first), stepped.translate(first));
            touched.insert(first / page_bytes);
            continue;
        }
        std::uint64_t steps = rng.nextUInt(600);
        sim::Tick expect = 0;
        for (std::uint64_t i = 0; i < steps; ++i) {
            expect += stepped.translate(first + i * stride);
            touched.insert((first + i * stride) / page_bytes);
        }
        ASSERT_EQ(ranged.translateRange(first, steps, stride), expect)
            << "op " << op;
        ASSERT_EQ(ranged.hitCount(), stepped.hitCount()) << "op " << op;
        ASSERT_EQ(ranged.missCount(), stepped.missCount()) << "op " << op;
        if (!revisit)
            cursor = std::max(cursor, first + steps * stride);
    }

    // Probe every page ever touched, in random order: the resident set
    // decides each probe and the recency order decides what the
    // probes evict.
    std::vector<std::uint64_t> probes(touched.begin(), touched.end());
    for (std::size_t i = probes.size(); i > 1; --i)
        std::swap(probes[i - 1], probes[rng.nextUInt(i)]);
    for (std::uint64_t page : probes) {
        ASSERT_EQ(ranged.translate(page * page_bytes),
                  stepped.translate(page * page_bytes))
            << "page " << page;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TlbRangeEquivalence,
    ::testing::Combine(::testing::Values(1u, 4u, 64u),
                       ::testing::Values(1024ull, 4096ull,
                                         2ull << 20)));
