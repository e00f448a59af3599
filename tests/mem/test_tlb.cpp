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

namespace
{

/** Make the same range call on both TLBs and require the same outcome. */
::testing::AssertionResult
sameRange(Tlb &ranged, Tlb &stepped, Addr first, std::uint64_t steps,
          std::uint64_t stride, std::set<std::uint64_t> &touched,
          std::uint64_t page_bytes)
{
    sim::Tick expect = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
        expect += stepped.translate(first + i * stride);
        touched.insert((first + i * stride) / page_bytes);
    }
    sim::Tick got = ranged.translateRange(first, steps, stride);
    if (got != expect || ranged.hitCount() != stepped.hitCount() ||
        ranged.missCount() != stepped.missCount())
        return ::testing::AssertionFailure()
               << "translateRange(" << first << ", " << steps << ", "
               << stride << "): latency " << got << " vs " << expect
               << ", hits " << ranged.hitCount() << " vs "
               << stepped.hitCount() << ", misses " << ranged.missCount()
               << " vs " << stepped.missCount();
    return ::testing::AssertionSuccess();
}

} // namespace

/**
 * The accelerator's input stream: a page-aligned cursor that only
 * grows, translated one chunk at a time in 4 KiB steps, one step more
 * than a whole-page chunk spans. Chunks shorter than `entries` pages
 * extend the newest run of resident pages; longer ones replace it.
 * Interleaved with them: cursor skips (the next chunk does not
 * continue the run), single translations inside the run, ranges that
 * overlap it, sparse-stride and sub-page-stride ranges, and flushes.
 * Every call is checked against a twin stepped one address at a time.
 */
class TlbStreamEquivalence : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(TlbStreamEquivalence, MatchesStepwiseTranslation)
{
    const std::uint32_t entries = GetParam();
    constexpr std::uint64_t page = 4096;
    TlbConfig cfg;
    cfg.entries = entries;
    cfg.pageBytes = page;
    cfg.walkLatency = 100'000;

    sim::Simulator sim;
    Tlb ranged(sim, "ranged", cfg);
    Tlb stepped(sim, "stepped", cfg);
    sim::Rng rng(entries * 7919ull + 1);

    std::set<std::uint64_t> touched;
    Addr cursor = 0;
    std::size_t short_chunks = 0;
    std::size_t long_chunks = 0;
    for (int op = 0; op < 1500; ++op) {
        std::uint64_t kind = rng.nextUInt(20);
        if (kind < 12) {
            bool is_short = rng.nextUInt(2) == 0;
            std::uint64_t bytes =
                is_short ? rng.nextUInt((entries - 1) * page + 1)
                         : entries * page + rng.nextUInt(3 * entries * page);
            std::uint64_t steps = bytes / page + 1;
            ++(steps < entries ? short_chunks : long_chunks);
            ASSERT_TRUE(sameRange(ranged, stepped, cursor, steps, page,
                                  touched, page))
                << "op " << op;
            cursor += steps * page;
        } else if (kind == 12) {
            // Skip 1-3 pages: the next chunk starts above a hole.
            cursor += (1 + rng.nextUInt(3)) * page;
        } else if (kind == 13 && cursor >= page) {
            // One of the newest `entries` pages below the cursor.
            std::uint64_t back =
                1 + rng.nextUInt(std::min<std::uint64_t>(entries,
                                                         cursor / page));
            Addr addr = cursor - back * page + rng.nextUInt(page);
            touched.insert(addr / page);
            ASSERT_EQ(ranged.translate(addr), stepped.translate(addr))
                << "op " << op;
        } else if (kind == 14 && cursor >= page) {
            // Starts inside the newest pages and runs past the cursor.
            std::uint64_t back =
                1 + rng.nextUInt(std::min<std::uint64_t>(entries + 1,
                                                         cursor / page));
            Addr first = cursor - back * page;
            std::uint64_t steps = 1 + rng.nextUInt(2 * entries + 2);
            ASSERT_TRUE(sameRange(ranged, stepped, first, steps, page,
                                  touched, page))
                << "op " << op;
            cursor = std::max(cursor, first + steps * page);
        } else if (kind == 15) {
            std::uint64_t stride = (2 + rng.nextUInt(3)) * page;
            std::uint64_t steps = 1 + rng.nextUInt(2 * entries + 2);
            ASSERT_TRUE(sameRange(ranged, stepped, cursor, steps, stride,
                                  touched, page))
                << "op " << op;
            cursor += steps * stride;
        } else if (kind == 16) {
            // Dense but sub-page stride, from mid-page.
            Addr first = cursor + rng.nextUInt(page);
            std::uint64_t steps = 1 + rng.nextUInt(4 * entries + 4);
            ASSERT_TRUE(sameRange(ranged, stepped, first, steps, page / 4,
                                  touched, page))
                << "op " << op;
            cursor = (first + steps * (page / 4)) / page * page + page;
        } else if (kind == 17) {
            ranged.flush();
            stepped.flush();
        }
    }
    if (entries > 1) { // a one-entry TLB has no short chunks
        EXPECT_GT(short_chunks, 200u);
    }
    EXPECT_GT(long_chunks, 200u);

    std::vector<std::uint64_t> probes(touched.begin(), touched.end());
    for (std::size_t i = probes.size(); i > 1; --i)
        std::swap(probes[i - 1], probes[rng.nextUInt(i)]);
    for (std::uint64_t p : probes) {
        ASSERT_EQ(ranged.translate(p * page), stepped.translate(p * page))
            << "page " << p;
    }
}

INSTANTIATE_TEST_SUITE_P(Entries, TlbStreamEquivalence,
                         ::testing::Values(1u, 2u, 4u, 64u));
