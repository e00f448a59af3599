/**
 * @file
 * Unit + property tests for the gap-filling interval allocator that
 * underpins every reservation-based resource (links, flash
 * channels).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/interval_resource.hh"
#include "sim/rng.hh"

using namespace reach::sim;

TEST(IntervalResource, FirstReservationStartsAtRequest)
{
    IntervalResource r;
    EXPECT_EQ(r.reserve(100, 50, 0), 50u);
    EXPECT_EQ(r.freeAt(), 150u);
}

TEST(IntervalResource, ZeroDurationIsFree)
{
    IntervalResource r;
    EXPECT_EQ(r.reserve(0, 42, 0), 42u);
    EXPECT_EQ(r.freeAt(), 0u);
}

TEST(IntervalResource, BackToBackQueues)
{
    IntervalResource r;
    EXPECT_EQ(r.reserve(100, 0, 0), 0u);
    EXPECT_EQ(r.reserve(100, 0, 0), 100u);
    EXPECT_EQ(r.reserve(100, 0, 0), 200u);
}

TEST(IntervalResource, GapBeforeFutureReservationIsUsable)
{
    IntervalResource r;
    // Something reserved far in the future...
    EXPECT_EQ(r.reserve(100, 10'000, 0), 10'000u);
    // ...must not block earlier traffic.
    EXPECT_EQ(r.reserve(100, 0, 0), 0u);
    EXPECT_EQ(r.reserve(100, 0, 0), 100u);
}

TEST(IntervalResource, ExactGapIsFilled)
{
    IntervalResource r;
    r.reserve(100, 0, 0);    // [0,100)
    r.reserve(100, 200, 0);  // [200,300)
    // A 100-tick request fits exactly in [100,200).
    EXPECT_EQ(r.reserve(100, 0, 0), 100u);
    // The next one goes after everything.
    EXPECT_EQ(r.reserve(100, 0, 0), 300u);
}

TEST(IntervalResource, TooSmallGapIsSkipped)
{
    IntervalResource r;
    r.reserve(100, 0, 0);   // [0,100)
    r.reserve(100, 150, 0); // [150,250)
    // 80 > the 50-tick gap: lands after the second interval.
    EXPECT_EQ(r.reserve(80, 0, 0), 250u);
    // 50 fits the gap exactly.
    EXPECT_EQ(r.reserve(50, 0, 0), 100u);
}

TEST(IntervalResource, PruningDropsPastIntervals)
{
    IntervalResource r;
    for (int i = 0; i < 10; ++i)
        r.reserve(10, 0, 0);
    EXPECT_GE(r.pendingIntervals(), 1u);
    // Reserving with `now` far beyond everything prunes the map.
    r.reserve(10, 1'000'000, 1'000'000);
    EXPECT_EQ(r.pendingIntervals(), 1u);
}

TEST(IntervalResource, AdjacentReservationsMerge)
{
    IntervalResource r;
    r.reserve(100, 0, 0);
    r.reserve(100, 0, 0); // lands at [100,200), merges with [0,100)
    EXPECT_EQ(r.pendingIntervals(), 1u);
}

/** Property: granted intervals never overlap and honor `at`. */
class IntervalProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(IntervalProperty, NoOverlapsEver)
{
    IntervalResource r;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);

    std::vector<std::pair<Tick, Tick>> granted;
    for (int i = 0; i < 300; ++i) {
        Tick dur = 1 + rng.nextUInt(50);
        Tick at = rng.nextUInt(2000);
        Tick start = r.reserve(dur, at, 0);
        EXPECT_GE(start, at);
        granted.push_back({start, start + dur});
    }

    std::sort(granted.begin(), granted.end());
    for (std::size_t i = 1; i < granted.size(); ++i) {
        EXPECT_LE(granted[i - 1].second, granted[i].first)
            << "overlap between reservations " << i - 1 << " and "
            << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalProperty,
                         ::testing::Range(0, 8));

namespace
{

/** The allocator as first written: every gap scan starts at begin(). */
class BeginScanReference
{
  public:
    Tick
    reserve(Tick duration, Tick at, Tick now)
    {
        if (duration == 0)
            return at;
        while (!busy.empty() && busy.begin()->second <= now)
            busy.erase(busy.begin());
        Tick start = at;
        for (const auto &[s, e] : busy) {
            if (e <= start)
                continue;
            if (s >= start + duration)
                break;
            start = std::max(start, e);
        }
        Tick merged_start = start;
        Tick merged_end = start + duration;
        auto next = busy.lower_bound(merged_start);
        if (next != busy.begin()) {
            auto prev = std::prev(next);
            if (prev->second == merged_start) {
                merged_start = prev->first;
                busy.erase(prev);
                next = busy.lower_bound(merged_start);
            }
        }
        if (next != busy.end() && next->first == merged_end) {
            merged_end = next->second;
            busy.erase(next);
        }
        busy.emplace(merged_start, merged_end);
        lastEnd = std::max(lastEnd, start + duration);
        return start;
    }

    Tick freeAt() const { return lastEnd; }
    std::size_t pendingIntervals() const { return busy.size(); }

  private:
    std::map<Tick, Tick> busy;
    Tick lastEnd = 0;
};

} // namespace

TEST_P(IntervalProperty, MatchesBeginScanReference)
{
    IntervalResource r;
    BeginScanReference ref;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);

    Tick now = 0;
    for (int i = 0; i < 12'000; ++i) {
        now += rng.nextUInt(40);
        Tick dur = rng.nextUInt(4) == 0 ? 0 : 1 + rng.nextUInt(60);
        // Requests land in the past, at now, and up to far ahead, so
        // gaps open in front of later reservations.
        Tick at = now + rng.nextUInt(3000);
        if (at >= 500 && rng.nextUInt(5) == 0)
            at -= 500;
        ASSERT_EQ(r.reserve(dur, at, now), ref.reserve(dur, at, now))
            << "reservation " << i;
        ASSERT_EQ(r.freeAt(), ref.freeAt()) << "reservation " << i;
        ASSERT_EQ(r.pendingIntervals(), ref.pendingIntervals())
            << "reservation " << i;
    }
}
