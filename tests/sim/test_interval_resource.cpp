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
    /** The latest busy interval; the allocator must hold one. */
    std::pair<Tick, Tick> lastInterval() const { return *busy.rbegin(); }

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

namespace
{

/** Make the same reservation on both and require the same outcome. */
::testing::AssertionResult
sameGrant(IntervalResource &r, BeginScanReference &ref, Tick dur, Tick at,
          Tick now)
{
    Tick got = r.reserve(dur, at, now);
    Tick want = ref.reserve(dur, at, now);
    if (got != want)
        return ::testing::AssertionFailure()
               << "reserve(" << dur << ", " << at << ", " << now
               << ") granted " << got << ", reference " << want;
    if (r.freeAt() != ref.freeAt() ||
        r.pendingIntervals() != ref.pendingIntervals())
        return ::testing::AssertionFailure()
               << "after reserve(" << dur << ", " << at << ", " << now
               << "): freeAt " << r.freeAt() << " vs " << ref.freeAt()
               << ", pending " << r.pendingIntervals() << " vs "
               << ref.pendingIntervals();
    return ::testing::AssertionSuccess();
}

} // namespace

TEST_P(IntervalProperty, BulkPruneMatchesReference)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 5);
    // One call prunes a few dozen intervals, one prunes over a
    // thousand; some leave a short live tail (the dead prefix is
    // compacted), some a long one (it is kept and pruned later).
    for (std::size_t intervals : {40u, 70u, 1200u, 2500u}) {
        IntervalResource r;
        BeginScanReference ref;
        // Disjoint, non-touching intervals, each at [20i, 20i + d).
        for (std::size_t i = 0; i < intervals; ++i) {
            ASSERT_TRUE(sameGrant(r, ref, 1 + rng.nextUInt(10),
                                  Tick(20 * i), 0));
        }
        ASSERT_EQ(r.pendingIntervals(), intervals);

        std::size_t pruned = 33 + rng.nextUInt(intervals - 34);
        if (intervals > 1000)
            pruned = 1001 + rng.nextUInt(intervals - 1002);
        // [now + 12, now + 15) touches no interval.
        Tick now = Tick(20 * pruned);
        ASSERT_TRUE(sameGrant(r, ref, 3, now + 12, now));
        ASSERT_EQ(r.pendingIntervals(), intervals - pruned + 1)
            << intervals << " intervals, " << pruned << " pruned";

        // Keep going over the compacted (or not) vector.
        for (int i = 0; i < 3000; ++i) {
            now += rng.nextUInt(12);
            Tick at = now + rng.nextUInt(400);
            ASSERT_TRUE(sameGrant(r, ref, 1 + rng.nextUInt(15), at, now))
                << "step " << i;
        }
        // Everything ends: the vector empties and starts over.
        now = r.freeAt();
        ASSERT_TRUE(sameGrant(r, ref, 7, now, now));
        EXPECT_EQ(r.pendingIntervals(), 1u);
    }
}

TEST_P(IntervalProperty, TailReservationsMatchReference)
{
    IntervalResource r;
    BeginScanReference ref;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 11);
    Tick now = 0;
    std::size_t joins = 0;
    std::size_t appends = 0;
    for (int i = 0; i < 4000; ++i) {
        Tick dur = 1 + rng.nextUInt(30);
        Tick at = r.freeAt();
        // Mostly back-to-back (the last interval grows in place),
        // sometimes after a gap (a new interval is appended).
        if (rng.nextUInt(4) == 0)
            at += 1 + rng.nextUInt(20);
        now = std::max(now, at > 200 ? at - rng.nextUInt(200) : 0);
        bool joins_last = at == r.freeAt() && now < at && at > 0;
        std::size_t before = r.pendingIntervals();
        ASSERT_TRUE(sameGrant(r, ref, dur, at, now)) << "step " << i;
        EXPECT_EQ(r.freeAt(), at + dur);
        if (joins_last) {
            EXPECT_LE(r.pendingIntervals(), before) << "step " << i;
            ++joins;
        } else {
            ++appends;
        }
    }
    EXPECT_GT(joins, 1000u);
    EXPECT_GT(appends, 500u);
}

TEST_P(IntervalProperty, ExactGapFillMergesBothNeighbours)
{
    IntervalResource r;
    BeginScanReference ref;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 59 + 17);
    // A row of intervals separated by gaps of known width, all in the
    // future so nothing is pruned.
    std::vector<std::pair<Tick, Tick>> gaps;
    Tick t = 1000;
    for (int i = 0; i < 200; ++i) {
        Tick dur = 1 + rng.nextUInt(40);
        ASSERT_TRUE(sameGrant(r, ref, dur, t, 0));
        Tick gap = 1 + rng.nextUInt(40);
        gaps.push_back({t + dur, gap});
        t += dur + gap;
    }
    gaps.pop_back(); // the last "gap" is open-ended
    // Fill the gaps in random order, each with a request for exactly
    // its start and width: the grant joins both neighbours.
    for (std::size_t i = gaps.size(); i > 1; --i)
        std::swap(gaps[i - 1], gaps[rng.nextUInt(i)]);
    for (auto [start, width] : gaps) {
        std::size_t before = r.pendingIntervals();
        ASSERT_EQ(r.reserve(width, start, 0), start);
        ASSERT_EQ(ref.reserve(width, start, 0), start);
        ASSERT_EQ(r.pendingIntervals(), before - 1);
        ASSERT_EQ(r.pendingIntervals(), ref.pendingIntervals());
    }
    EXPECT_EQ(r.pendingIntervals(), 1u);
    // The gap in front of the first interval is still open.
    EXPECT_TRUE(sameGrant(r, ref, 10, 0, 0));
    EXPECT_EQ(r.pendingIntervals(), 2u);
}

TEST_P(IntervalProperty, QueueBehindLastMatchesReference)
{
    IntervalResource r;
    BeginScanReference ref;
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 23);
    Tick now = 0;
    std::size_t queued = 0;
    std::size_t gap_fills = 0;
    for (int i = 0; i < 6000; ++i) {
        now += rng.nextUInt(10);
        Tick dur = 1 + rng.nextUInt(40);
        Tick at = now;
        std::uint64_t kind = rng.nextUInt(8);
        if (r.pendingIntervals() == 0 || kind < 2) {
            // Tail append, right behind or after a hole.
            at = std::max(now, r.freeAt()) + rng.nextUInt(3) * 30;
        } else {
            auto [first, end] = ref.lastInterval();
            if (kind < 6) {
                // Inside the last interval: at its start, one tick
                // before its end, or anywhere between.
                if (kind == 2)
                    at = first;
                else if (kind == 3)
                    at = end - 1;
                else
                    at = first + rng.nextUInt(end - first);
                at = std::max(at, now);
                queued += at < end;
            } else if (first > now) {
                // Before the last interval: a gap, or a queue behind
                // an earlier interval. Intervals never touch, so the
                // tick before the last one's start is free.
                if (kind == 6) {
                    at = first - 1;
                    dur = 1 + rng.nextUInt(2);
                } else {
                    at = now + rng.nextUInt(first - now);
                }
                ++gap_fills;
            }
        }
        ASSERT_TRUE(sameGrant(r, ref, dur, at, now)) << "step " << i;
    }
    EXPECT_GT(queued, 1500u);
    EXPECT_GT(gap_fills, 300u);
}
