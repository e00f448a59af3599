/**
 * @file
 * A time-interval allocator for reservation-based resource models.
 *
 * Components that resolve contention by *reserving* future time on a
 * resource (links, flash channels, buses) must not serialize behind
 * reservations made far in the future by unrelated requesters. This
 * allocator keeps the set of busy intervals and places each new
 * reservation into the earliest gap at or after its request time.
 *
 * The busy intervals live in one vector, sorted by start, disjoint
 * and never touching (adjacent intervals are merged). Entries before
 * `head` have ended and are dead; pruning only advances `head`, and
 * the dead prefix is dropped once it is both long and at least half
 * of the vector.
 */

#ifndef REACH_SIM_INTERVAL_RESOURCE_HH
#define REACH_SIM_INTERVAL_RESOURCE_HH

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "types.hh"

namespace reach::sim
{

class IntervalResource
{
  public:
    /**
     * Reserve @p duration ticks starting no earlier than @p at.
     *
     * @param now Current simulated time; intervals entirely in the
     *            past are pruned (nothing can reserve the past).
     * @return start tick of the granted interval.
     */
    Tick
    reserve(Tick duration, Tick at, Tick now)
    {
        if (duration == 0)
            return at;

        prune(now);
        Tick start = busy.empty() || busy.back().second <= at
                         ? appendAt(at, duration)
                     : busy.back().first <= at
                         ? queueBehindLast(duration)
                         : insertInGap(at, duration);
        lastEnd = std::max(lastEnd, start + duration);
        return start;
    }

    /** Tick after the last reservation granted so far. */
    Tick freeAt() const { return lastEnd; }

    /** Busy intervals still live (not yet pruned). */
    std::size_t pendingIntervals() const { return busy.size() - head; }

  private:
    using Interval = std::pair<Tick, Tick>;
    using Iter = std::vector<Interval>::iterator;

    /** Dead prefix length worth compacting (when also half the vector). */
    static constexpr std::size_t compactAt = 32;

    /**
     * Drop the intervals that ended by @p now. Ends are sorted like
     * starts, so they are a prefix of the live range; an empty live
     * range leaves an empty vector.
     */
    void
    prune(Tick now)
    {
        while (head < busy.size() && busy[head].second <= now)
            ++head;
        if (head == busy.size()) {
            busy.clear();
            head = 0;
        } else if (head >= compactAt && 2 * head >= busy.size()) {
            busy.erase(busy.begin(),
                       busy.begin() + static_cast<std::ptrdiff_t>(head));
            head = 0;
        }
    }

    /**
     * Tail fast path: every live interval ends by @p at, so the grant
     * starts at @p at and either extends the last interval (it ends
     * exactly there) or follows it.
     */
    Tick
    appendAt(Tick at, Tick duration)
    {
        if (!busy.empty() && busy.back().second == at)
            busy.back().second = at + duration;
        else
            busy.emplace_back(at, at + duration);
        return at;
    }

    /**
     * Queue-behind fast path: the last interval covers @p at, so
     * everything from @p at to its end is busy and nothing follows
     * it. The grant starts where it ends and extends it in place.
     */
    Tick
    queueBehindLast(Tick duration)
    {
        Tick start = busy.back().second;
        busy.back().second = start + duration;
        return start;
    }

    /** Earliest-gap placement among the live intervals, then merge. */
    Tick
    insertInGap(Tick at, Tick duration)
    {
        Iter live = busy.begin() + static_cast<std::ptrdiff_t>(head);
        auto startsAfter = [](Tick t, const Interval &iv) {
            return t < iv.first;
        };

        // Busy intervals are disjoint and sorted by start, so their
        // ends are sorted too: every interval before the last one
        // starting at or before `at` ends by `at`, and the scan can
        // begin there.
        Iter first = std::upper_bound(live, busy.end(), at, startsAfter);
        if (first != live && std::prev(first)->second > at)
            --first;
        Tick start = at;
        for (Iter it = first; it != busy.end(); ++it) {
            if (it->second <= start)
                continue;
            if (it->first >= start + duration)
                break;
            start = std::max(start, it->second);
        }

        // No live interval starts at `start` (the grant is free), so
        // `next` is the first one after it and `next - 1` the last one
        // before it.
        Tick end = start + duration;
        Iter next = std::upper_bound(first, busy.end(), start, startsAfter);
        bool joins_prev = next != live && std::prev(next)->second == start;
        bool joins_next = next != busy.end() && next->first == end;
        if (joins_prev && joins_next) {
            std::prev(next)->second = next->second;
            busy.erase(next);
        } else if (joins_prev) {
            std::prev(next)->second = end;
        } else if (joins_next) {
            next->first = start;
        } else {
            busy.insert(next, Interval{start, end});
        }
        return start;
    }

    std::vector<Interval> busy;
    /** Index of the first live interval. */
    std::size_t head = 0;
    Tick lastEnd = 0;
};

} // namespace reach::sim

#endif // REACH_SIM_INTERVAL_RESOURCE_HH
