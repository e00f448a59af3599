/**
 * @file
 * A time-interval allocator for reservation-based resource models.
 *
 * Components that resolve contention by *reserving* future time on a
 * resource (links, flash channels, buses) must not serialize behind
 * reservations made far in the future by unrelated requesters. This
 * allocator keeps the set of busy intervals and places each new
 * reservation into the earliest gap at or after its request time.
 */

#ifndef REACH_SIM_INTERVAL_RESOURCE_HH
#define REACH_SIM_INTERVAL_RESOURCE_HH

#include <algorithm>
#include <map>

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

        while (!busy.empty() && busy.begin()->second <= now)
            busy.erase(busy.begin());

        // Earliest-gap placement. Busy intervals are disjoint and
        // sorted by start, so their ends are sorted too: every interval
        // before the last one starting at or before `at` ends by `at`,
        // and the scan can begin there.
        auto first = busy.upper_bound(at);
        if (first != busy.begin() && std::prev(first)->second > at)
            --first;
        Tick start = at;
        for (auto it = first; it != busy.end(); ++it) {
            auto [s, e] = *it;
            if (e <= start)
                continue;
            if (s >= start + duration)
                break;
            start = std::max(start, e);
        }

        // Insert, merging with adjacent intervals.
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

    /** Tick after the last reservation granted so far. */
    Tick freeAt() const { return lastEnd; }

    std::size_t pendingIntervals() const { return busy.size(); }

  private:
    std::map<Tick, Tick> busy;
    Tick lastEnd = 0;
};

} // namespace reach::sim

#endif // REACH_SIM_INTERVAL_RESOURCE_HH
