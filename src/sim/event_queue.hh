/**
 * @file
 * The discrete-event scheduling core.
 *
 * Events are callbacks ordered by (tick, priority, sequence number);
 * the sequence number makes same-tick/same-priority ordering follow
 * insertion order, so simulations are fully deterministic.
 *
 * Hot-path layout: the binary heap holds 24-byte POD entries (tick,
 * packed priority|sequence, slot index, generation); callbacks live
 * in a pooled slot arena recycled through a free list, so
 * steady-state scheduling performs no heap allocation beyond what the
 * callback's own closure needs. The layout is the same with and
 * without NDEBUG. A per-slot generation counter makes deschedule()
 * O(1) with no hashing: cancelling bumps the generation, and stale
 * heap entries are dropped when they surface — or in bulk by a lazy
 * compaction pass once they outnumber the live ones.
 */

#ifndef REACH_SIM_EVENT_QUEUE_HH
#define REACH_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "types.hh"

namespace reach::sim
{

/** Relative ordering of events scheduled for the same tick. */
enum class EventPriority : int
{
    /** Progress/status bookkeeping runs before ordinary events. */
    Control = 0,
    /** Default priority for component activity. */
    Default = 50,
    /** Statistic dumps and end-of-tick observers run last. */
    Observer = 100,
};

/**
 * A time-ordered queue of callbacks. One instance per Simulator.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * @param when  Absolute tick; must not be before the current tick.
     * @param cb    Callback to invoke.
     * @param prio  Same-tick ordering class.
     * @param name  Optional label for the past-tick panic message; not
     *              retained.
     * @return Event id usable with deschedule(). Ids are unique among
     *         pending events but are recycled over time; they are
     *         *not* monotonically increasing.
     */
    std::uint64_t schedule(Tick when, Callback cb,
                           EventPriority prio = EventPriority::Default,
                           std::string name = {});

    /**
     * Cancel a previously scheduled event. O(1): no hashing, no heap
     * traversal.
     * @retval true if the event was pending and is now cancelled.
     */
    bool deschedule(std::uint64_t event_id);

    /** Run the earliest pending event, advancing the current tick. */
    void runOne();

    /** @return true if no events are pending. */
    bool empty() const { return numPending == 0; }

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return numPending; }

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Tick of the earliest pending event (maxTick when empty). */
    Tick nextEventTick() const;

    /** Total events executed since construction. */
    std::uint64_t numExecuted() const { return executed; }

    /**
     * Heap entries currently held, including cancelled ones awaiting
     * compaction. Exposed so tests can assert that schedule/cancel
     * storms do not grow the heap without bound.
     */
    std::size_t heapEntries() const { return heap.size(); }

    /** Arena slots allocated (live + free-listed). */
    std::size_t arenaSlots() const { return slots.size(); }

  private:
    /**
     * One pending occurrence in the time order. POD: the callback
     * lives in the slot arena, not on the heap entry, so sift
     * operations move 24 bytes instead of a std::function + string.
     */
    struct HeapEntry
    {
        Tick when;
        /**
         * (priority << 48) | sequence. Comparing this single word
         * equals the lexicographic (priority, seq) comparison because
         * priorities fit in 16 bits and the insertion sequence stays
         * below 2^48.
         */
        std::uint64_t prioSeq;
        std::uint32_t slot;
        /** Slot generation at scheduling time; stale => cancelled. */
        std::uint32_t gen;
    };

    /** Min-heap order on (when, prioSeq). */
    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.prioSeq > b.prioSeq;
        }
    };

    /**
     * Callback storage for one pending event. Recycled through
     * freeSlots; gen increments on every release so ids and heap
     * entries from earlier occupancies can be recognized as stale.
     */
    struct Slot
    {
        Callback cb;
        std::uint32_t gen = 0;
    };

    /** Compact once stale entries dominate a heap at least this big. */
    static constexpr std::size_t compactMinStale = 64;

    /** Drop cancelled entries sitting at the top of the heap. */
    void dropStaleTop();

    /** Rebuild the heap without cancelled entries. */
    void compact();

    /** Release @p slot back to the free list, invalidating its ids. */
    void releaseSlot(std::uint32_t slot);

    std::vector<HeapEntry> heap;
    std::vector<Slot> slots;
    std::vector<std::uint32_t> freeSlots;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t executed = 0;
    std::size_t numPending = 0;
    /** Cancelled entries still sitting somewhere in the heap. */
    std::size_t heapStale = 0;
};

} // namespace reach::sim

#endif // REACH_SIM_EVENT_QUEUE_HH
