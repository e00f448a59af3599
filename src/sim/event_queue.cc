#include "event_queue.hh"

#include <algorithm>

#include "logging.hh"

namespace reach::sim
{

namespace
{

/** Split an external event id into its (generation, slot) halves. */
constexpr std::uint32_t
idSlot(std::uint64_t id)
{
    return static_cast<std::uint32_t>(id);
}

constexpr std::uint32_t
idGen(std::uint64_t id)
{
    return static_cast<std::uint32_t>(id >> 32);
}

} // namespace

std::uint64_t
EventQueue::schedule(Tick when, Callback cb, EventPriority prio,
                     std::string name)
{
    if (when < curTick) {
        panic("event '", name.empty() ? "<anon>" : name,
              "' scheduled in the past: when=", when, " now=", curTick);
    }
    if (!cb)
        panic("null callback scheduled at tick ", when);

    std::uint32_t slot;
    if (!freeSlots.empty()) {
        slot = freeSlots.back();
        freeSlots.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots.size());
        slots.emplace_back();
    }
    Slot &s = slots[slot];
    s.cb = std::move(cb);

    // prioSeq packs the same-tick ordering key into one word; see the
    // header for the bit budget. Priorities are small non-negative
    // ints by construction of EventPriority.
    std::uint64_t seq = nextSeq++;
    std::uint64_t prio_seq =
        (static_cast<std::uint64_t>(static_cast<int>(prio)) << 48) |
        seq;
    heap.push_back(HeapEntry{when, prio_seq, slot, s.gen});
    std::push_heap(heap.begin(), heap.end(), Later{});
    ++numPending;
    return (static_cast<std::uint64_t>(s.gen) << 32) | slot;
}

bool
EventQueue::deschedule(std::uint64_t event_id)
{
    // Only live events can be cancelled; executed, cancelled or
    // unknown ids fail the generation check and are a no-op.
    std::uint32_t slot = idSlot(event_id);
    if (slot >= slots.size() || slots[slot].gen != idGen(event_id))
        return false;
    releaseSlot(slot);
    --numPending;
    // The heap entry stays behind with a stale generation; it is
    // dropped when it surfaces, or in bulk by compact().
    ++heapStale;
    if (heapStale >= compactMinStale && heapStale * 2 > heap.size())
        compact();
    return true;
}

void
EventQueue::releaseSlot(std::uint32_t slot)
{
    Slot &s = slots[slot];
    s.cb = nullptr;
    ++s.gen;
    freeSlots.push_back(slot);
}

void
EventQueue::compact()
{
    auto stale = [this](const HeapEntry &e) {
        return slots[e.slot].gen != e.gen;
    };
    heap.erase(std::remove_if(heap.begin(), heap.end(), stale),
               heap.end());
    std::make_heap(heap.begin(), heap.end(), Later{});
    heapStale = 0;
}

void
EventQueue::dropStaleTop()
{
    while (!heap.empty()) {
        const HeapEntry &top = heap.front();
        if (slots[top.slot].gen == top.gen)
            return;
        std::pop_heap(heap.begin(), heap.end(), Later{});
        heap.pop_back();
        --heapStale;
    }
}

Tick
EventQueue::nextEventTick() const
{
    auto *self = const_cast<EventQueue *>(this);
    self->dropStaleTop();
    return heap.empty() ? maxTick : heap.front().when;
}

void
EventQueue::runOne()
{
    dropStaleTop();
    if (heap.empty())
        panic("runOne() on an empty event queue");

    HeapEntry top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), Later{});
    heap.pop_back();

    // Detach the callback and retire the slot *before* invoking, so
    // the callback may freely schedule (and even reuse the slot).
    Callback cb = std::move(slots[top.slot].cb);
    releaseSlot(top.slot);
    --numPending;

    if (top.when < curTick)
        panic("event queue time went backwards");
    curTick = top.when;
    ++executed;
    cb();
}

} // namespace reach::sim
