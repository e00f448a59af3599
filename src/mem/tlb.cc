#include "tlb.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace reach::mem
{

Tlb::Tlb(sim::Simulator &sim, const std::string &name,
         const TlbConfig &config)
    : sim::SimObject(sim, name),
      cfg(config),
      statHits(name + ".hits", "TLB hits"),
      statMisses(name + ".misses", "TLB misses (page walks)")
{
    if (cfg.entries == 0 || cfg.pageBytes == 0)
        sim::fatal(name, ": TLB needs at least one entry and a nonzero "
                         "page size");
    registerStat(statHits);
    registerStat(statMisses);
    lru.reserve(cfg.entries);
}

sim::Tick
Tlb::translate(Addr addr)
{
    std::uint64_t page = addr / cfg.pageBytes;

    auto it = std::find(lru.begin(), lru.end(), page);
    if (it != lru.end()) {
        ++statHits;
        std::rotate(lru.begin(), it, it + 1);
        return 0;
    }

    ++statMisses;
    if (lru.size() >= cfg.entries)
        lru.pop_back();
    lru.insert(lru.begin(), page);
    return cfg.walkLatency;
}

sim::Tick
Tlb::translateRange(Addr first, std::uint64_t steps, std::uint64_t stride)
{
    if (steps == 0)
        return 0;

    Addr last = first + (steps - 1) * stride;
    std::uint64_t first_page = first / cfg.pageBytes;
    std::uint64_t last_page = last / cfg.pageBytes;
    bool overlaps = std::any_of(lru.begin(), lru.end(),
                                [&](std::uint64_t p) {
                                    return p >= first_page &&
                                           p <= last_page;
                                });
    if (overlaps) {
        sim::Tick total = 0;
        for (std::uint64_t i = 0; i < steps; ++i)
            total += translate(first + i * stride);
        return total;
    }

    // No page of the range is resident, and the walk only moves
    // forward, so every step that enters a new page misses and every
    // other step hits the page just inserted. A stride no larger than
    // a page touches every page of the range; a larger one lands on a
    // new page each step.
    bool dense = stride <= cfg.pageBytes;
    std::uint64_t pages = dense ? last_page - first_page + 1 : steps;
    std::uint64_t fresh = std::min<std::uint64_t>(pages, cfg.entries);
    lru.resize(std::min<std::size_t>(lru.size(), cfg.entries - fresh));
    lru.insert(lru.begin(), fresh, 0);
    for (std::uint64_t k = 0; k < fresh; ++k) {
        lru[k] = dense ? last_page - k
                       : (last - k * stride) / cfg.pageBytes;
    }

    statMisses += static_cast<double>(pages);
    statHits += static_cast<double>(steps - pages);
    return pages * cfg.walkLatency;
}

void
Tlb::flush()
{
    lru.clear();
}

} // namespace reach::mem
