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

void
Tlb::settleRun()
{
    if (runLen == 0)
        return;
    lru.resize(std::min<std::size_t>(lru.size(), cfg.entries - runLen));
    lru.insert(lru.begin(), runLen, 0);
    for (std::uint64_t k = 0; k < runLen; ++k)
        lru[k] = runTop - k;
    runLen = 0;
}

sim::Tick
Tlb::translate(Addr addr)
{
    settleRun();
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

bool
Tlb::residentIn(std::uint64_t first_page, std::uint64_t last_page) const
{
    if (runLen != 0 && first_page <= runTop &&
        last_page + runLen > runTop)
        return true;
    auto kept = lru.begin() + static_cast<std::ptrdiff_t>(std::min<
                    std::size_t>(lru.size(), cfg.entries - runLen));
    return std::any_of(lru.begin(), kept, [&](std::uint64_t p) {
        return p >= first_page && p <= last_page;
    });
}

sim::Tick
Tlb::translateRange(Addr first, std::uint64_t steps, std::uint64_t stride)
{
    if (steps == 0)
        return 0;

    Addr last = first + (steps - 1) * stride;
    std::uint64_t first_page = first / cfg.pageBytes;
    std::uint64_t last_page = last / cfg.pageBytes;
    if (residentIn(first_page, last_page)) {
        sim::Tick total = 0;
        for (std::uint64_t i = 0; i < steps; ++i)
            total += translate(first + i * stride);
        return total;
    }

    // No page of the range is resident, and the walk only moves
    // forward, so every step that enters a new page misses and every
    // other step hits the page just inserted.
    if (stride <= cfg.pageBytes) {
        // Every page of the range is touched. Its newest
        // min(entries, pages) pages, a descending run ending at
        // last_page, go in front of the old entries. A range that
        // starts right above the run extends it; one that fills the
        // TLB replaces everything; any other starts a new run in
        // front of the settled old one.
        std::uint64_t pages = last_page - first_page + 1;
        bool continues = runLen != 0 && first_page == runTop + 1;
        if (!continues && pages < cfg.entries)
            settleRun();
        runLen = std::min<std::uint64_t>(
            cfg.entries, (continues ? runLen : 0) + pages);
        runTop = last_page;
        statMisses += static_cast<double>(pages);
        statHits += static_cast<double>(steps - pages);
        return pages * cfg.walkLatency;
    }

    // A stride larger than a page lands on a new page each step.
    settleRun();
    std::uint64_t fresh = std::min<std::uint64_t>(steps, cfg.entries);
    lru.resize(std::min<std::size_t>(lru.size(), cfg.entries - fresh));
    lru.insert(lru.begin(), fresh, 0);
    for (std::uint64_t k = 0; k < fresh; ++k)
        lru[k] = (last - k * stride) / cfg.pageBytes;
    statMisses += static_cast<double>(steps);
    return steps * cfg.walkLatency;
}

void
Tlb::flush()
{
    lru.clear();
    runLen = 0;
}

} // namespace reach::mem
