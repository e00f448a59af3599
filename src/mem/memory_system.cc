#include "memory_system.hh"

#include <algorithm>
#include <memory>

#include "sim/logging.hh"

namespace reach::mem
{

MemorySystem::MemorySystem(sim::Simulator &sim, const std::string &name,
                           const MemorySystemConfig &config)
    : sim::SimObject(sim, name), cfg(config)
{
    localTop.assign(cfg.numChannels,
                    std::vector<Addr>(cfg.dimmsPerChannel, 0));

    for (std::uint32_t ch = 0; ch < cfg.numChannels; ++ch) {
        std::vector<Dimm *> channel_dimms;
        for (std::uint32_t d = 0; d < cfg.dimmsPerChannel; ++d) {
            auto dimm = std::make_unique<Dimm>(
                sim,
                name + ".ch" + std::to_string(ch) + ".dimm" +
                    std::to_string(d),
                cfg.dimmTimings);
            channel_dimms.push_back(dimm.get());
            dimms.push_back(std::move(dimm));
        }
        ctrls.push_back(std::make_unique<MemController>(
            sim, name + ".mc" + std::to_string(ch), channel_dimms,
            cfg.ctrlConfig));
    }
}

Addr
MemorySystem::addRegion(const std::string &region_name, std::uint64_t size,
                        std::vector<DimmRef> units,
                        std::uint64_t interleave_bytes)
{
    if (units.empty())
        sim::fatal("region '", region_name, "' has no DIMMs");
    if (size == 0)
        sim::fatal("region '", region_name, "' has zero size");
    for (const auto &u : units) {
        if (u.channel >= cfg.numChannels ||
            u.dimm >= cfg.dimmsPerChannel) {
            sim::fatal("region '", region_name,
                       "' references a DIMM out of range");
        }
    }

    Region region;
    region.name = region_name;
    region.base = nextBase;
    region.size = size;
    region.units = std::move(units);
    region.interleave = interleave_bytes;

    // Reserve DIMM-local space: each unit holds ceil(blocks/units)
    // interleave blocks.
    std::uint64_t blocks =
        (size + interleave_bytes - 1) / interleave_bytes;
    std::uint64_t per_unit_blocks =
        (blocks + region.units.size() - 1) / region.units.size();
    std::uint64_t per_unit_bytes = per_unit_blocks * interleave_bytes;

    for (const auto &u : region.units) {
        Addr &top = localTop[u.channel][u.dimm];
        if (top + per_unit_bytes >
            cfg.dimmTimings.capacityBytes) {
            sim::fatal("region '", region_name, "' exceeds capacity of ",
                       "ch", u.channel, ".dimm", u.dimm);
        }
        region.localBase.push_back(top);
        top += per_unit_bytes;
    }

    nextBase += size;
    // Keep regions line-aligned relative to each other.
    nextBase = (nextBase + cacheLineBytes - 1) & ~(cacheLineBytes - 1);

    regions.push_back(std::move(region));
    return regions.back().base;
}

const MemorySystem::Region &
MemorySystem::regionFor(Addr addr) const
{
    for (const auto &r : regions) {
        if (addr >= r.base && addr < r.base + r.size)
            return r;
    }
    sim::panic(name(), ": address ", addr, " falls in no region");
}

MemorySystem::Target
MemorySystem::resolve(Addr addr) const
{
    const Region &r = regionFor(addr);
    Addr offset = addr - r.base;
    std::uint64_t block = offset / r.interleave;
    std::uint64_t in_block = offset % r.interleave;
    std::size_t unit = block % r.units.size();
    std::uint64_t unit_block = block / r.units.size();

    Target t;
    t.ref = r.units[unit];
    t.localAddr =
        r.localBase[unit] + unit_block * r.interleave + in_block;
    return t;
}

DimmRef
MemorySystem::locate(Addr addr) const
{
    return resolve(addr).ref;
}

bool
MemorySystem::access(const MemRequest &req)
{
    Target t = resolve(req.addr);
    MemRequest local = req;
    local.addr = t.localAddr;
    return ctrls[t.ref.channel]->enqueue(t.ref.dimm, local);
}

void
MemorySystem::accessRange(Addr addr, std::uint64_t bytes, bool write,
                          Requester source,
                          std::function<void(sim::Tick)> on_done)
{
    if (bytes == 0) {
        if (on_done)
            on_done(now());
        return;
    }

    // Shared issue state across retries/completions.
    struct RangeState
    {
        Addr next;
        Addr end;
        std::uint64_t outstanding = 0;
        bool all_issued = false;
        std::function<void(sim::Tick)> done;
    };
    auto st = std::make_shared<RangeState>();
    st->next = lineAlign(addr);
    st->end = addr + bytes;
    st->done = std::move(on_done);

    // Issue as many lines as the controllers accept, then retry on a
    // short backoff. Completion of the last line fires on_done. The
    // function captures itself weakly — a retry event holds the only
    // strong reference, so finished pumps are actually freed.
    auto pump = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak_pump = pump;
    *pump = [this, st, write, source, weak_pump]() {
        while (st->next < st->end) {
            MemRequest req;
            req.addr = st->next;
            req.write = write;
            req.source = source;
            req.onComplete = [st](sim::Tick t) {
                --st->outstanding;
                if (st->all_issued && st->outstanding == 0 && st->done)
                    st->done(t);
            };
            if (!access(req)) {
                // Backpressure: retry after roughly one burst time.
                scheduleIn(cfg.dimmTimings.tBL * 4,
                           [p = weak_pump.lock()] { (*p)(); },
                           sim::EventPriority::Default, "rangeRetry");
                return;
            }
            ++st->outstanding;
            st->next += cacheLineBytes;
        }
        st->all_issued = true;
        if (st->outstanding == 0 && st->done)
            st->done(now());
    };
    (*pump)();
}

double
MemorySystem::dramDynamicEnergyPj() const
{
    double total = 0;
    for (const auto &d : dimms)
        total += d->dynamicEnergyPj();
    return total;
}

} // namespace reach::mem
