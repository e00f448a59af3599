/**
 * @file
 * The main-memory complex: DIMMs behind per-channel controllers, plus
 * named *regions* that define how address ranges interleave across
 * channels and DIMMs.
 *
 * Regions are the mechanism behind the GAM's memory reorganization
 * (paper §III-B): a host region interleaves at cache-line granularity
 * across the host-facing DIMMs, while each near-memory region
 * interleaves at the accelerator's tile granularity across the
 * AIM-attached DIMMs.
 */

#ifndef REACH_MEM_MEMORY_SYSTEM_HH
#define REACH_MEM_MEMORY_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/dimm.hh"
#include "mem/mem_controller.hh"
#include "mem/packet.hh"
#include "sim/simulator.hh"

namespace reach::mem
{

struct MemorySystemConfig
{
    std::uint32_t numChannels = 2;
    std::uint32_t dimmsPerChannel = 4;
    DramTimings dimmTimings{};
    MemCtrlConfig ctrlConfig{};
};

/** A (controller, dimm-slot) pair. */
struct DimmRef
{
    std::uint32_t channel = 0;
    std::uint32_t dimm = 0;

    bool
    operator==(const DimmRef &o) const
    {
        return channel == o.channel && dimm == o.dimm;
    }
};

class MemorySystem : public sim::SimObject
{
  public:
    MemorySystem(sim::Simulator &sim, const std::string &name,
                 const MemorySystemConfig &cfg = {});

    /**
     * Carve out a region of the physical address space.
     *
     * @param region_name      For stats/errors.
     * @param size             Region size in bytes.
     * @param units            DIMMs the region stripes across.
     * @param interleave_bytes Striping granularity.
     * @return base address of the new region.
     */
    Addr addRegion(const std::string &region_name, std::uint64_t size,
                   std::vector<DimmRef> units,
                   std::uint64_t interleave_bytes);

    /** Route one line-sized request by physical address. */
    bool access(const MemRequest &req);

    /**
     * Issue a multi-line transfer with automatic retry under
     * controller backpressure.
     *
     * @param on_done Called once, when the final line completes.
     */
    void accessRange(Addr addr, std::uint64_t bytes, bool write,
                     Requester source,
                     std::function<void(sim::Tick)> on_done);

    /** Which DIMM a physical address maps to (for DMA targeting). */
    DimmRef locate(Addr addr) const;

    MemController &controller(std::uint32_t ch)
    {
        return *ctrls.at(ch);
    }

    Dimm &
    dimmAt(const DimmRef &ref)
    {
        return ctrls.at(ref.channel)->dimm(ref.dimm);
    }

    std::uint32_t numChannels() const { return cfg.numChannels; }
    std::uint32_t dimmsPerChannel() const { return cfg.dimmsPerChannel; }
    const MemorySystemConfig &config() const { return cfg; }

    /** Total dynamic DRAM energy so far (picojoules). */
    double dramDynamicEnergyPj() const;

  private:
    struct Region
    {
        std::string name;
        Addr base = 0;
        std::uint64_t size = 0;
        std::vector<DimmRef> units;
        std::uint64_t interleave = cacheLineBytes;
        /** Per-unit base address inside each DIMM. */
        std::vector<Addr> localBase;
    };

    struct Target
    {
        DimmRef ref;
        Addr localAddr = 0;
    };

    const Region &regionFor(Addr addr) const;
    Target resolve(Addr addr) const;

    MemorySystemConfig cfg;
    std::vector<std::unique_ptr<Dimm>> dimms;
    std::vector<std::unique_ptr<MemController>> ctrls;
    std::vector<Region> regions;
    /** Next free physical address for region carving. */
    Addr nextBase = 0;
    /** Next free DIMM-local address, indexed [channel][dimm]. */
    std::vector<std::vector<Addr>> localTop;
};

} // namespace reach::mem

#endif // REACH_MEM_MEMORY_SYSTEM_HH
