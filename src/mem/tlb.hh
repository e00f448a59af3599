/**
 * @file
 * A TLB model for the coherent on-chip accelerator (paper §II-A:
 * "virtual memory capabilities are supported by implementing TLBs and
 * page table walkers for the accelerator").
 *
 * The model charges a fixed page-walk latency on a miss and tracks
 * hit/miss statistics. Translation itself is identity (the simulator
 * uses physical addresses); only the *timing* of translation matters.
 */

#ifndef REACH_MEM_TLB_HH
#define REACH_MEM_TLB_HH

#include <cstdint>
#include <vector>

#include "mem/packet.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace reach::mem
{

struct TlbConfig
{
    std::uint32_t entries = 64;
    std::uint64_t pageBytes = 4096;
    /** Latency of a page-table walk (multi-level memory accesses). */
    sim::Tick walkLatency = 200'000; // 200 ns
};

class Tlb : public sim::SimObject
{
  public:
    Tlb(sim::Simulator &sim, const std::string &name,
        const TlbConfig &cfg = {});

    /**
     * Translate @p addr; returns the extra latency this access pays
     * (0 on a hit, the walk latency on a miss).
     */
    sim::Tick translate(Addr addr);

    /**
     * Translate the @p steps addresses first, first + stride, ...;
     * returns the summed latency. Hit and miss counts, resident set
     * and recency order end up exactly as after the equivalent
     * sequence of translate() calls, but a range that touches no
     * resident page costs O(entries) instead of O(steps). A dense
     * range that continues the last one, as a streaming cursor does,
     * or that spans at least `entries` pages, costs O(1) once
     * streamed pages fill the TLB.
     */
    sim::Tick translateRange(Addr first, std::uint64_t steps,
                             std::uint64_t stride);

    void flush();

    std::uint64_t hitCount() const
    {
        return static_cast<std::uint64_t>(statHits.value());
    }
    std::uint64_t missCount() const
    {
        return static_cast<std::uint64_t>(statMisses.value());
    }

  private:
    /** Whether a resident page lies in [first_page, last_page]. */
    bool residentIn(std::uint64_t first_page,
                    std::uint64_t last_page) const;
    /** Write the run into `lru`, leaving the run empty. */
    void settleRun();

    TlbConfig cfg;
    /**
     * The resident pages, most recent first, are the run
     * runTop, runTop - 1, ..., runTop - runLen + 1 followed by the
     * first `entries - runLen` pages of `lru`; the two never share a
     * page. Only dense ranges of non-resident pages grow or replace
     * the run; every other call settles it into `lru` first.
     */
    std::vector<std::uint64_t> lru;
    std::uint64_t runTop = 0;
    std::uint64_t runLen = 0;

    sim::Scalar statHits;
    sim::Scalar statMisses;
};

} // namespace reach::mem

#endif // REACH_MEM_TLB_HH
