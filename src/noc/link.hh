/**
 * @file
 * Bandwidth/latency link models used for every interconnect in the
 * system: the on-chip NoC port between accelerator and LLC, memory
 * channels, the AIMbus between DIMMs, PCIe links to SSDs, and the
 * host IO switch.
 *
 * A Link serializes transfers: each transfer occupies the link for
 * size/bandwidth and is delivered one propagation latency after its
 * last byte leaves. Energy is accounted per bit.
 */

#ifndef REACH_NOC_LINK_HH
#define REACH_NOC_LINK_HH

#include <cstdint>
#include <string>

#include "fault/fault.hh"
#include "sim/interval_resource.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace reach::noc
{

struct LinkConfig
{
    /** Sustained bandwidth, bytes per second. */
    double bandwidth = 10e9;
    /** Propagation latency added after serialization. */
    sim::Tick latency = 100; // 100 ps
    /** Fixed per-transfer overhead (protocol, DMA setup). */
    sim::Tick perTransferOverhead = 0;
    /** Energy per bit moved, picojoules. */
    double energyPerBitPj = 1.0;
};

class Link : public sim::SimObject
{
  public:
    Link(sim::Simulator &sim, const std::string &name,
         const LinkConfig &cfg);

    /**
     * Compute when a transfer of @p bytes starting no earlier than
     * @p at would complete, *and* reserve the link for it. The link
     * keeps a set of busy intervals and slots the transfer into the
     * earliest gap at or after @p at, so a reservation made far in
     * the future (e.g. a task's output drain) does not block
     * earlier-in-time traffic from other requesters.
     */
    sim::Tick reserve(std::uint64_t bytes, sim::Tick at);

    /** Tick after the last reservation currently held. */
    sim::Tick freeAt() const { return schedule_.freeAt(); }

    double bandwidth() const { return cfg.bandwidth; }

    std::uint64_t bytesMoved() const
    {
        return static_cast<std::uint64_t>(statBytes.value());
    }

    /** Total ticks the link spent serializing data. */
    sim::Tick busyTicks() const
    {
        return static_cast<sim::Tick>(statBusy.value());
    }

    /** Dynamic interconnect energy so far, picojoules. */
    double dynamicEnergyPj() const
    {
        return statBytes.value() * 8.0 * cfg.energyPerBitPj;
    }

    /** Utilization in [0,1] over the sim so far. */
    double utilization() const;

    /** Attach a fault injector consulted once per reservation. */
    void setFaultInjector(fault::FaultInjector *inj) { faultInj = inj; }

    std::uint64_t stallsInjected() const
    {
        return static_cast<std::uint64_t>(statStalls.value());
    }

  private:
    LinkConfig cfg;
    sim::IntervalResource schedule_;
    fault::FaultInjector *faultInj = nullptr;

    sim::Scalar statBytes;
    sim::Scalar statTransfers;
    sim::Scalar statBusy;
    sim::Scalar statStalls;
};

/**
 * A PCIe link: theoretical bandwidth derated by IO-stack efficiency
 * (paper §I: gen3 x16 is 16 GB/s theoretical, ~12 GB/s effective).
 */
class PcieLink : public Link
{
  public:
    struct PcieConfig
    {
        double theoreticalBandwidth = 16e9;
        /** Fraction of theoretical bandwidth actually sustained. */
        double efficiency = 0.75;
        sim::Tick latency = 500'000; // 500 ns round-trip-ish
        sim::Tick perTransferOverhead = 1'000'000; // 1 us DMA setup
        double energyPerBitPj = 4.4;
    };

    PcieLink(sim::Simulator &sim, const std::string &name,
             const PcieConfig &cfg);

    /** Defaults: gen3 x16 at 75% IO-stack efficiency. */
    PcieLink(sim::Simulator &sim, const std::string &name);
};

} // namespace reach::noc

#endif // REACH_NOC_LINK_HH
