/**
 * @file
 * An NVMe SSD timing model.
 *
 * Internally the drive stripes data across multiple flash channels;
 * the aggregate internal bandwidth therefore exceeds what the host IO
 * interconnect can carry, which is exactly the gap near-storage
 * acceleration exploits (paper §II-C). The drive itself is a passive
 * model: callers reserve flash time and connect the result to either
 * the host PCIe path or the accelerator-local FPGA link.
 *
 * Every command is striped evenly over all channels, so each channel
 * receives the same reservation, ceil(bytes / flashChannels) bytes
 * wide, at the same time: the channels move in lockstep and one
 * schedule stands for all of them.
 */

#ifndef REACH_STORAGE_SSD_HH
#define REACH_STORAGE_SSD_HH

#include <cstdint>
#include <string>

#include "fault/fault.hh"
#include "sim/interval_resource.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace reach::storage
{

struct SsdConfig
{
    std::uint32_t flashChannels = 8;
    /** Per-flash-channel sustained bandwidth, bytes/second. */
    double channelBandwidth = 1.75e9;
    /** First-byte flash read latency. */
    sim::Tick readLatency = 70'000'000; // 70 us
    /** Program latency (buffered writes). */
    sim::Tick writeLatency = 30'000'000; // 30 us
    /** NVMe command processing overhead. */
    sim::Tick commandOverhead = 5'000'000; // 5 us
    std::uint64_t capacityBytes = std::uint64_t(4) << 40;

    /** Power model (Seagate Nytro-class NVMe drive). */
    double activePowerW = 12.0;
    double idlePowerW = 5.0;

    double
    internalBandwidth() const
    {
        return channelBandwidth * flashChannels;
    }
};

class Ssd : public sim::SimObject
{
  public:
    Ssd(sim::Simulator &sim, const std::string &name,
        const SsdConfig &cfg = {});

    const SsdConfig &config() const { return cfg; }

    /**
     * Reserve flash time for a @p bytes read/write starting no
     * earlier than @p at.
     * @return tick when the last byte is available at the drive's
     *         internal buffer (caller adds interconnect time).
     */
    sim::Tick reserve(std::uint64_t bytes, bool write, sim::Tick at);

    std::uint64_t bytesRead() const
    {
        return static_cast<std::uint64_t>(statReadBytes.value());
    }
    std::uint64_t bytesWritten() const
    {
        return static_cast<std::uint64_t>(statWriteBytes.value());
    }

    /** Ticks the drive spent actively moving data. */
    sim::Tick activeTicks() const
    {
        return static_cast<sim::Tick>(statActive.value());
    }

    /**
     * Energy consumed up to @p horizon ticks of simulated time:
     * active power while transferring plus idle power otherwise.
     * Result in joules.
     */
    double energyJoules(sim::Tick horizon) const;

    /** Attach a fault injector consulted once per command. */
    void setFaultInjector(fault::FaultInjector *inj) { faultInj = inj; }

    std::uint64_t timeoutsInjected() const
    {
        return static_cast<std::uint64_t>(statTimeouts.value());
    }

  private:
    SsdConfig cfg;
    /** Reservation schedule (gap-filling) shared by every channel. */
    sim::IntervalResource flash;
    fault::FaultInjector *faultInj = nullptr;

    sim::Scalar statReadBytes;
    sim::Scalar statWriteBytes;
    sim::Scalar statCommands;
    sim::Scalar statActive;
    sim::Scalar statTimeouts;
};

} // namespace reach::storage

#endif // REACH_STORAGE_SSD_HH
