/**
 * @file
 * The machine configuration (paper Table II), plus the bulk-link
 * bandwidth parameters derived from it.
 */

#ifndef REACH_CORE_SYSTEM_CONFIG_HH
#define REACH_CORE_SYSTEM_CONFIG_HH

#include <cstdint>

#include "fault/fault.hh"
#include "gam/gam.hh"
#include "mem/dram_timings.hh"
#include "mem/tlb.hh"
#include "storage/ssd.hh"

namespace reach::core
{

struct SystemConfig
{
    // ----- Table II -----

    /** Host DIMMs reserved for the CPU / on-chip accelerator. */
    std::uint32_t hostDimms = 4;
    /** Near-memory AIM modules, one per extra DIMM. */
    std::uint32_t numAimModules = 4;
    /** NVMe SSDs (one near-storage module per SSD). */
    std::uint32_t numSsds = 4;
    /** Memory channels (memory controllers). */
    std::uint32_t numChannels = 2;
    bool hasOnChipAcc = true;

    mem::DramTimings dram{};
    mem::TlbConfig tlb{};
    storage::SsdConfig ssd{};
    gam::GamConfig gam{};
    /**
     * Fault-injection plan (default: nothing injected). When enabled,
     * the system builds a FaultInjector and wires it into every
     * accelerator, link, SSD, and the GAM's status polls.
     */
    fault::FaultPlan faultPlan{};

    // ----- Link bandwidths (bytes/second) -----

    /** On-chip accelerator to shared LLC (Table II: 100 GB/s). */
    double cacheLinkBw = 100e9;
    /** AIM module to its DIMM (Table II: 18 GB/s). */
    double aimLocalBw = 18e9;
    /** DDR DIMM access latency charged on the AIM-local link. */
    sim::Tick aimLocalLatency = 50'000;
    /**
     * HBM option for the AIM-local links (ScanPlacement::Hbm): an
     * HBM2 stack per module trades a wider interface (per-module
     * share of stack bandwidth) for slightly longer access latency
     * than a directly attached DIMM.
     */
    double aimHbmBw = 64e9;
    sim::Tick aimHbmLatency = 60'000;
    /**
     * Back the AIM modules with HBM instead of DDR DIMMs. Mirrors
     * ScaleConfig::shortlistPlacement — CoSimulation and the bench
     * sweeps derive this flag from the workload knob so the timing
     * links always match the modeled placement.
     */
    bool aimUsesHbm = false;
    /** Near-storage FPGA to its SSD (Table II: 12 GB/s effective). */
    double nsLocalBw = 12e9;
    /** Host PCIe uplink, gen3 x16 after IO-stack derating. */
    double hostPcieBw = 12e9;
    /** Per-SSD host-side lanes (x4) after derating. */
    double perSsdHostBw = 3.2e9;
    /** Inter-DIMM AIMbus. */
    double aimBusBw = 12.8e9;
    /**
     * Sustained host-DRAM streaming bandwidth for bulk traffic;
     * 0 = calibrate from the detailed DDR4 model at construction.
     */
    double hostDramStreamBw = 0;

    // ----- Random-gather concurrency (bytes/second per instance) -----
    // Small random reads at flash latency cannot fill a fat pipe;
    // each device class sustains what its outstanding-request window
    // covers. These caps shape the paper's Fig. 11: near-memory
    // rerank instances each extract a slice of the host IO bandwidth
    // (plateauing at the shared uplink), while SSD-attached modules
    // scale linearly with drive count.

    /** On-chip accelerator gathering over the host IO stack. */
    double onChipGatherBw = 9.0e9;
    /** The host core gathering through the full IO software stack. */
    double cpuGatherBw = 6.0e9;
    /** An AIM module gathering over the host IO stack. */
    double nmGatherBw = 4.0e9;
    /** A near-storage module gathering from its own flash. */
    double nsGatherBw = 8.0e9;

    /** Per-AIM-DIMM capacity share of near-memory regions. */
    std::uint64_t aimRegionBytes = std::uint64_t(4) << 30;
};

} // namespace reach::core

#endif // REACH_CORE_SYSTEM_CONFIG_HH
