/**
 * @file
 * DDR4 device timing and energy parameters.
 *
 * Defaults model a DDR4-2400 x8 DIMM (single rank, 16 banks). Energy
 * constants follow the structure of the Micron DDR4 power calculator:
 * per-activate, per-read/write-burst and background components.
 */

#ifndef REACH_MEM_DRAM_TIMINGS_HH
#define REACH_MEM_DRAM_TIMINGS_HH

#include <cstdint>

#include "sim/types.hh"

namespace reach::mem
{

/**
 * All timing in ticks (ps), with cycle counts of the 833 ps
 * DDR4-2400 clock noted; all energy in picojoules.
 */
struct DramTimings
{
    /** ACT to internal read/write delay. */
    sim::Tick tRCD = 13'320;       // 16 cycles
    /** Precharge latency. */
    sim::Tick tRP = 13'320;        // 16 cycles
    /** CAS latency. */
    sim::Tick tCL = 13'320;        // 16 cycles
    /** CAS write latency. */
    sim::Tick tCWL = 10'000;       // 12 cycles
    /**
     * Burst of 8 transfers on a DDR bus: 4 clock periods of the
     * 1200 MHz DDR4-2400 bus clock. It sets the data-bus rate, so a
     * speed grade is chosen here.
     */
    sim::Tick tBL = 3'332;
    /** ACT to PRE minimum. */
    sim::Tick tRAS = 26'660;       // 32 cycles
    /** ACT-to-ACT, different banks, same rank. */
    sim::Tick tRRD = 4'165;        // ~5 cycles
    /** Four-activate window. */
    sim::Tick tFAW = 17'500;       // ~21 cycles
    /** Write recovery before precharge. */
    sim::Tick tWR = 12'500;
    /** Refresh interval and refresh cycle time. */
    sim::Tick tREFI = 7'800'000;   // 7.8 us
    sim::Tick tRFC = 350'000;      // 350 ns

    std::uint32_t banksPerRank = 16;
    std::uint32_t ranksPerDimm = 1;
    /** Row buffer (page) size per bank. */
    std::uint64_t rowBytes = 8192;
    /** DIMM capacity. */
    std::uint64_t capacityBytes = std::uint64_t(16) << 30;

    /** Energy per activate+precharge pair (pJ). */
    double actPreEnergyPj = 3200.0;
    /** Energy per 64B read burst (pJ). */
    double readBurstEnergyPj = 2100.0;
    /** Energy per 64B write burst (pJ). */
    double writeBurstEnergyPj = 2300.0;
    /** Background power per rank (W). */
    double backgroundPowerW = 0.65;

    /**
     * Peak data-bus bandwidth in bytes/second: one 64-byte burst per
     * tBL, the burst time the controller model replays.
     */
    double
    peakBandwidth() const
    {
        return 64.0 / (static_cast<double>(tBL) * 1e-12);
    }

    /** Field-wise; the streaming-calibration memo keys on it. */
    bool operator==(const DramTimings &) const = default;
};

/** Timing mode for a bank after each column access. */
enum class RowPolicy
{
    /** Keep the row open; later hits pay only CAS latency. */
    Open,
    /**
     * Precharge immediately after the access. AIM modules run this
     * policy so a DIMM can be handed back to the host memory
     * controller with every row closed (paper §II-B).
     */
    Closed,
};

} // namespace reach::mem

#endif // REACH_MEM_DRAM_TIMINGS_HH
