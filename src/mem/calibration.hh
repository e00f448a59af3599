/**
 * @file
 * Calibration of sustained DRAM streaming bandwidth.
 *
 * The system model resolves bulk accelerator traffic with link-level
 * reservations whose bandwidths must match what the detailed DDR4
 * model actually sustains. Instead of hard-coding a number, we run
 * the cycle-level controller/DIMM model on a streaming pattern and
 * measure it — the same calibrate-then-abstract methodology the
 * paper applies when it plugs synthesis-report numbers into PARADE.
 */

#ifndef REACH_MEM_CALIBRATION_HH
#define REACH_MEM_CALIBRATION_HH

#include <cstdint>

#include "mem/dram_timings.hh"

namespace reach::mem
{

struct StreamCalibration
{
    /** Sustained bytes/second measured on the detailed model. */
    double bandwidth = 0;
    /** Fraction of the pin-rate peak achieved. */
    double efficiency = 0;
};

/**
 * Stream @p bytes of sequential reads through a memory system with
 * the given channel/DIMM topology and measure sustained bandwidth.
 *
 * The replay is deterministic, so its result is memoized for the
 * process: the first call with a given (timings, channels,
 * dimms_per_channel, bytes, interleave_bytes) runs the cycle-level
 * model, and every later call with equal arguments returns the same
 * bits. Thread-safe; concurrent first calls run the replay once.
 *
 * @param interleave_bytes Region interleave granularity.
 */
StreamCalibration measureStreamingBandwidth(
    const DramTimings &timings, std::uint32_t channels,
    std::uint32_t dimms_per_channel,
    std::uint64_t bytes = std::uint64_t(8) << 20,
    std::uint64_t interleave_bytes = 64);

} // namespace reach::mem

#endif // REACH_MEM_CALIBRATION_HH
