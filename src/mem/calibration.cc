#include "calibration.hh"

#include <mutex>
#include <utility>
#include <vector>

#include "mem/memory_system.hh"
#include "sim/simulator.hh"

namespace reach::mem
{

namespace
{

/** Every input the streaming replay depends on. */
struct CalibrationKey
{
    DramTimings timings;
    std::uint32_t channels = 0;
    std::uint32_t dimmsPerChannel = 0;
    std::uint64_t bytes = 0;
    std::uint64_t interleaveBytes = 0;

    bool operator==(const CalibrationKey &) const = default;
};

StreamCalibration
simulateStream(const DramTimings &timings, std::uint32_t channels,
               std::uint32_t dimms_per_channel, std::uint64_t bytes,
               std::uint64_t interleave_bytes)
{
    sim::Simulator sim;
    MemorySystemConfig cfg;
    cfg.numChannels = channels;
    cfg.dimmsPerChannel = dimms_per_channel;
    cfg.dimmTimings = timings;

    MemorySystem mem(sim, "calib", cfg);

    std::vector<DimmRef> units;
    for (std::uint32_t c = 0; c < channels; ++c)
        for (std::uint32_t d = 0; d < dimms_per_channel; ++d)
            units.push_back({c, d});

    Addr base = mem.addRegion("stream", bytes, units, interleave_bytes);

    sim::Tick finish = 0;
    mem.accessRange(base, bytes, false, Requester::Dma,
                    [&finish](sim::Tick t) { finish = t; });
    sim.run();

    StreamCalibration out;
    if (finish > 0) {
        out.bandwidth = static_cast<double>(bytes) /
                        sim::secondsFromTicks(finish);
        double peak =
            timings.peakBandwidth() * channels;
        out.efficiency = out.bandwidth / peak;
    }
    return out;
}

} // namespace

StreamCalibration
measureStreamingBandwidth(const DramTimings &timings,
                          std::uint32_t channels,
                          std::uint32_t dimms_per_channel,
                          std::uint64_t bytes,
                          std::uint64_t interleave_bytes)
{
    // A process sees only a handful of distinct keys, so a linear
    // scan is enough. The lock is held across the replay so that
    // concurrent first calls with one key run it once.
    static std::mutex mu;
    static std::vector<std::pair<CalibrationKey, StreamCalibration>>
        memo;

    const CalibrationKey key{timings, channels, dimms_per_channel,
                             bytes, interleave_bytes};
    std::lock_guard<std::mutex> lk(mu);
    for (const auto &[k, cal] : memo)
        if (k == key)
            return cal;
    StreamCalibration cal = simulateStream(
        timings, channels, dimms_per_channel, bytes, interleave_bytes);
    memo.emplace_back(key, cal);
    return cal;
}

} // namespace reach::mem
