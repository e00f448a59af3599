#include "ssd.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace reach::storage
{

Ssd::Ssd(sim::Simulator &sim, const std::string &name,
         const SsdConfig &config)
    : sim::SimObject(sim, name),
      cfg(config),
      statReadBytes(name + ".readBytes", "bytes read from flash"),
      statWriteBytes(name + ".writeBytes", "bytes written to flash"),
      statCommands(name + ".commands", "NVMe commands processed"),
      statActive(name + ".activeTicks", "ticks moving data"),
      statTimeouts(name + ".timeouts", "injected command timeouts")
{
    if (cfg.flashChannels == 0)
        sim::fatal(name, ": SSD needs at least one flash channel");
    registerStat(statReadBytes);
    registerStat(statWriteBytes);
    registerStat(statCommands);
    registerStat(statActive);
    registerStat(statTimeouts);
}

sim::Tick
Ssd::reserve(std::uint64_t bytes, bool write, sim::Tick at)
{
    ++statCommands;

    // An injected timeout models a dropped NVMe command: the host
    // retries after the timeout window, so the effective start of the
    // operation slips by the retry delay.
    sim::Tick retry = 0;
    if (faultInj) {
        retry = faultInj->ssdTimeoutTicks(name());
        if (retry > 0)
            ++statTimeouts;
    }

    if (bytes == 0)
        return at + retry + cfg.commandOverhead;

    sim::Tick media_latency = write ? cfg.writeLatency : cfg.readLatency;
    sim::Tick start = at + retry + cfg.commandOverhead;

    // Stripe evenly across flash channels. Every channel gets this
    // same reservation, so one schedule stands for all of them and
    // completion is their common finish plus the media first-access
    // latency.
    std::uint64_t per_channel =
        (bytes + cfg.flashChannels - 1) / cfg.flashChannels;
    sim::Tick ser = sim::transferTicks(per_channel, cfg.channelBandwidth);
    sim::Tick done = flash.reserve(ser, start, now()) + ser;

    statActive += static_cast<double>(ser);
    if (write)
        statWriteBytes += static_cast<double>(bytes);
    else
        statReadBytes += static_cast<double>(bytes);

    return done + media_latency;
}

double
Ssd::energyJoules(sim::Tick horizon) const
{
    double active_s = sim::secondsFromTicks(activeTicks());
    double total_s = sim::secondsFromTicks(horizon);
    active_s = std::min(active_s, total_s);
    double idle_s = total_s - active_s;
    return active_s * cfg.activePowerW + idle_s * cfg.idlePowerW;
}

} // namespace reach::storage
