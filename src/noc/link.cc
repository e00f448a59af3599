#include "link.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace reach::noc
{

Link::Link(sim::Simulator &sim, const std::string &name,
           const LinkConfig &config)
    : sim::SimObject(sim, name),
      cfg(config),
      statBytes(name + ".bytes", "bytes moved"),
      statTransfers(name + ".transfers", "transfers"),
      statBusy(name + ".busyTicks", "ticks spent serializing"),
      statStalls(name + ".stalls", "injected stall events")
{
    if (cfg.bandwidth <= 0)
        sim::fatal(name, ": link bandwidth must be positive");
    registerStat(statBytes);
    registerStat(statTransfers);
    registerStat(statBusy);
    registerStat(statStalls);
}

sim::Tick
Link::reserve(std::uint64_t bytes, sim::Tick at)
{
    sim::Tick ser = sim::transferTicks(bytes, cfg.bandwidth);
    sim::Tick dur = cfg.perTransferOverhead + ser;

    statBytes += static_cast<double>(bytes);
    ++statTransfers;
    statBusy += static_cast<double>(ser);

    // An injected stall (retraining, backpressure) occupies the link
    // for the stall duration on top of serialization, delaying both
    // this transfer and everything queued behind it.
    if (faultInj) {
        sim::Tick stall = faultInj->linkStallTicks(name());
        if (stall > 0) {
            dur += stall;
            ++statStalls;
        }
    }

    if (dur == 0)
        return at + cfg.latency;

    sim::Tick start = schedule_.reserve(dur, at, now());
    return start + dur + cfg.latency;
}

double
Link::utilization() const
{
    sim::Tick t = now();
    if (t == 0)
        return 0;
    return statBusy.value() / static_cast<double>(t);
}

PcieLink::PcieLink(sim::Simulator &sim, const std::string &name,
                   const PcieConfig &cfg)
    : Link(sim, name,
           LinkConfig{cfg.theoreticalBandwidth * cfg.efficiency,
                      cfg.latency, cfg.perTransferOverhead,
                      cfg.energyPerBitPj})
{
}

PcieLink::PcieLink(sim::Simulator &sim, const std::string &name)
    : PcieLink(sim, name, PcieConfig{})
{
}

} // namespace reach::noc
