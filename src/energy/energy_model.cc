#include "energy_model.hh"

#include <iomanip>

#include "sim/logging.hh"

namespace reach::energy
{

const char *
componentName(Component c)
{
    switch (c) {
      case Component::Acc:
        return "ACC";
      case Component::Cache:
        return "Cache";
      case Component::Dram:
        return "DRAM";
      case Component::Ssd:
        return "SSD";
      case Component::McInterconnect:
        return "MC and Interconnect";
      case Component::Pcie:
        return "PCIe";
      default:
        return "?";
    }
}

double
EnergyBreakdown::total() const
{
    double t = 0;
    for (double j : joules)
        t += j;
    return t;
}

EnergyBreakdown
EnergyBreakdown::operator-(const EnergyBreakdown &o) const
{
    EnergyBreakdown out;
    for (std::size_t i = 0; i < joules.size(); ++i)
        out.joules[i] = joules[i] - o.joules[i];
    return out;
}

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &o)
{
    for (std::size_t i = 0; i < joules.size(); ++i)
        joules[i] += o.joules[i];
    return *this;
}

void
EnergyBreakdown::print(std::ostream &os, const std::string &indent) const
{
    double t = total();
    for (std::size_t i = 0; i < joules.size(); ++i) {
        os << indent << std::left << std::setw(22)
           << componentName(static_cast<Component>(i)) << " "
           << std::right << std::fixed << std::setprecision(3)
           << std::setw(10) << joules[i] << " J  ("
           << std::setprecision(1) << std::setw(5)
           << (t > 0 ? 100.0 * joules[i] / t : 0.0) << "%)\n";
    }
    os << indent << std::left << std::setw(22) << "Total" << " "
       << std::right << std::fixed << std::setprecision(3)
       << std::setw(10) << t << " J\n";
}

void
EnergyModel::addLink(const noc::Link &link, Component comp)
{
    links.emplace_back(&link, comp);
}

EnergyBreakdown
EnergyModel::measure(sim::Tick horizon) const
{
    EnergyBreakdown out;

    for (const auto *a : accs)
        out[Component::Acc] += a->energyJoules(horizon);

    out[Component::Dram] +=
        dramBackgroundW * sim::secondsFromTicks(horizon);

    for (const auto *s : ssds)
        out[Component::Ssd] += s->energyJoules(horizon);

    // GAM control packets (launch commands, status polls and their
    // fault-recovery retries) are small but cross the MC fabric; model
    // them as one 64 B flit each.
    constexpr double control_packet_bytes = 64.0;
    for (const auto *g : gams) {
        double packets =
            static_cast<double>(g->tasksDispatched() + g->statusPolls());
        out[Component::McInterconnect] +=
            packets * control_packet_bytes * rates.mcPjPerByte * 1e-12;
    }

    for (const auto &[link, comp] : links) {
        double bytes = static_cast<double>(link->bytesMoved());
        switch (comp) {
          case Component::Dram:
            // A DRAM bulk stream exercises both the array and the
            // channel wires.
            out[Component::Dram] += bytes * rates.dramPjPerByte * 1e-12;
            out[Component::McInterconnect] +=
                bytes * rates.mcPjPerByte * 1e-12;
            break;
          case Component::Cache:
            out[Component::Cache] +=
                bytes * rates.cachePjPerByte * 1e-12;
            break;
          case Component::Pcie:
            out[Component::Pcie] += bytes * rates.pciePjPerByte * 1e-12;
            break;
          case Component::McInterconnect:
            out[Component::McInterconnect] +=
                bytes * rates.mcPjPerByte * 1e-12;
            break;
          case Component::Ssd:
          case Component::Acc:
            // Device energy comes from the device models; their link
            // bytes only add interconnect cost.
            out[Component::McInterconnect] +=
                bytes * rates.mcPjPerByte * 1e-12;
            break;
          default:
            sim::panic("unhandled component class in energy rollup");
        }
    }

    return out;
}

} // namespace reach::energy
