#include "aim_module.hh"

namespace reach::acc
{

AimModule::AimModule(sim::Simulator &sim, const std::string &name,
                     mem::Dimm &dimm)
    : Accelerator(sim, name, Level::NearMem),
      attachedDimm(dimm),
      statHandovers(name + ".handovers", "DIMM ownership handovers")
{
    registerStat(statHandovers);
}

void
AimModule::onTaskStart(sim::Tick)
{
    // The host memory controller hands over the DIMM (paper §II-B).
    attachedDimm.setAccOwned(true);
    ++statHandovers;
}

void
AimModule::onTaskEnd(sim::Tick at)
{
    // Closed-row policy means the handback invariant is "all rows
    // precharged"; enforce it before releasing ownership.
    attachedDimm.prechargeAll(at);
    attachedDimm.setAccOwned(false);
}

} // namespace reach::acc
