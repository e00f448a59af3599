/**
 * @file
 * The accelerator-interposed memory (AIM) module: a near-memory
 * accelerator sitting between one DRAM DIMM and the memory network
 * (paper §II-B, Fig. 3).
 *
 * The module adds DIMM ownership handover on top of the generic
 * Accelerator engine: while a kernel runs, the host memory controller
 * must not touch the DIMM, and the module runs a closed-row policy so
 * every bank is precharged at handback. Kernel-launch commands are
 * charged by the GAM (GamConfig::commandLatency); data moves over
 * the links the system wires as this module's paths.
 */

#ifndef REACH_ACC_AIM_MODULE_HH
#define REACH_ACC_AIM_MODULE_HH

#include "acc/accelerator.hh"
#include "mem/dimm.hh"

namespace reach::acc
{

class AimModule : public Accelerator
{
  public:
    /** @param dimm The DIMM this module interposes. */
    AimModule(sim::Simulator &sim, const std::string &name,
              mem::Dimm &dimm);

    mem::Dimm &dimm() { return attachedDimm; }

    void onTaskStart(sim::Tick at) override;
    void onTaskEnd(sim::Tick at) override;

  private:
    mem::Dimm &attachedDimm;

    sim::Scalar statHandovers;
};

} // namespace reach::acc

#endif // REACH_ACC_AIM_MODULE_HH
