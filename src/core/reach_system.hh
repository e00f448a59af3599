/**
 * @file
 * The assembled ReACH machine (paper Fig. 1/2): simulator,
 * accelerator TLB, SSD array, interconnect fabric, the three
 * accelerator levels, the GAM wired with inter-level transfer paths,
 * and the energy model.
 *
 * The machine builds only what a request reaches. Host DRAM, LLC and
 * writeback traffic are reservations on bulk links (hostDramBulk,
 * cachePort) whose host-DRAM bandwidth is calibrated once from the
 * detailed DDR4 model; the only DIMMs built are the AIM modules' own,
 * for the ownership handover (DESIGN.md §4m).
 */

#ifndef REACH_CORE_REACH_SYSTEM_HH
#define REACH_CORE_REACH_SYSTEM_HH

#include <memory>
#include <vector>

#include "acc/accelerator.hh"
#include "acc/aim_module.hh"
#include "acc/ns_module.hh"
#include "core/system_config.hh"
#include "energy/energy_model.hh"
#include "fault/fault.hh"
#include "gam/gam.hh"
#include "mem/dimm.hh"
#include "mem/tlb.hh"
#include "noc/link.hh"
#include "sim/simulator.hh"
#include "storage/ssd.hh"

namespace reach::core
{

class ReachSystem
{
  public:
    explicit ReachSystem(const SystemConfig &cfg = {});

    const SystemConfig &config() const { return cfg; }

    sim::Simulator &simulator() { return sim; }
    gam::Gam &gam() { return *gamUnit; }

    /** On-chip accelerator; fatal() if the config disabled it. */
    acc::Accelerator &onChip();
    bool hasOnChip() const { return onChipAcc != nullptr; }

    /** The host core as a software compute target (CPU baselines). */
    acc::Accelerator &hostCore() { return *cpuCore; }

    std::uint32_t numAims() const
    {
        return static_cast<std::uint32_t>(aims.size());
    }
    acc::AimModule &aim(std::uint32_t i) { return *aims.at(i); }

    std::uint32_t numNs() const
    {
        return static_cast<std::uint32_t>(nss.size());
    }
    acc::NsModule &ns(std::uint32_t i) { return *nss.at(i); }

    storage::Ssd &ssdAt(std::uint32_t i) { return *ssds.at(i); }

    /**
     * Compute instances at @p level: the AIM / near-storage module
     * count, one host core, and one on-chip accelerator unless the
     * config disabled it.
     */
    std::uint32_t instancesAt(acc::Level level) const;

    /**
     * GAM accelerator id (progress-table row) of instance @p i at
     * @p level; fatal() if the level has no such instance.
     */
    std::uint32_t gamIdAt(acc::Level level, std::uint32_t i) const;

    /**
     * Input path of a gather from the striped SSD array into
     * instance @p i at @p level: every SSD through the host IO
     * switch, staged in host DRAM, then into the consumer's port.
     * Empty at NearStor, where each module reads its own drive.
     */
    acc::Path ssdGatherPath(acc::Level level, std::uint32_t i);

    /** The calibrated host-DRAM streaming bandwidth in use (B/s). */
    double hostDramBandwidth() const { return hostDramBw; }

    /**
     * Run the simulation until the GAM is idle (every job completed
     * or explicitly failed). Panics with the dumped progress table if
     * the event queue drains with jobs still pending.
     */
    sim::Tick runUntilIdle();

    /** The fault injector, or null when the plan injects nothing. */
    fault::FaultInjector *faultInjector() { return faultInj.get(); }

    /** Energy per component over the simulated interval so far. */
    energy::EnergyBreakdown measureEnergy();

    /** Direct access for custom instrumentation. */
    energy::EnergyModel &energyModel() { return energy; }

    noc::Link &hostDramLink() { return *hostDram; }
    noc::Link &cacheLink() { return *cachePort; }
    noc::Link &hostIoUplink() { return *hostIo; }
    noc::Link &aimBusLink() { return *aimBus; }
    noc::Link &aimLocalLink(std::uint32_t i)
    {
        return *aimLocal.at(i);
    }
    noc::Link &nsLocalLink(std::uint32_t i) { return *nsLocal.at(i); }
    noc::Link &ssdHostLink(std::uint32_t i)
    {
        return *ssdHost.at(i);
    }

    /** The GAM transfer-path builder, exposed for tests. */
    acc::Path pathBetween(const acc::Accelerator *from,
                          const acc::Accelerator *to);

  private:
    void buildMemory();
    void buildStorage();
    void buildAccelerators();
    void wireGam();
    void wireFaults();
    void registerEnergy();

    SystemConfig cfg;
    sim::Simulator sim;

    std::unique_ptr<fault::FaultInjector> faultInj;

    std::unique_ptr<mem::Tlb> tlb;

    std::vector<std::unique_ptr<storage::Ssd>> ssds;

    // Interconnect fabric.
    double hostDramBw = 0;
    std::unique_ptr<noc::Link> hostDram;
    std::unique_ptr<noc::Link> cachePort;
    std::unique_ptr<noc::Link> aimBus;
    std::unique_ptr<noc::Link> hostIo;
    std::vector<std::unique_ptr<noc::Link>> aimLocal;
    std::vector<std::unique_ptr<noc::Link>> nsLocal;
    std::vector<std::unique_ptr<noc::Link>> ssdHost;

    std::unique_ptr<acc::Accelerator> onChipAcc;
    std::unique_ptr<acc::Accelerator> cpuCore;
    /** One DIMM per AIM module; declared first so it outlives it. */
    std::vector<std::unique_ptr<mem::Dimm>> aimDimms;
    std::vector<std::unique_ptr<acc::AimModule>> aims;
    std::vector<std::unique_ptr<acc::NsModule>> nss;

    std::unique_ptr<gam::Gam> gamUnit;
    std::uint32_t onChipId = ~0u;
    std::uint32_t cpuId = ~0u;
    std::vector<std::uint32_t> aimIds;
    std::vector<std::uint32_t> nsIds;

    energy::EnergyModel energy;
};

} // namespace reach::core

#endif // REACH_CORE_REACH_SYSTEM_HH
