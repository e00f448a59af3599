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

#include <cstdint>
#include <functional>
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

/**
 * Result of a closed-loop run (ReachSystem::runJobs). Each job is
 * one batch: a CBIR query batch, an analytics query or one
 * iteration of a runtime host loop.
 */
struct RunResult
{
    std::uint32_t batches = 0;
    /** Batches that completed; the rest failed explicitly. */
    std::uint32_t completedBatches = 0;
    /** Batches the fault-recovery machinery gave up on. */
    std::uint32_t failedBatches = 0;
    sim::Tick makespan = 0;
    /**
     * Mean / max submit-to-complete latency, aggregated over
     * completed batches only — a failed batch returns no result, so
     * its (truncated) lifetime must not dilute the latency of the
     * work that was actually delivered.
     */
    sim::Tick meanLatency = 0;
    sim::Tick maxLatency = 0;

    /** Fraction of batches that produced a result. */
    double
    completionFraction() const
    {
        if (batches == 0)
            return 1.0;
        return static_cast<double>(completedBatches) / batches;
    }

    /**
     * Goodput: batches that actually produced a result per second.
     * Failed batches burn machine time (it is in the makespan) but
     * deliver nothing, so they do not count as throughput.
     */
    double
    throughputBatchesPerSec() const
    {
        if (makespan == 0)
            return 0;
        return completedBatches / sim::secondsFromTicks(makespan);
    }

    /** Offered load: every submitted batch, failures included. */
    double
    offeredBatchesPerSec() const
    {
        if (makespan == 0)
            return 0;
        return batches / sim::secondsFromTicks(makespan);
    }

    /** Goodput in queries/s (completed batches only). */
    double
    queriesPerSec(std::uint32_t batch_size) const
    {
        return throughputBatchesPerSec() * batch_size;
    }

    double
    offeredQueriesPerSec(std::uint32_t batch_size) const
    {
        return offeredBatchesPerSec() * batch_size;
    }
};

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
     * The closed-loop job driver: submit @p window jobs, then one more
     * each time a job completes or fails, until @p jobs were submitted,
     * and simulate until all of them ended. Job i is make(i), built
     * when it is submitted; the driver sets its onComplete and
     * onFailed. Latency runs from submission to completion, over
     * completed jobs only. Panics with the GAM progress table if the
     * event queue drains with jobs still pending.
     */
    RunResult runJobs(std::uint32_t jobs, std::uint32_t window,
                      std::function<gam::JobDesc(std::uint32_t)> make);

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
