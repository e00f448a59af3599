/**
 * @file
 * The reconfigurable accelerator engine.
 *
 * One Accelerator models one FPGA module at some level of the compute
 * hierarchy. It is *reconfigurable*: the GAM (or the runtime) loads a
 * kernel profile (bitstream) into it, then executes coarse-grained
 * tasks. Task timing combines the HLS pipeline model (kernel_profile)
 * with chunked, pipelined transfers over the module's data paths, so
 * an execution is automatically compute-bound or bandwidth-bound
 * depending on the kernel and the attachment point.
 */

#ifndef REACH_ACC_ACCELERATOR_HH
#define REACH_ACC_ACCELERATOR_HH

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

#include "acc/kernel_profile.hh"
#include "acc/path.hh"
#include "fault/fault.hh"
#include "mem/tlb.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace reach::acc
{

/** Where in the hierarchy a compute element sits (Listing 1). */
enum class Level
{
    OnChip,
    NearMem,
    NearStor,
    Cpu,
};

const char *levelName(Level level);

/**
 * Kernel template id of @p family ("CNN", "GeMM", "KNN", ...) built
 * for the device at @p level: "<family>-VU9P" on-chip, "-ZCU9" near
 * data, "-CPU" on the host core (see kernelCatalog()).
 */
std::string kernelTemplate(const std::string &family, Level level);

/** One coarse-grained task, sized in work units and bytes. */
struct WorkUnit
{
    /** Identifies the parameter set (for the NS buffer's reuse). */
    std::string paramKey;
    /** Total work units (MACs, distance lanes, scanned words). */
    double ops = 0;
    /** Bytes streamed in over the input path. */
    std::uint64_t bytesIn = 0;
    /** Bytes streamed out over the output path. */
    std::uint64_t bytesOut = 0;
    /** Parameter bytes fetched before compute starts. */
    std::uint64_t paramBytes = 0;
    /** Input already resident in SPM/cache: use the resident path. */
    bool inputResident = false;
    /**
     * Per-task input path override (non-owning); used when a task's
     * data comes from somewhere other than the module's home medium,
     * e.g. an on-chip rerank task streaming from the SSD array.
     */
    Path inputOverride;
    /**
     * Per-instance input throughput cap in bytes/second (0 = none).
     * Models the requester's limited outstanding-request concurrency
     * for random gathers: small reads at high latency cannot fill a
     * fat pipe, which is why near-memory rerank instances each
     * extract only a slice of the host IO bandwidth while an
     * SSD-attached module sees its drive's full internal rate.
     */
    double inputThrottleBw = 0;
};

class Accelerator : public sim::SimObject
{
  public:
    Accelerator(sim::Simulator &sim, const std::string &name,
                Level level);

    Level level() const { return lvl; }

    /**
     * Load a kernel bitstream. @p reconfig_delay models partial
     * reconfiguration; the paper assumes sub-millisecond and charges
     * zero, which is the default (kept configurable for ablations).
     */
    void configure(const KernelProfile &profile,
                   sim::Tick reconfig_delay = 0);

    const KernelProfile *kernel() const
    {
        return prof ? &*prof : nullptr;
    }

    /** Streaming input path (backing store -> accelerator). */
    void setInputPath(Path p) { inputPath = std::move(p); }
    /** Output path (accelerator -> destination buffer). */
    void setOutputPath(Path p) { outputPath = std::move(p); }
    /** Parameter fetch path (used when params are not buffered). */
    void setParamPath(Path p) { paramPath = std::move(p); }
    /** Fast path for SPM/cache-resident inputs. */
    void setResidentPath(Path p) { residentPath = std::move(p); }

    /** Attach a TLB (on-chip accelerators, paper §II-A). */
    void attachTlb(mem::Tlb &tlb) { accTlb = &tlb; }

    /**
     * Enable the private DRAM parameter buffer (near-storage modules,
     * paper §II-C): repeated paramKey fetches hit the buffer.
     */
    void enableParamBuffer(std::uint64_t capacity_bytes,
                           double buffer_bandwidth);

    /**
     * Execute one task. Tasks issued while busy queue behind the
     * current one (the GAM normally serializes per accelerator).
     * @param on_done Called at task completion time.
     */
    void execute(const WorkUnit &work,
                 std::function<void(sim::Tick)> on_done = nullptr);

    /**
     * Analytic duration estimate for the GAM's progress table
     * (paper Fig. 5: "estimated wait time"); does not reserve
     * resources.
     */
    sim::Tick estimateTicks(const WorkUnit &work) const;

    /** Earliest tick this module is free. */
    sim::Tick freeAt() const { return busyUntil; }
    bool busy() const { return busyUntil > now(); }

    /** Ticks this module has spent executing tasks (incl. stalls). */
    sim::Tick activeTicks() const
    {
        return static_cast<sim::Tick>(statActive.value());
    }

    /** Ticks the compute pipeline was actually busy. */
    sim::Tick computeTicksBusy() const
    {
        return static_cast<sim::Tick>(statCompute.value());
    }

    /** Active power of the configured kernel (W). */
    double activePowerW() const;

    /**
     * Energy over [0, horizon]: the kernel's active power while the
     * compute pipeline is busy (memory-stalled cycles clock-gate down
     * to static power) plus the device's static power always. Joules.
     */
    double energyJoules(sim::Tick horizon) const;

    std::uint64_t tasksCompleted() const
    {
        return static_cast<std::uint64_t>(statTasks.value());
    }

    std::uint64_t paramBufferHits() const
    {
        return static_cast<std::uint64_t>(statParamHits.value());
    }

    /** Hook for subclasses: called at the tick a task starts/ends. */
    virtual void onTaskStart(sim::Tick at);
    virtual void onTaskEnd(sim::Tick at);

    /** Attach a fault injector consulted once per execute(). */
    void setFaultInjector(fault::FaultInjector *inj) { faultInj = inj; }

    /**
     * A crashed module never signals completion until repaired. The
     * GAM's watchdog detects the silence and quarantines the module.
     */
    bool faulted() const { return isFaulted; }

    /** Clear the crashed state (GAM recovery path). */
    void repair() { isFaulted = false; }

    std::uint64_t faultsInjected() const
    {
        return static_cast<std::uint64_t>(statFaultsInjected.value());
    }

  protected:
    /** Chunks a task's stream is split into for pipelining. */
    static constexpr std::uint64_t maxChunks = 64;

  private:
    /** Reserve resources for @p work; returns [start, end]. */
    std::pair<sim::Tick, sim::Tick> reserveTask(const WorkUnit &work);

    /** Param fetch; returns tick params are ready. */
    sim::Tick fetchParams(const WorkUnit &work, sim::Tick at);

    Level lvl;
    std::optional<KernelProfile> prof;
    double staticPowerW = 0;

    Path inputPath;
    Path outputPath;
    Path paramPath;
    Path residentPath;
    mem::Tlb *accTlb = nullptr;

    /** NS parameter buffer (LRU by key). */
    bool paramBufEnabled = false;
    std::uint64_t paramBufCapacity = 0;
    std::uint64_t paramBufUsed = 0;
    double paramBufBandwidth = 0;
    std::list<std::pair<std::string, std::uint64_t>> paramLru;

    sim::Tick busyUntil = 0;
    /** Virtual stream position used to exercise the TLB. */
    std::uint64_t streamCursor = 0;

    fault::FaultInjector *faultInj = nullptr;
    bool isFaulted = false;

    sim::Scalar statTasks;
    sim::Scalar statActive;
    sim::Scalar statCompute;
    sim::Scalar statOps;
    sim::Scalar statBytesIn;
    sim::Scalar statBytesOut;
    sim::Scalar statParamHits;
    sim::Scalar statParamMisses;
    sim::Scalar statReconfigs;
    sim::Scalar statFaultsInjected;
};

} // namespace reach::acc

#endif // REACH_ACC_ACCELERATOR_HH
