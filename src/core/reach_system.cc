#include "reach_system.hh"

#include <algorithm>
#include <string>

#include "mem/calibration.hh"
#include "sim/logging.hh"

namespace reach::core
{

namespace
{

/** Host DRAM region: cache-line interleaved over the host DIMMs. */
constexpr std::uint64_t hostRegionBytes = std::uint64_t(16) << 30;
/** AIM regions are tile-granular so each tile lives in one DIMM. */
constexpr std::uint64_t aimTileBytes = std::uint64_t(1) << 20;
/** The host core's parameter buffer: its 2 MiB shared L2. */
constexpr std::uint64_t hostCoreParamBufferBytes = std::uint64_t(2) << 20;

/** Bytes each of @p units DIMMs holds of a @p size region. */
std::uint64_t
bytesPerDimm(std::uint64_t size, std::uint64_t units,
             std::uint64_t interleave)
{
    std::uint64_t blocks = (size + interleave - 1) / interleave;
    return (blocks + units - 1) / units * interleave;
}

} // namespace

ReachSystem::ReachSystem(const SystemConfig &config) : cfg(config)
{
    if (cfg.numChannels == 0)
        sim::fatal("system needs at least one memory channel");
    if (cfg.hostDimms < cfg.numChannels) {
        sim::fatal("need at least one host DIMM per channel (",
                   cfg.hostDimms, " DIMMs for ", cfg.numChannels,
                   " channels)");
    }
    if (cfg.numSsds == 0)
        sim::fatal("the storage system needs at least one SSD");
    if (cfg.numAimModules > 64 || cfg.numSsds > 64) {
        sim::fatal("instance counts above 64 are outside the "
                   "validated model range");
    }
    for (double bw :
         {cfg.cacheLinkBw, cfg.aimLocalBw, cfg.nsLocalBw,
          cfg.hostPcieBw, cfg.perSsdHostBw, cfg.aimBusBw,
          cfg.onChipGatherBw, cfg.cpuGatherBw, cfg.nmGatherBw,
          cfg.nsGatherBw}) {
        if (!(bw > 0)) {
            sim::fatal("system link/gather bandwidths must be "
                       "positive (got ", bw, " B/s)");
        }
    }
    if (cfg.hostDramStreamBw < 0)
        sim::fatal("hostDramStreamBw must be >= 0 (0 = calibrate)");
    // The DIMM geometry must hold the host and AIM regions even
    // though only the AIM DIMMs are built (DESIGN.md §4m).
    if (cfg.dram.rowBytes == 0 ||
        cfg.dram.rowBytes % mem::cacheLineBytes != 0)
        sim::fatal("DIMM row size must be a multiple of the line size");
    if (bytesPerDimm(hostRegionBytes, cfg.hostDimms,
                     mem::cacheLineBytes) > cfg.dram.capacityBytes) {
        sim::fatal("the ", hostRegionBytes, " B host region exceeds "
                   "the capacity of ", cfg.hostDimms, " host DIMMs");
    }
    if (cfg.numAimModules > 0) {
        if (cfg.aimRegionBytes == 0)
            sim::fatal("aimRegionBytes must be positive");
        if (bytesPerDimm(cfg.aimRegionBytes, 1, aimTileBytes) >
            cfg.dram.capacityBytes) {
            sim::fatal("aimRegionBytes (", cfg.aimRegionBytes,
                       ") exceeds the capacity of an AIM DIMM");
        }
    }
    cfg.faultPlan.validate();

    buildMemory();
    buildStorage();
    buildAccelerators();
    wireGam();
    wireFaults();
    registerEnergy();
}

void
ReachSystem::buildMemory()
{
    tlb = std::make_unique<mem::Tlb>(sim, "accTlb", cfg.tlb);

    // Calibrate the host streaming bandwidth from the detailed model
    // unless the config pins it. The calibration is memoized per
    // process, so only the first machine with these timings and this
    // topology pays for the replay; later machines reuse its bits.
    if (cfg.hostDramStreamBw > 0) {
        hostDramBw = cfg.hostDramStreamBw;
    } else {
        auto cal = mem::measureStreamingBandwidth(
            cfg.dram, cfg.numChannels,
            std::max<std::uint32_t>(cfg.hostDimms / cfg.numChannels, 1));
        hostDramBw = cal.bandwidth;
    }

    noc::LinkConfig dram_link;
    dram_link.bandwidth = hostDramBw;
    dram_link.latency = 60'000; // ~60 ns loaded DRAM latency
    hostDram = std::make_unique<noc::Link>(sim, "hostDramBulk",
                                           dram_link);

    noc::LinkConfig cache_link;
    cache_link.bandwidth = cfg.cacheLinkBw;
    cache_link.latency = 10'000; // LLC access
    cachePort = std::make_unique<noc::Link>(sim, "cachePort",
                                            cache_link);

    noc::LinkConfig bus_link;
    bus_link.bandwidth = cfg.aimBusBw;
    bus_link.latency = 40'000;
    aimBus = std::make_unique<noc::Link>(sim, "aimBus", bus_link);
}

void
ReachSystem::buildStorage()
{
    noc::LinkConfig io_link;
    io_link.bandwidth = cfg.hostPcieBw;
    io_link.latency = 500'000; // host IO stack
    hostIo = std::make_unique<noc::Link>(sim, "hostIoUplink", io_link);

    for (std::uint32_t i = 0; i < cfg.numSsds; ++i) {
        ssds.push_back(std::make_unique<storage::Ssd>(
            sim, "ssd" + std::to_string(i), cfg.ssd));

        noc::LinkConfig host_side;
        host_side.bandwidth = cfg.perSsdHostBw;
        host_side.latency = 300'000;
        ssdHost.push_back(std::make_unique<noc::Link>(
            sim, "ssdHost" + std::to_string(i), host_side));
    }
}

void
ReachSystem::buildAccelerators()
{
    if (cfg.hasOnChipAcc) {
        onChipAcc = std::make_unique<acc::Accelerator>(
            sim, "onChipAcc", acc::Level::OnChip);
        onChipAcc->attachTlb(*tlb);
        onChipAcc->setResidentPath(acc::Path{}.via(*cachePort));
        onChipAcc->setInputPath(
            acc::Path{}.via(*hostDram).via(*cachePort));
        onChipAcc->setOutputPath(acc::Path{}.via(*cachePort));
        onChipAcc->setParamPath(
            acc::Path{}.via(*hostDram).via(*cachePort));
        // On-chip SRAM retains parameters across tasks.
        onChipAcc->enableParamBuffer(std::uint64_t(40) << 20,
                                     cfg.cacheLinkBw);
    }

    // The host core doubles as a software compute target so CPU-only
    // baselines run through the same GAM machinery.
    cpuCore = std::make_unique<acc::Accelerator>(sim, "hostCore",
                                                 acc::Level::Cpu);
    cpuCore->setResidentPath(acc::Path{}.via(*cachePort));
    cpuCore->setInputPath(acc::Path{}.via(*hostDram).via(*cachePort));
    cpuCore->setOutputPath(acc::Path{}.via(*cachePort));
    cpuCore->setParamPath(acc::Path{}.via(*hostDram).via(*cachePort));
    cpuCore->enableParamBuffer(hostCoreParamBufferBytes, cfg.cacheLinkBw);

    // Near-memory AIM modules, each interposing its own DIMM.
    for (std::uint32_t i = 0; i < cfg.numAimModules; ++i) {
        std::string name = "aim" + std::to_string(i);
        aimDimms.push_back(
            std::make_unique<mem::Dimm>(sim, name + ".dimm", cfg.dram));

        noc::LinkConfig local;
        local.bandwidth = cfg.aimUsesHbm ? cfg.aimHbmBw
                                         : cfg.aimLocalBw;
        local.latency = cfg.aimUsesHbm ? cfg.aimHbmLatency
                                       : cfg.aimLocalLatency;
        aimLocal.push_back(std::make_unique<noc::Link>(
            sim, "aimLocal" + std::to_string(i), local));

        auto module = std::make_unique<acc::AimModule>(
            sim, name, *aimDimms.back());
        module->setInputPath(acc::Path{}.via(*aimLocal.back()));
        module->setOutputPath(acc::Path{}.via(*aimLocal.back()));
        module->setParamPath(acc::Path{}.via(*aimLocal.back()));
        // The module's parameters stay in its DIMM.
        module->enableParamBuffer(cfg.aimRegionBytes, local.bandwidth);
        aims.push_back(std::move(module));
    }

    // Near-storage modules: one per SSD.
    for (std::uint32_t i = 0; i < cfg.numSsds; ++i) {
        noc::LinkConfig local;
        local.bandwidth = cfg.nsLocalBw;
        local.latency = 80'000;
        nsLocal.push_back(std::make_unique<noc::Link>(
            sim, "nsLocal" + std::to_string(i), local));

        auto module = std::make_unique<acc::NsModule>(
            sim, "ns" + std::to_string(i), *ssds[i]);
        module->setInputPath(
            acc::Path{}.from(ssds[i].get(), nullptr).via(
                *nsLocal.back()));
        module->setOutputPath(
            acc::Path{}.via(*ssdHost[i]).via(*hostIo));
        // Parameter misses come from the host over PCIe.
        module->setParamPath(acc::Path{}.via(*hostDram).via(*hostIo).via(
            *ssdHost[i]));
        nss.push_back(std::move(module));
    }
}

void
ReachSystem::wireGam()
{
    gamUnit = std::make_unique<gam::Gam>(sim, "gam", cfg.gam);

    // Buffer-table capacities per level (Fig. 5c): on-chip SRAM, the
    // AIM DIMM regions, the SSD array, and the host DRAM region.
    gamUnit->buffers().setCapacity(acc::Level::OnChip,
                                   acc::virtexVu9p().bramBytes);
    gamUnit->buffers().setCapacity(
        acc::Level::NearMem,
        std::uint64_t(cfg.numAimModules) * cfg.aimRegionBytes);
    gamUnit->buffers().setCapacity(
        acc::Level::NearStor,
        std::uint64_t(cfg.numSsds) * cfg.ssd.capacityBytes);
    gamUnit->buffers().setCapacity(acc::Level::Cpu, hostRegionBytes);

    if (onChipAcc)
        onChipId = gamUnit->addAccelerator(*onChipAcc);
    cpuId = gamUnit->addAccelerator(*cpuCore);
    for (auto &a : aims)
        aimIds.push_back(gamUnit->addAccelerator(*a));
    for (auto &n : nss)
        nsIds.push_back(gamUnit->addAccelerator(*n));

    gamUnit->setPathProvider(
        [this](const acc::Accelerator *from, const acc::Accelerator *to) {
            return pathBetween(from, to);
        });

    // Forced writebacks drain through the host DRAM channels.
    gamUnit->setFlushHook(
        [this](std::uint64_t bytes,
               std::function<void(sim::Tick)> done) {
            sim::Tick t = hostDram->reserve(bytes, sim.now());
            sim.events().schedule(t, [done, t] { done(t); },
                                  sim::EventPriority::Default,
                                  "flushDone");
        });
}

void
ReachSystem::wireFaults()
{
    if (!cfg.faultPlan.enabled())
        return;

    faultInj = std::make_unique<fault::FaultInjector>(sim, "faultInj",
                                                      cfg.faultPlan);

    gamUnit->setFaultInjector(faultInj.get());
    if (onChipAcc)
        onChipAcc->setFaultInjector(faultInj.get());
    cpuCore->setFaultInjector(faultInj.get());
    for (auto &a : aims)
        a->setFaultInjector(faultInj.get());
    for (auto &n : nss)
        n->setFaultInjector(faultInj.get());

    for (noc::Link *l : {hostDram.get(), cachePort.get(),
                         aimBus.get(), hostIo.get()})
        l->setFaultInjector(faultInj.get());
    for (auto &l : aimLocal)
        l->setFaultInjector(faultInj.get());
    for (auto &l : nsLocal)
        l->setFaultInjector(faultInj.get());
    for (auto &l : ssdHost)
        l->setFaultInjector(faultInj.get());

    for (auto &s : ssds)
        s->setFaultInjector(faultInj.get());
}

std::uint32_t
ReachSystem::instancesAt(acc::Level level) const
{
    switch (level) {
      case acc::Level::OnChip:
        return hasOnChip() ? 1 : 0;
      case acc::Level::Cpu:
        return 1;
      case acc::Level::NearMem:
        return numAims();
      case acc::Level::NearStor:
        return numNs();
    }
    return 0;
}

std::uint32_t
ReachSystem::gamIdAt(acc::Level level, std::uint32_t i) const
{
    if (i >= instancesAt(level)) {
        sim::fatal("no ", acc::levelName(level), " instance ", i,
                   " (system has ", instancesAt(level), ")");
    }
    switch (level) {
      case acc::Level::OnChip:
        return onChipId;
      case acc::Level::Cpu:
        return cpuId;
      case acc::Level::NearMem:
        return aimIds[i];
      case acc::Level::NearStor:
        return nsIds[i];
    }
    return ~0u;
}

acc::Path
ReachSystem::ssdGatherPath(acc::Level level, std::uint32_t i)
{
    acc::Path p;
    if (level == acc::Level::NearStor)
        return p;
    for (std::uint32_t s = 0; s < ssds.size(); ++s)
        p.from(ssds[s].get(), ssdHost[s].get());
    p.via(*hostIo).via(*hostDram);
    if (level == acc::Level::NearMem)
        return p.via(*aimLocal.at(i));
    return p.via(*cachePort);
}

acc::Path
ReachSystem::pathBetween(const acc::Accelerator *from,
                         const acc::Accelerator *to)
{
    using acc::Level;
    Level src = from ? from->level() : Level::Cpu;
    Level dst = to ? to->level() : Level::Cpu;

    auto ns_index = [this](const acc::Accelerator *a) -> std::uint32_t {
        for (std::uint32_t i = 0; i < nss.size(); ++i)
            if (nss[i].get() == a)
                return i;
        sim::panic("near-storage module not found in system");
    };

    acc::Path p;
    bool src_coherent = src == Level::Cpu || src == Level::OnChip;
    bool dst_coherent = dst == Level::Cpu || dst == Level::OnChip;

    if (src_coherent && dst_coherent) {
        // Stays inside the coherent domain.
        return p.via(*cachePort);
    }

    if (src_coherent && dst == Level::NearMem) {
        // Write through the memory channels into the AIM DIMM.
        return p.via(*hostDram);
    }
    if (src_coherent && dst == Level::NearStor) {
        return p.via(*hostIo).via(*ssdHost[ns_index(to)]);
    }

    if (src == Level::NearMem && dst == Level::NearMem)
        return p.via(*aimBus);
    if (src == Level::NearMem && dst_coherent)
        return p.via(*hostDram);
    if (src == Level::NearMem && dst == Level::NearStor) {
        return p.via(*hostDram).via(*hostIo).via(
            *ssdHost[ns_index(to)]);
    }

    std::uint32_t si = ns_index(from);
    if (dst_coherent)
        return p.via(*ssdHost[si]).via(*hostIo);
    if (dst == Level::NearMem)
        return p.via(*ssdHost[si]).via(*hostIo).via(*hostDram);
    // NS -> NS: hop through the host IO switch.
    return p.via(*ssdHost[si]).via(*hostIo).via(
        *ssdHost[ns_index(to)]);
}

void
ReachSystem::registerEnergy()
{
    using energy::Component;
    if (onChipAcc)
        energy.addAccelerator(*onChipAcc);
    energy.addAccelerator(*cpuCore);
    for (auto &a : aims)
        energy.addAccelerator(*a);
    for (auto &n : nss)
        energy.addAccelerator(*n);

    // DRAM background power covers every DIMM slot: host DIMMs then
    // one per AIM module, spread evenly across the channels, so a
    // partly filled last row of slots draws power too (DESIGN.md
    // §4m).
    std::uint32_t slots_per_channel =
        (cfg.hostDimms + cfg.numAimModules + cfg.numChannels - 1) /
        cfg.numChannels;
    double ranks = static_cast<double>(cfg.numChannels) *
                   slots_per_channel * cfg.dram.ranksPerDimm;
    energy.addDramBackground(ranks, cfg.dram.backgroundPowerW);
    for (auto &s : ssds)
        energy.addSsd(*s);

    energy.addLink(*hostDram, Component::Dram);
    energy.addLink(*cachePort, Component::Cache);
    energy.addLink(*aimBus, Component::McInterconnect);
    energy.addLink(*hostIo, Component::Pcie);
    for (auto &l : aimLocal)
        energy.addLink(*l, Component::Dram);
    for (auto &l : nsLocal)
        energy.addLink(*l, Component::Pcie);
    for (auto &l : ssdHost)
        energy.addLink(*l, Component::Pcie);

    energy.addGam(*gamUnit);
}

acc::Accelerator &
ReachSystem::onChip()
{
    if (!onChipAcc)
        sim::fatal("this configuration has no on-chip accelerator");
    return *onChipAcc;
}

RunResult
ReachSystem::runJobs(std::uint32_t jobs, std::uint32_t window,
                     std::function<gam::JobDesc(std::uint32_t)> make)
{
    if (jobs == 0)
        return {};
    if (window == 0)
        sim::fatal("a closed-loop run needs a window of at least 1");

    sim::Tick t0 = sim.now();

    struct RunState
    {
        std::uint32_t submitted = 0;
        std::uint32_t completed = 0;
        std::uint32_t failed = 0;
        /**
         * 128-bit sum: an open-loop-length run (billions of batches
         * at millisecond latencies) would overflow a 64-bit tick
         * accumulator long before the tick counter itself wraps.
         */
        unsigned __int128 latencySum = 0;
        sim::Tick latencyMax = 0;
        sim::Tick lastDone = 0;
    };
    auto st = std::make_shared<RunState>();

    // Recursive submitter. The function captures itself weakly —
    // outstanding completion callbacks hold the strong references,
    // so the whole chain is freed once the run drains.
    auto submit = std::make_shared<std::function<void()>>();
    std::weak_ptr<std::function<void()>> weak_submit = submit;
    *submit = [this, st, jobs, weak_submit, make = std::move(make)]() {
        if (st->submitted >= jobs)
            return;
        std::uint32_t idx = st->submitted++;
        sim::Tick submitted_at = sim.now();
        gam::JobDesc job = make(idx);
        job.onComplete = [st, submitted_at,
                          submit = weak_submit.lock()](sim::Tick at) {
            sim::Tick lat = at - submitted_at;
            st->latencySum += lat;
            st->latencyMax = std::max(st->latencyMax, lat);
            st->lastDone = at;
            ++st->completed;
            (*submit)();
        };
        // A failed job frees its window slot so the run still
        // drains; the caller sees it in failedBatches.
        job.onFailed = [st, submit = weak_submit.lock()](sim::Tick at) {
            st->lastDone = std::max(st->lastDone, at);
            ++st->failed;
            (*submit)();
        };
        gamUnit->submitJob(std::move(job));
    };

    for (std::uint32_t i = 0; i < window && i < jobs; ++i)
        (*submit)();

    sim.runUntil(
        [st, jobs] { return st->completed + st->failed >= jobs; });

    // runUntil() also returns when the event queue drains. If jobs
    // are still pending at that point the simulated system wedged —
    // fail loudly with the progress table instead of letting callers
    // see a silent partial result.
    if (st->completed + st->failed < jobs)
        gamUnit->reportWedge("ReachSystem::runJobs");

    RunResult res;
    res.batches = jobs;
    res.completedBatches = st->completed;
    res.failedBatches = st->failed;
    res.makespan = st->lastDone - t0;
    res.meanLatency =
        st->completed > 0
            ? static_cast<sim::Tick>(st->latencySum / st->completed)
            : 0;
    res.maxLatency = st->latencyMax;
    return res;
}

energy::EnergyBreakdown
ReachSystem::measureEnergy()
{
    return energy.measure(sim.now());
}

} // namespace reach::core
