#include "accelerator.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace reach::acc
{

const char *
levelName(Level level)
{
    switch (level) {
      case Level::OnChip:
        return "OnChip";
      case Level::NearMem:
        return "NearMem";
      case Level::NearStor:
        return "NearStor";
      case Level::Cpu:
        return "CPU";
    }
    return "?";
}

std::string
kernelTemplate(const std::string &family, Level level)
{
    switch (level) {
      case Level::OnChip:
        return family + "-VU9P";
      case Level::Cpu:
        return family + "-CPU";
      case Level::NearMem:
      case Level::NearStor:
        break;
    }
    return family + "-ZCU9";
}

Accelerator::Accelerator(sim::Simulator &sim, const std::string &name,
                         Level level)
    : sim::SimObject(sim, name),
      lvl(level),
      statTasks(name + ".tasks", "tasks completed"),
      statActive(name + ".activeTicks", "ticks spent on tasks"),
      statCompute(name + ".computeTicks",
                  "ticks the compute pipeline was busy"),
      statOps(name + ".ops", "work units executed"),
      statBytesIn(name + ".bytesIn", "input bytes streamed"),
      statBytesOut(name + ".bytesOut", "output bytes streamed"),
      statParamHits(name + ".paramHits", "parameter buffer hits"),
      statParamMisses(name + ".paramMisses", "parameter buffer misses"),
      statReconfigs(name + ".reconfigs", "bitstream loads"),
      statFaultsInjected(name + ".faultsInjected",
                         "tasks lost to injected faults")
{
    registerStat(statTasks);
    registerStat(statActive);
    registerStat(statCompute);
    registerStat(statOps);
    registerStat(statBytesIn);
    registerStat(statBytesOut);
    registerStat(statParamHits);
    registerStat(statParamMisses);
    registerStat(statReconfigs);
    registerStat(statFaultsInjected);
}

void
Accelerator::configure(const KernelProfile &profile,
                       sim::Tick reconfig_delay)
{
    if (prof && prof->id == profile.id)
        return;
    prof = profile;
    if (profile.device == "XCVU9P")
        staticPowerW = virtexVu9p().staticPowerW;
    else if (profile.device == "XeonCore")
        staticPowerW = xeonCore().staticPowerW;
    else
        staticPowerW = zynqZcu9().staticPowerW;
    ++statReconfigs;
    busyUntil = std::max(busyUntil, now()) + reconfig_delay;
}

void
Accelerator::enableParamBuffer(std::uint64_t capacity_bytes,
                               double buffer_bandwidth)
{
    if (buffer_bandwidth <= 0)
        sim::fatal(name(), ": param buffer bandwidth must be positive");
    paramBufEnabled = true;
    paramBufCapacity = capacity_bytes;
    paramBufBandwidth = buffer_bandwidth;
}

double
Accelerator::activePowerW() const
{
    if (!prof)
        return 0;
    return powerFor(*prof, lvl == Level::NearStor);
}

sim::Tick
Accelerator::fetchParams(const WorkUnit &work, sim::Tick at)
{
    if (work.paramBytes == 0)
        return at;

    if (paramBufEnabled && !work.paramKey.empty()) {
        auto it = std::find_if(
            paramLru.begin(), paramLru.end(),
            [&](const auto &e) { return e.first == work.paramKey; });
        if (it != paramLru.end()) {
            ++statParamHits;
            paramLru.splice(paramLru.begin(), paramLru, it);
            return at + sim::transferTicks(work.paramBytes,
                                           paramBufBandwidth);
        }
        ++statParamMisses;
        // Fetch through the param path, then cache in the buffer.
        sim::Tick ready = paramPath.empty()
                              ? at
                              : paramPath.reserve(work.paramBytes, at);
        paramBufUsed += work.paramBytes;
        paramLru.emplace_front(work.paramKey, work.paramBytes);
        while (paramBufUsed > paramBufCapacity && !paramLru.empty()) {
            paramBufUsed -= paramLru.back().second;
            paramLru.pop_back();
        }
        return ready;
    }

    return paramPath.empty() ? at
                             : paramPath.reserve(work.paramBytes, at);
}

std::pair<sim::Tick, sim::Tick>
Accelerator::reserveTask(const WorkUnit &work)
{
    sim::Tick start = std::max(now(), busyUntil);
    sim::Tick t0 = fetchParams(work, start);

    sim::Tick compute_total = prof->computeTicks(work.ops);
    statCompute += static_cast<double>(compute_total);

    const Path &in =
        !work.inputOverride.empty()
            ? work.inputOverride
            : (work.inputResident && !residentPath.empty()
                   ? residentPath
                   : inputPath);

    sim::Tick end;
    if (work.bytesIn == 0) {
        sim::Tick comp_done = t0 + compute_total;
        end = work.bytesOut && !outputPath.empty()
                  ? outputPath.reserve(work.bytesOut, comp_done)
                  : comp_done;
    } else {
        std::uint64_t chunks =
            std::clamp<std::uint64_t>(work.bytesIn / Path::defaultChunk,
                                      1, maxChunks);
        std::uint64_t in_chunk = work.bytesIn / chunks;
        std::uint64_t out_chunk =
            work.bytesOut ? std::max<std::uint64_t>(work.bytesOut / chunks,
                                                    1)
                          : 0;
        sim::Tick chunk_compute = compute_total / chunks;

        // TLB: streamed pages translated by parallel page walkers; the
        // serial exposure per miss is walkLatency / overlap.
        constexpr sim::Tick walk_overlap = 8;

        sim::Tick comp_done = t0;
        sim::Tick end_stream = t0;
        std::uint64_t consumed_in = 0;
        // Requester-side concurrency limit on the input stream.
        sim::Tick throttle_free = t0;
        for (std::uint64_t k = 0; k < chunks; ++k) {
            std::uint64_t this_in = (k + 1 == chunks)
                                        ? work.bytesIn - consumed_in
                                        : in_chunk;
            consumed_in += this_in;

            sim::Tick enter = t0;
            if (work.inputThrottleBw > 0) {
                enter = std::max(enter, throttle_free);
                throttle_free =
                    enter + sim::transferTicks(this_in,
                                               work.inputThrottleBw);
            }
            sim::Tick arrive =
                in.empty() ? enter : in.reserve(this_in, enter);
            if (work.inputThrottleBw > 0)
                arrive = std::max(arrive, throttle_free);

            if (accTlb && !work.inputResident) {
                // Sequential streaming in 4 KiB steps. The cursor only
                // grows, so no streamed page is resident again. The +1
                // takes one step more than a whole-page chunk spans
                // (DESIGN.md §4l).
                std::uint64_t steps = this_in / 4096 + 1;
                sim::Tick extra =
                    accTlb->translateRange(streamCursor, steps, 4096);
                streamCursor += steps * 4096;
                arrive += extra / walk_overlap;
            }

            comp_done = std::max(comp_done, arrive) + chunk_compute;
            if (out_chunk && !outputPath.empty()) {
                end_stream = outputPath.reserve(out_chunk, comp_done);
            } else {
                end_stream = comp_done;
            }
        }
        end = std::max(comp_done, end_stream);
    }

    busyUntil = end;
    return {start, end};
}

void
Accelerator::execute(const WorkUnit &work,
                     std::function<void(sim::Tick)> on_done)
{
    if (!prof)
        sim::panic(name(), ": execute() before configure()");

    auto [start, end] = reserveTask(work);

    statActive += static_cast<double>(end - start);
    statOps += work.ops;
    statBytesIn += static_cast<double>(work.bytesIn);
    statBytesOut += static_cast<double>(work.bytesOut);

    schedule(start, [this] { onTaskStart(now()); },
             sim::EventPriority::Control, "taskStart");

    // Injected faults: a crash kills the device (every task is lost
    // until repair()), a hang loses just this task. Either way the
    // memory-controller timeout eventually reclaims the module's
    // resources, so the subclass teardown (onTaskEnd — e.g. the AIM
    // module releasing its DIMM) still runs at the reservation end;
    // only the completion signal (statTasks, on_done) never arrives.
    auto injected = fault::FaultInjector::AccFault::None;
    if (faultInj && !isFaulted)
        injected = faultInj->onTaskExecute(name());
    if (injected != fault::FaultInjector::AccFault::None)
        ++statFaultsInjected;
    if (injected == fault::FaultInjector::AccFault::Crash)
        isFaulted = true;
    if (isFaulted || injected != fault::FaultInjector::AccFault::None) {
        schedule(end, [this] { onTaskEnd(now()); },
                 sim::EventPriority::Default, "taskLost");
        return;
    }

    schedule(end, [this, on_done] {
        ++statTasks;
        onTaskEnd(now());
        if (on_done)
            on_done(now());
    }, sim::EventPriority::Default, "taskEnd");
}

sim::Tick
Accelerator::estimateTicks(const WorkUnit &work) const
{
    if (!prof)
        return 0;
    sim::Tick compute = prof->computeTicks(work.ops);

    auto stream_time = [](const Path &p, std::uint64_t bytes) {
        if (p.empty() || bytes == 0)
            return sim::Tick(0);
        return sim::transferTicks(bytes, p.bottleneckBandwidth());
    };

    const Path &in =
        !work.inputOverride.empty()
            ? work.inputOverride
            : (work.inputResident && !residentPath.empty()
                   ? residentPath
                   : inputPath);
    sim::Tick in_time = stream_time(in, work.bytesIn);
    if (work.inputThrottleBw > 0) {
        in_time = std::max(in_time,
                           sim::transferTicks(work.bytesIn,
                                              work.inputThrottleBw));
    }
    sim::Tick t = std::max({compute, in_time,
                            stream_time(outputPath, work.bytesOut)});

    // Parameter fetch: a buffered parameter set streams from the
    // private DRAM buffer, not over the fetch path. The synthesis
    // report gives the GAM this knowledge (paper §III-A).
    sim::Tick param_time = 0;
    if (work.paramBytes > 0) {
        bool buffered =
            paramBufEnabled && !work.paramKey.empty() &&
            std::find_if(paramLru.begin(), paramLru.end(),
                         [&](const auto &e) {
                             return e.first == work.paramKey;
                         }) != paramLru.end();
        param_time = buffered
                         ? sim::transferTicks(work.paramBytes,
                                              paramBufBandwidth)
                         : stream_time(paramPath, work.paramBytes);
    }
    return t + param_time;
}

double
Accelerator::energyJoules(sim::Tick horizon) const
{
    double active_s = sim::secondsFromTicks(
        std::min<sim::Tick>(computeTicksBusy(), horizon));
    double total_s = sim::secondsFromTicks(horizon);
    return active_s * activePowerW() + total_s * staticPowerW;
}

void
Accelerator::onTaskStart(sim::Tick)
{
}

void
Accelerator::onTaskEnd(sim::Tick)
{
}

} // namespace reach::acc
