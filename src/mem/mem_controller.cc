#include "mem_controller.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace reach::mem
{

MemController::MemController(sim::Simulator &sim, const std::string &name,
                             std::vector<Dimm *> dimm_list,
                             const MemCtrlConfig &config)
    : sim::SimObject(sim, name),
      dimms(std::move(dimm_list)),
      cfg(config),
      statReads(name + ".reads", "read bursts issued"),
      statWrites(name + ".writes", "write bursts issued"),
      statBusBytes(name + ".busBytes", "bytes over the channel bus"),
      statReadLatency(name + ".readLatency",
                      "read latency, enqueue to data (ticks)"),
      statQueueDepth(name + ".queueDepth",
                     "occupancy sampled at enqueue")
{
    if (dimms.empty())
        sim::fatal(name, ": controller needs at least one DIMM");
    registerStat(statReads);
    registerStat(statWrites);
    registerStat(statBusBytes);
    registerStat(statReadLatency);
    registerStat(statQueueDepth);
}

bool
MemController::canAcceptRead() const
{
    return readQ.size() < cfg.readQueueEntries;
}

bool
MemController::canAcceptWrite() const
{
    return writeQ.size() < cfg.writeQueueEntries;
}

bool
MemController::enqueue(std::uint32_t dimm, const MemRequest &req)
{
    if (dimm >= dimms.size())
        sim::panic(name(), ": request to DIMM ", dimm, " out of range");
    if (dimms[dimm]->isAccOwned()) {
        sim::panic(name(), ": host access to DIMM ", dimm,
                   " while owned by its AIM module");
    }

    auto &q = req.write ? writeQ : readQ;
    std::uint32_t limit =
        req.write ? cfg.writeQueueEntries : cfg.readQueueEntries;
    if (q.size() >= limit)
        return false;

    q.push_back(QueuedReq{dimm, req, now()});
    statQueueDepth.sample(
        static_cast<double>(readQ.size() + writeQ.size()));
    wake();
    return true;
}

void
MemController::wake()
{
    if (schedulerArmed)
        return;
    schedulerArmed = true;
    // The frontend decode latency applies to a newly arrived request;
    // the scheduler itself re-arms at data-bus rate (see issue()), so
    // back-to-back bursts pipeline at full channel bandwidth.
    sim::Tick when = std::max(now() + cfg.frontendLatency, busFreeAt);
    schedule(when, [this] {
        schedulerArmed = false;
        trySchedule();
    }, sim::EventPriority::Default, "schedule");
}

std::size_t
MemController::pickFrFcfs(const std::deque<QueuedReq> &q) const
{
    // First ready (open-row hit on a ready bank) in arrival order;
    // otherwise the oldest request.
    std::size_t oldest_ready = npos;
    for (std::size_t i = 0; i < q.size(); ++i) {
        const auto &qr = q[i];
        const Dimm &d = *dimms[qr.dimm];
        if (d.isAccOwned())
            continue;
        if (d.wouldRowHit(qr.req.addr) &&
            d.bankReadyAt(qr.req.addr) <= now()) {
            return i;
        }
        if (oldest_ready == npos)
            oldest_ready = i;
    }
    return oldest_ready;
}

void
MemController::trySchedule()
{
    if (readQ.empty() && writeQ.empty())
        return;

    // Write drain hysteresis.
    if (writeQ.size() >= cfg.writeHighWatermark)
        drainingWrites = true;
    if (writeQ.size() <= cfg.writeLowWatermark)
        drainingWrites = false;

    bool take_write = !writeQ.empty() && (readQ.empty() || drainingWrites);
    auto &q = take_write ? writeQ : readQ;

    std::size_t idx = pickFrFcfs(q);
    if (idx == npos) {
        // Everything targets handed-over DIMMs; retry when something
        // changes (a conservative periodic poll keeps it simple).
        schedulerArmed = true;
        scheduleIn(sim::tickPerUs, [this] {
            schedulerArmed = false;
            trySchedule();
        }, sim::EventPriority::Default, "retry");
        return;
    }

    QueuedReq qr = std::move(q[idx]);
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(idx));
    issue(std::move(qr));

    if (!readQ.empty() || !writeQ.empty()) {
        // Re-arm when the data bus frees up, so issue rate tracks the
        // channel's burst rate rather than the frontend latency.
        schedulerArmed = true;
        schedule(std::max(busFreeAt, now() + 1), [this] {
            schedulerArmed = false;
            trySchedule();
        }, sim::EventPriority::Default, "rearm");
    }
}

void
MemController::issue(QueuedReq &&qr)
{
    Dimm &d = *dimms[qr.dimm];
    sim::Tick start = std::max(now(), busFreeAt);
    BurstResult br = d.serviceBurst(qr.req.addr, qr.req.write, start,
                                    policy);

    // Only the data transfer (tBL) occupies the shared channel bus;
    // CAS latency pipelines across back-to-back bursts.
    busFreeAt = br.issue + d.timings().tBL;
    statBusBytes += static_cast<double>(cacheLineBytes);

    if (qr.req.write)
        ++statWrites;
    else
        ++statReads;

    sim::Tick arrival = qr.arrival;
    auto cb = qr.req.onComplete;
    bool is_write = qr.req.write;
    schedule(br.complete, [this, cb, arrival, is_write] {
        if (!is_write)
            statReadLatency.sample(static_cast<double>(now() - arrival));
        if (cb)
            cb(now());
    }, sim::EventPriority::Default, "complete");
}

} // namespace reach::mem
