#include "gam.hh"

#include <algorithm>
#include <limits>
#include <ostream>
#include <sstream>

#include "sim/logging.hh"

namespace reach::gam
{

const char *
taskStateName(TaskState state)
{
    switch (state) {
      case TaskState::WaitingDeps:
        return "WaitingDeps";
      case TaskState::WaitingTransfer:
        return "WaitingTransfer";
      case TaskState::Queued:
        return "Queued";
      case TaskState::Running:
        return "Running";
      case TaskState::DoneUnobserved:
        return "DoneUnobserved";
      case TaskState::Complete:
        return "Complete";
      case TaskState::Failed:
        return "Failed";
    }
    return "?";
}

void
GamConfig::validate(const std::string &who) const
{
    if (commandLatency == 0)
        sim::fatal(who, ": commandLatency must be positive");
    if (statusPollLatency == 0)
        sim::fatal(who, ": statusPollLatency must be positive");
    if (!(estimateErrorFactor > 0)) {
        sim::fatal(who, ": estimateErrorFactor must be > 0, got ",
                   estimateErrorFactor);
    }
    if (!(watchdogSlack > 0))
        sim::fatal(who, ": watchdogSlack must be > 0, got ", watchdogSlack);
    if (watchdogMin == 0)
        sim::fatal(who, ": watchdogMin must be positive");
    if (!(pollBackoffFactor >= 1.0)) {
        sim::fatal(who, ": pollBackoffFactor must be >= 1, got ",
                   pollBackoffFactor);
    }
    if (maxTaskAttempts == 0)
        sim::fatal(who, ": maxTaskAttempts must be at least 1");
    if (maxPollRetries == 0)
        sim::fatal(who, ": maxPollRetries must be at least 1");
    if (quarantineStrikes == 0)
        sim::fatal(who, ": quarantineStrikes must be at least 1");
}

Gam::Gam(sim::Simulator &sim, const std::string &name,
         const GamConfig &config)
    : sim::SimObject(sim, name),
      cfg(config),
      statJobsDone(name + ".jobsDone", "jobs completed"),
      statJobsFailed(name + ".jobsFailed",
                     "jobs abandoned with an explicit failure status"),
      statTasksDispatched(name + ".tasksDispatched",
                          "tasks sent to accelerators"),
      statPolls(name + ".statusPolls", "status packets sent"),
      statDmaBytes(name + ".dmaBytes", "bytes moved by GAM DMA"),
      statFlushes(name + ".forcedFlushes", "forced cache writebacks"),
      statTaskRetries(name + ".taskRetries",
                      "task attempts re-dispatched after a loss"),
      statFailovers(name + ".failovers",
                    "task attempts dispatched off their home level"),
      statDeadlineMisses(name + ".deadlineMisses",
                         "watchdog deadlines that declared a loss"),
      statPollRetries(name + ".pollRetries",
                      "status polls re-sent after a lost packet"),
      statQuarantines(name + ".quarantines", "instances quarantined"),
      statRecoveries(name + ".recoveries",
                     "quarantined instances recovered"),
      statJobLatency(name + ".jobLatency",
                     "submit-to-complete latency (ticks)"),
      statQueueWait(name + ".queueWait",
                    "task wait in scheduling queue (ticks)")
{
    cfg.validate(name);
    registerStat(statJobsDone);
    registerStat(statJobsFailed);
    registerStat(statTasksDispatched);
    registerStat(statPolls);
    registerStat(statDmaBytes);
    registerStat(statFlushes);
    registerStat(statTaskRetries);
    registerStat(statFailovers);
    registerStat(statDeadlineMisses);
    registerStat(statPollRetries);
    registerStat(statQuarantines);
    registerStat(statRecoveries);
    registerStat(statJobLatency);
    registerStat(statQueueWait);
}

std::uint32_t
Gam::addAccelerator(acc::Accelerator &acc)
{
    rows.push_back(ProgressRow{&acc, std::nullopt, 0, {}});
    return static_cast<std::uint32_t>(rows.size() - 1);
}

std::vector<std::uint32_t>
Gam::acceleratorsAt(acc::Level level) const
{
    std::vector<std::uint32_t> out;
    for (std::uint32_t i = 0; i < rows.size(); ++i) {
        if (rows[i].acc->level() == level)
            out.push_back(i);
    }
    return out;
}

JobId
Gam::submitJob(JobDesc job)
{
    if (job.tasks.empty())
        sim::fatal(name(), ": job '", job.label, "' has no tasks");

    JobId jid = nextJobId++;
    ++activeJobs;

    JobRecord rec;
    rec.desc = std::move(job);
    rec.submitted = now();
    rec.remaining = static_cast<std::uint32_t>(rec.desc.tasks.size());

    // Materialize task records with global ids.
    std::vector<TaskId> ids;
    ids.reserve(rec.desc.tasks.size());
    for (const auto &desc : rec.desc.tasks) {
        TaskId tid = nextTaskId++;
        ids.push_back(tid);

        TaskRecord task;
        task.desc = desc;
        task.job = jid;
        task.depsRemaining = static_cast<std::uint32_t>(desc.deps.size());
        tasks.emplace(tid, std::move(task));
    }
    // Wire dependents (local index -> global id).
    for (std::size_t i = 0; i < rec.desc.tasks.size(); ++i) {
        for (std::size_t dep : rec.desc.tasks[i].deps) {
            if (dep >= ids.size())
                sim::fatal(name(), ": task dep index out of range");
            tasks.at(ids[dep]).dependents.push_back(ids[i]);
        }
    }
    rec.taskIds = ids;
    jobs.emplace(jid, std::move(rec));

    // ACC command packets reach the GAM after the command latency;
    // root tasks then enter their transfer phase.
    scheduleIn(cfg.commandLatency, [this, jid] {
        auto jit = jobs.find(jid);
        if (jit == jobs.end())
            return;
        // Copy: beginTransfers can fail the job and erase the record.
        std::vector<TaskId> roots;
        for (TaskId tid : jit->second.taskIds) {
            if (tasks.at(tid).depsRemaining == 0)
                roots.push_back(tid);
        }
        for (TaskId tid : roots) {
            auto it = tasks.find(tid);
            if (it != tasks.end() &&
                it->second.state == TaskState::WaitingDeps) {
                beginTransfers(tid);
            }
        }
    }, sim::EventPriority::Control, "jobArrive");

    return jid;
}

bool
Gam::blockedByJobOrder(const TaskRecord &task) const
{
    return !cfg.crossJobPipelining && task.job != oldestActiveJob;
}

void
Gam::releaseBlockedTasks()
{
    std::vector<TaskId> ready;
    auto it = jobOrderBlocked.begin();
    while (it != jobOrderBlocked.end()) {
        auto tit = tasks.find(*it);
        if (tit == tasks.end()) {
            it = jobOrderBlocked.erase(it);
        } else if (!blockedByJobOrder(tit->second)) {
            ready.push_back(*it);
            it = jobOrderBlocked.erase(it);
        } else {
            ++it;
        }
    }
    for (TaskId tid : ready)
        beginTransfers(tid);
}

Gam::TaskRecord *
Gam::liveTask(TaskId tid, std::uint32_t stamp)
{
    auto it = tasks.find(tid);
    if (it == tasks.end() || it->second.attempts != stamp)
        return nullptr;
    return &it->second;
}

void
Gam::disarmTask(TaskRecord &task)
{
    if (task.watchdogPending) {
        simulator().events().deschedule(task.watchdogEv);
        task.watchdogPending = false;
    }
    if (task.pollPending) {
        simulator().events().deschedule(task.pollEv);
        task.pollPending = false;
    }
}

void
Gam::releaseRowCharge(TaskId tid, TaskRecord &task)
{
    if (task.assignedAcc == ~0u)
        return;
    ProgressRow &row = rows[task.assignedAcc];
    if (row.assigned > 0)
        --row.assigned;
    row.backlogEstimate -= std::min(row.backlogEstimate,
                                    task.backlogCharge);
    task.backlogCharge = 0;
    if (row.currentTask && *row.currentTask == tid)
        row.currentTask.reset();
}

std::string
Gam::remapTemplate(const std::string &tmpl, acc::Level level) const
{
    // Kernel template ids are "<family>-<device>" (see kernelCatalog);
    // cross-level failover keeps the family and swaps the device.
    auto dash = tmpl.rfind('-');
    if (dash == std::string::npos)
        return {};
    std::string candidate =
        acc::kernelTemplate(tmpl.substr(0, dash), level);
    return acc::findKernelMaybe(candidate) ? candidate : std::string{};
}

Gam::Route
Gam::routeTask(const TaskRecord &task, std::uint32_t exclude_acc)
{
    const TaskDesc &d = task.desc;

    // Honor a pin while its target is usable; failover overrides it.
    if (d.pinnedAcc) {
        std::uint32_t id = *d.pinnedAcc;
        if (id >= rows.size() ||
            rows[id].acc->level() != d.level) {
            sim::fatal(name(), ": task '", d.label,
                       "' pinned to invalid accelerator ", id);
        }
        if (id != exclude_acc && rows[id].health != Health::Failed)
            return Route{id, d.level, d.kernelTemplate};
    }

    bool any_at_home = false;
    for (const auto &row : rows) {
        if (row.acc->level() == d.level) {
            any_at_home = true;
            break;
        }
    }
    if (!any_at_home) {
        sim::fatal(name(), ": no accelerator registered at level ",
                   acc::levelName(d.level), " for task '", d.label, "'");
    }

    // Degradation chain: siblings at the home level first, then
    // coarser levels that still have a bitstream for the kernel
    // family (a shortlist lost near-memory re-runs on-chip, etc.).
    std::vector<acc::Level> chain{d.level};
    if (cfg.crossLevelFailover) {
        if (d.level == acc::Level::NearMem ||
            d.level == acc::Level::NearStor) {
            chain.push_back(acc::Level::OnChip);
            chain.push_back(acc::Level::Cpu);
        } else if (d.level == acc::Level::OnChip) {
            chain.push_back(acc::Level::Cpu);
        }
    }

    auto pick = [&](acc::Level level, bool allow_suspect)
        -> std::uint32_t {
        std::uint32_t best = ~0u;
        double best_score = std::numeric_limits<double>::max();
        for (std::uint32_t i = 0; i < rows.size(); ++i) {
            const ProgressRow &row = rows[i];
            if (row.acc->level() != level || i == exclude_acc ||
                row.health == Health::Failed) {
                continue;
            }
            if (!allow_suspect && row.health == Health::Suspect)
                continue;
            double score;
            if (cfg.scheduling == SchedulingPolicy::EarliestFree) {
                // Expected availability: device reservation end plus
                // the estimated runtime of everything assigned here.
                score = static_cast<double>(
                            std::max(row.acc->freeAt(), now())) +
                        static_cast<double>(row.backlogEstimate);
                // Ties (all idle) fall back to assignment count.
                score += static_cast<double>(row.assigned) * 1e-3;
            } else {
                score = static_cast<double>(row.assigned);
            }
            if (score < best_score) {
                best_score = score;
                best = i;
            }
        }
        return best;
    };

    for (acc::Level level : chain) {
        std::string tmpl = level == d.level
                               ? d.kernelTemplate
                               : remapTemplate(d.kernelTemplate, level);
        if (tmpl.empty())
            continue;
        std::uint32_t id = pick(level, false);
        if (id == ~0u)
            id = pick(level, true);
        if (id != ~0u)
            return Route{id, level, std::move(tmpl)};
    }
    return Route{};
}

void
Gam::beginTransfers(TaskId tid, std::uint32_t exclude_acc)
{
    auto tit = tasks.find(tid);
    if (tit == tasks.end())
        return;
    TaskRecord &task = tit->second;

    if (blockedByJobOrder(task)) {
        jobOrderBlocked.push_back(tid);
        return;
    }

    ++task.attempts;
    if (task.attempts > cfg.maxTaskAttempts) {
        std::ostringstream why;
        why << "task '" << task.desc.label << "' lost "
            << cfg.maxTaskAttempts << " attempts (budget exhausted)";
        failJob(task.job, why.str());
        return;
    }
    if (task.attempts > 1)
        ++statTaskRetries;
    task.pollRetries = 0;
    task.deadline = 0;

    Route route = routeTask(task, exclude_acc);
    if (route.acc == ~0u) {
        std::ostringstream why;
        why << "no healthy accelerator for task '" << task.desc.label
            << "' (home level " << acc::levelName(task.desc.level)
            << ")";
        failJob(task.job, why.str());
        return;
    }
    if (route.level != task.desc.level) {
        ++statFailovers;
        notify(TaskEventKind::Failover, route.acc, &task);
    }

    task.state = TaskState::WaitingTransfer;
    task.assignedAcc = route.acc;
    task.runTemplate = std::move(route.kernelTemplate);
    ++rows[task.assignedAcc].assigned;
    // Charge the compute estimate to the row's backlog (the kernel
    // synthesis report gives the GAM this number, paper §III-A).
    task.backlogCharge = acc::findKernel(task.runTemplate)
                             .computeTicks(task.desc.work.ops);
    rows[task.assignedAcc].backlogEstimate += task.backlogCharge;

    std::vector<const InboundTransfer *> moves;
    for (const auto &in : task.desc.inbound) {
        if (in.bytes > 0)
            moves.push_back(&in);
    }
    if (moves.empty()) {
        enqueueTask(tid);
        return;
    }

    task.transfersRemaining = static_cast<std::uint32_t>(moves.size());
    const JobRecord &job = jobs.at(task.job);
    acc::Accelerator *to = rows[task.assignedAcc].acc;
    std::uint32_t stamp = task.attempts;

    for (const auto *in : moves) {
        acc::Accelerator *from = nullptr;
        acc::Level from_level = acc::Level::Cpu;
        if (in->from != InboundTransfer::fromHost) {
            const TaskRecord &producer =
                tasks.at(job.taskIds.at(in->from));
            if (producer.state != TaskState::Complete) {
                sim::panic(name(), ": inbound transfer from task that "
                           "is not complete");
            }
            from = rows[producer.assignedAcc].acc;
            from_level = from->level();
        }

        statDmaBytes += static_cast<double>(in->bytes);

        std::uint64_t bytes = in->bytes;
        auto do_dma = [this, tid, stamp, from, to, bytes](sim::Tick) {
            acc::Path path =
                pathProvider ? pathProvider(from, to) : acc::Path{};
            sim::Tick done =
                path.empty() ? now() : path.reserve(bytes, now());
            schedule(done, [this, tid, stamp] {
                TaskRecord *t = liveTask(tid, stamp);
                if (!t)
                    return;
                if (--t->transfersRemaining == 0)
                    enqueueTask(tid);
            }, sim::EventPriority::Default, "dmaDone");
        };

        // Toward near-data levels, coherent-cache copies must be
        // written back first (paper Fig. 6, steps 2b/2c).
        bool coherent_src = from_level == acc::Level::Cpu ||
                            from_level == acc::Level::OnChip;
        bool near_dst = to->level() == acc::Level::NearMem ||
                        to->level() == acc::Level::NearStor;
        if (coherent_src && near_dst && flushHook) {
            ++statFlushes;
            flushHook(bytes, do_dma);
        } else {
            do_dma(now());
        }
    }
}

void
Gam::enqueueTask(TaskId tid)
{
    TaskRecord &task = tasks.at(tid);
    ProgressRow &row = rows[task.assignedAcc];

    // The target was quarantined while this attempt's transfers were
    // in flight: release the charge and route the task elsewhere.
    if (row.health == Health::Failed) {
        releaseRowCharge(tid, task);
        beginTransfers(tid, task.assignedAcc);
        return;
    }

    task.state = TaskState::Queued;
    task.dispatchedAt = now();

    // Deadline-aware queue insertion: a task whose job carries an
    // earlier deadline hint jumps ahead of later-deadline (and
    // deadline-less) waiting tasks, but never preempts the running
    // one. Ties keep arrival order, so the all-default case (every
    // deadline 0) reproduces plain FIFO bitwise.
    sim::Tick dl = jobDeadlineHint(task);
    auto pos = row.waiting.end();
    if (dl != sim::maxTick) {
        for (auto it = row.waiting.begin(); it != row.waiting.end();
             ++it) {
            if (jobDeadlineHint(tasks.at(*it)) > dl) {
                pos = it;
                break;
            }
        }
    }
    row.waiting.insert(pos, tid);
    kick(task.assignedAcc);
}

sim::Tick
Gam::jobDeadlineHint(const TaskRecord &task) const
{
    auto it = jobs.find(task.job);
    if (it == jobs.end() || it->second.desc.deadline == 0)
        return sim::maxTick;
    return it->second.desc.deadline;
}

void
Gam::kick(std::uint32_t acc_id)
{
    ProgressRow &row = rows[acc_id];
    if (row.health == Health::Failed)
        return;
    if (row.currentTask || row.waiting.empty())
        return;
    TaskId tid = row.waiting.front();
    row.waiting.pop_front();
    dispatch(acc_id, tid);
}

void
Gam::dispatch(std::uint32_t acc_id, TaskId tid)
{
    ProgressRow &row = rows[acc_id];
    TaskRecord &task = tasks.at(tid);

    row.currentTask = tid;
    task.state = TaskState::Running;
    statQueueWait.sample(static_cast<double>(now() - task.dispatchedAt));
    task.dispatchedAt = now();
    notify(TaskEventKind::Dispatch, acc_id, &task);
    ++statTasksDispatched;

    std::uint32_t stamp = task.attempts;

    // The launch command travels to the accelerator first.
    scheduleIn(cfg.commandLatency, [this, acc_id, tid, stamp] {
        TaskRecord *tp = liveTask(tid, stamp);
        if (!tp)
            return;
        TaskRecord &t = *tp;
        ProgressRow &r = rows[acc_id];
        acc::Accelerator &dev = *r.acc;

        dev.configure(acc::findKernel(t.runTemplate), cfg.reconfigDelay);

        sim::Tick estimate = static_cast<sim::Tick>(
            static_cast<double>(dev.estimateTicks(t.desc.work)) *
            cfg.estimateErrorFactor);
        r.estimatedDone = now() + estimate;

        bool interrupts = dev.level() == acc::Level::OnChip ||
                          dev.level() == acc::Level::Cpu;

        dev.execute(t.desc.work,
                    [this, tid, stamp, interrupts](sim::Tick at) {
            TaskRecord *done = liveTask(tid, stamp);
            if (!done)
                return;
            done->finishedAt = at;
            done->state = TaskState::DoneUnobserved;
            // On-chip accelerators interrupt the GAM directly;
            // near-data modules wait for a status poll.
            if (interrupts)
                completeTask(tid, at);
        });

        armWatchdog(tid);

        if (!interrupts) {
            t.pollEv = schedule(std::max(r.estimatedDone, now() + 1),
                                [this, tid, stamp] {
                                    pollStatus(tid, stamp);
                                },
                                sim::EventPriority::Control,
                                "statusPoll");
            t.pollPending = true;
        }
    }, sim::EventPriority::Control, "launch");
}

void
Gam::armWatchdog(TaskId tid)
{
    TaskRecord &task = tasks.at(tid);
    ProgressRow &row = rows[task.assignedAcc];

    // The deadline scales with the runtime estimate (and with how
    // wrong the estimate is allowed to be); it only ever declares a
    // loss once the device's own reservation has expired too, so a
    // long queue never trips it — only silence does.
    double est = static_cast<double>(
        row.acc->estimateTicks(task.desc.work));
    est *= std::max(cfg.estimateErrorFactor, 1.0);
    sim::Tick wait = std::max(
        cfg.watchdogMin,
        static_cast<sim::Tick>(cfg.watchdogSlack * est));
    task.deadline = now() + wait + cfg.reconfigDelay;

    std::uint32_t stamp = task.attempts;
    task.watchdogEv = schedule(task.deadline, [this, tid, stamp] {
        watchdogFire(tid, stamp);
    }, sim::EventPriority::Control, "watchdog");
    task.watchdogPending = true;
}

void
Gam::watchdogFire(TaskId tid, std::uint32_t stamp)
{
    TaskRecord *tp = liveTask(tid, stamp);
    if (!tp)
        return;
    TaskRecord &task = *tp;
    task.watchdogPending = false;

    if (task.state == TaskState::Complete ||
        task.state == TaskState::Failed) {
        return;
    }
    // The device already finished; the poll machinery (with its own
    // bounded retry budget) owns observation from here.
    if (task.state == TaskState::DoneUnobserved)
        return;

    ProgressRow &row = rows[task.assignedAcc];
    if (row.acc->freeAt() >= now()) {
        // The device still holds a live reservation covering this
        // task — contention, not silence. Re-arm past it.
        task.deadline = row.acc->freeAt() + cfg.watchdogMin;
        task.watchdogEv = schedule(task.deadline, [this, tid, stamp] {
            watchdogFire(tid, stamp);
        }, sim::EventPriority::Control, "watchdogRearm");
        task.watchdogPending = true;
        return;
    }

    // Reservation expired with no completion signal: the module went
    // silent under this task (crash or hang).
    ++statDeadlineMisses;
    failAttempt(tid, "watchdog deadline missed");
}

void
Gam::pollStatus(TaskId tid, std::uint32_t stamp)
{
    TaskRecord *tp = liveTask(tid, stamp);
    if (!tp)
        return;
    TaskRecord &task = *tp;
    task.pollPending = false;
    ++statPolls;
    ProgressRow &row = rows[task.assignedAcc];

    // A lost status packet (either direction) looks like a missing
    // response: retry with exponential backoff, bounded.
    if (faultInj && faultInj->dropPoll(row.acc->name())) {
        ++task.pollRetries;
        ++statPollRetries;
        if (task.pollRetries > cfg.maxPollRetries) {
            failAttempt(tid, "status-poll retry budget exhausted");
            return;
        }
        double backoff = static_cast<double>(cfg.statusPollLatency);
        for (std::uint32_t i = 0; i < task.pollRetries; ++i)
            backoff *= cfg.pollBackoffFactor;
        sim::Tick delay =
            std::max<sim::Tick>(static_cast<sim::Tick>(backoff), 1);
        task.pollEv = schedule(now() + delay, [this, tid, stamp] {
            pollStatus(tid, stamp);
        }, sim::EventPriority::Control, "statusRetry");
        task.pollPending = true;
        return;
    }

    if (task.state == TaskState::DoneUnobserved &&
        task.finishedAt <= now()) {
        // Status packet returns "finished" plus the output location;
        // completion is observed after the round trip.
        completeTask(tid, now() + cfg.statusPollLatency);
        return;
    }

    // Not finished: the device reports a new wait time (we use its
    // actual remaining reservation, which the device knows).
    sim::Tick remaining = row.acc->freeAt() > now()
                              ? row.acc->freeAt() - now()
                              : sim::tickPerUs;
    row.estimatedDone = now() + remaining;
    task.pollEv = schedule(
        now() + std::max<sim::Tick>(remaining, cfg.statusPollLatency),
        [this, tid, stamp] { pollStatus(tid, stamp); },
        sim::EventPriority::Control, "statusRepoll");
    task.pollPending = true;
}

void
Gam::failAttempt(TaskId tid, const char *why)
{
    TaskRecord &task = tasks.at(tid);
    disarmTask(task);
    std::uint32_t acc_id = task.assignedAcc;
    notify(TaskEventKind::AttemptLost, acc_id, &task, why);

    releaseRowCharge(tid, task);
    // strikeRow can quarantine the instance, re-route its queue, and
    // even fail this very job — re-find the task afterwards.
    strikeRow(acc_id);
    if (tasks.find(tid) != tasks.end())
        beginTransfers(tid, acc_id);
    kick(acc_id);
}

void
Gam::notify(TaskEventKind kind, std::uint32_t acc_id,
            const TaskRecord *task, const char *reason) const
{
    if (!taskObserver)
        return;
    TaskEvent ev;
    ev.kind = kind;
    ev.accName = rows[acc_id].acc->name();
    ev.level = rows[acc_id].acc->level();
    ev.observed = now();
    if (task) {
        ev.label = task->desc.label;
        ev.level = task->desc.level;
        ev.attempt = task->attempts;
        if (kind != TaskEventKind::Failover)
            ev.dispatched = task->dispatchedAt;
        if (kind == TaskEventKind::Complete)
            ev.finished = task->finishedAt;
    }
    if (reason)
        ev.reason = reason;
    taskObserver(ev);
}

void
Gam::strikeRow(std::uint32_t acc_id)
{
    ProgressRow &row = rows[acc_id];
    ++row.strikes;
    if (row.health == Health::Healthy)
        row.health = Health::Suspect;
    if (row.health == Health::Failed ||
        row.strikes < cfg.quarantineStrikes) {
        return;
    }

    row.health = Health::Failed;
    row.quarantinedAt = now();
    ++statQuarantines;
    notify(TaskEventKind::Quarantine, acc_id);

    // Everything still queued here must find another home.
    std::deque<TaskId> drained;
    drained.swap(row.waiting);
    for (TaskId qt : drained) {
        auto it = tasks.find(qt);
        if (it == tasks.end())
            continue;
        TaskRecord &q = it->second;
        if (q.state != TaskState::Queued || q.assignedAcc != acc_id)
            continue;
        releaseRowCharge(qt, q);
        beginTransfers(qt, acc_id);
    }

    if (cfg.recoveryDelay > 0) {
        sim::Tick delay = std::max(cfg.recoveryDelay, cfg.reconfigDelay);
        scheduleIn(delay, [this, acc_id] { recoverRow(acc_id); },
                   sim::EventPriority::Control, "recoverAcc");
    }
}

void
Gam::recoverRow(std::uint32_t acc_id)
{
    ProgressRow &row = rows[acc_id];
    if (row.health != Health::Failed)
        return;
    row.downtime += now() - row.quarantinedAt;
    row.quarantinedAt = 0;
    // Probation: the module rejoins as Suspect with one strike left,
    // so another silent task sends it straight back to quarantine.
    row.health = Health::Suspect;
    row.strikes = cfg.quarantineStrikes - 1;
    row.acc->repair();
    ++statRecoveries;
    notify(TaskEventKind::Recovered, acc_id);
    kick(acc_id);
}

void
Gam::completeTask(TaskId tid, sim::Tick at)
{
    if (at > now()) {
        auto it = tasks.find(tid);
        if (it == tasks.end())
            return;
        std::uint32_t stamp = it->second.attempts;
        schedule(at, [this, tid, stamp] {
            if (liveTask(tid, stamp))
                completeTask(tid, now());
        }, sim::EventPriority::Control, "completeAt");
        return;
    }

    auto it = tasks.find(tid);
    if (it == tasks.end())
        return;
    TaskRecord &task = it->second;
    if (task.state == TaskState::Complete ||
        task.state == TaskState::Failed) {
        return;
    }
    disarmTask(task);
    task.state = TaskState::Complete;
    notify(TaskEventKind::Complete, task.assignedAcc, &task);

    ProgressRow &row = rows[task.assignedAcc];
    if (row.assigned > 0)
        --row.assigned;
    row.backlogEstimate -= std::min(row.backlogEstimate,
                                    task.backlogCharge);
    // A completed task clears accumulated suspicion.
    row.strikes = 0;
    if (row.health == Health::Suspect)
        row.health = Health::Healthy;
    if (row.currentTask && *row.currentTask == tid) {
        row.currentTask.reset();
        kick(task.assignedAcc);
    }

    // Wake dependents. Copy first: a woken dependent can fail the job
    // (no healthy target), erasing this very record mid-loop.
    JobId jid = task.job;
    std::vector<TaskId> dependents = task.dependents;
    for (TaskId dep : dependents) {
        auto dit = tasks.find(dep);
        if (dit == tasks.end())
            continue;
        if (--dit->second.depsRemaining == 0)
            beginTransfers(dep);
    }

    // Job bookkeeping (the job may have failed during the wake).
    auto jit = jobs.find(jid);
    if (jit == jobs.end())
        return;
    JobRecord &job = jit->second;
    if (job.failed)
        return;
    if (--job.remaining == 0) {
        ++statJobsDone;
        --activeJobs;
        statJobLatency.sample(static_cast<double>(now() - job.submitted));
        if (job.desc.onComplete)
            job.desc.onComplete(now());
        finishJob(jid);
    }
}

void
Gam::failJob(JobId jid, const std::string &why)
{
    auto jit = jobs.find(jid);
    if (jit == jobs.end())
        return;
    JobRecord &job = jit->second;
    if (job.failed)
        return;
    job.failed = true;

    sim::warn(name(), ": job '", job.desc.label, "' failed: ", why);

    std::vector<std::uint32_t> kicks;
    for (TaskId tid : job.taskIds) {
        auto it = tasks.find(tid);
        if (it == tasks.end())
            continue;
        TaskRecord &t = it->second;
        if (t.state == TaskState::Complete ||
            t.state == TaskState::Failed) {
            continue;
        }
        disarmTask(t);
        if (t.state == TaskState::Queued && t.assignedAcc != ~0u) {
            auto &w = rows[t.assignedAcc].waiting;
            w.erase(std::remove(w.begin(), w.end(), tid), w.end());
        }
        if (t.assignedAcc != ~0u &&
            t.state != TaskState::WaitingDeps) {
            ProgressRow &row = rows[t.assignedAcc];
            if (row.assigned > 0)
                --row.assigned;
            row.backlogEstimate -= std::min(row.backlogEstimate,
                                            t.backlogCharge);
            if (row.currentTask && *row.currentTask == tid) {
                row.currentTask.reset();
                kicks.push_back(t.assignedAcc);
            }
        }
        t.state = TaskState::Failed;
        // Stamp-bump: orphan every closure of the dead attempt.
        ++t.attempts;
    }

    // Drop this job's tasks from the job-order parking lot.
    jobOrderBlocked.erase(
        std::remove_if(jobOrderBlocked.begin(), jobOrderBlocked.end(),
                       [&](TaskId t) {
                           auto i = tasks.find(t);
                           return i == tasks.end() ||
                                  i->second.job == jid;
                       }),
        jobOrderBlocked.end());

    ++statJobsFailed;
    --activeJobs;
    if (job.desc.onFailed) {
        job.desc.onFailed(now());
    } else {
        sim::warn(name(), ": job '", job.desc.label,
                  "' has no onFailed handler; failure only visible "
                  "through jobsFailed()");
    }
    finishJob(jid);

    for (std::uint32_t acc_id : kicks)
        kick(acc_id);
}

void
Gam::finishJob(JobId jid)
{
    auto jit = jobs.find(jid);
    if (jit == jobs.end())
        return;
    // Release the records — completed jobs no longer accumulate
    // unbounded state (and their onComplete captures) for the
    // lifetime of the simulation.
    for (TaskId tid : jit->second.taskIds)
        tasks.erase(tid);
    jobs.erase(jit);

    // Advance the serialization frontier past finished jobs.
    while (oldestActiveJob < nextJobId &&
           jobs.find(oldestActiveJob) == jobs.end()) {
        ++oldestActiveJob;
    }
    releaseBlockedTasks();
}

double
Gam::availability(acc::Level level) const
{
    if (now() == 0)
        return 1.0;
    double down = 0;
    std::uint32_t n = 0;
    for (const auto &row : rows) {
        if (row.acc->level() != level)
            continue;
        ++n;
        down += static_cast<double>(row.downtime);
        if (row.health == Health::Failed)
            down += static_cast<double>(now() - row.quarantinedAt);
    }
    if (n == 0)
        return 1.0;
    return 1.0 - down / (static_cast<double>(n) *
                         static_cast<double>(now()));
}

void
Gam::dumpProgress(std::ostream &os) const
{
    auto health_name = [](Health h) {
        switch (h) {
          case Health::Healthy:
            return "Healthy";
          case Health::Suspect:
            return "Suspect";
          case Health::Failed:
            return "Failed";
        }
        return "?";
    };

    os << name() << " progress table @ tick " << now() << " ("
       << activeJobs << " active job(s)):\n";
    for (std::uint32_t i = 0; i < rows.size(); ++i) {
        const ProgressRow &row = rows[i];
        os << "  acc[" << i << "] " << row.acc->name() << " ("
           << acc::levelName(row.acc->level()) << ") health="
           << health_name(row.health) << " strikes=" << row.strikes
           << " assigned=" << row.assigned << " waiting="
           << row.waiting.size();
        if (row.currentTask) {
            os << " current=task#" << *row.currentTask;
            auto it = tasks.find(*row.currentTask);
            if (it != tasks.end()) {
                os << " '" << it->second.desc.label << "' ("
                   << taskStateName(it->second.state) << ", attempt "
                   << it->second.attempts << ", deadline "
                   << it->second.deadline << ")";
            }
        }
        os << "\n";
    }
    for (const auto &[jid, job] : jobs) {
        os << "  job#" << jid << " '" << job.desc.label
           << "' remaining=" << job.remaining
           << (job.failed ? " FAILED" : "") << "\n";
        for (TaskId tid : job.taskIds) {
            auto it = tasks.find(tid);
            if (it == tasks.end())
                continue;
            const TaskRecord &t = it->second;
            if (t.state == TaskState::Complete)
                continue;
            os << "    task#" << tid << " '" << t.desc.label << "' "
               << taskStateName(t.state) << " attempts=" << t.attempts
               << " acc=";
            if (t.assignedAcc == ~0u)
                os << "-";
            else
                os << rows[t.assignedAcc].acc->name();
            os << " deadline=" << t.deadline << "\n";
        }
    }
}

void
Gam::reportWedge(const std::string &who) const
{
    std::ostringstream os;
    dumpProgress(os);
    sim::panic(who, ": event queue drained with ", activeJobs,
               " job(s) still pending — the simulated system wedged. ",
               "GAM state:\n", os.str());
}

} // namespace reach::gam
