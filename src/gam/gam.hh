/**
 * @file
 * The Global Accelerator Manager (paper §II-D, Fig. 5/6).
 *
 * A hardware unit on the on-chip NoC that
 *  1. receives job requests from cores (ACC command packets),
 *  2. distributes tasks to available accelerators per level,
 *  3. tracks running/waiting tasks in a progress table with
 *     estimated wait times,
 *  4. initiates inter-level data transfers (forced cache writebacks
 *     toward near-memory, PCIe pushes toward near-storage), and
 *  5. interrupts the host when a job completes.
 *
 * Near-memory and near-storage modules cannot send acknowledgements,
 * so the GAM *polls* them with status packets when a task's estimated
 * runtime elapses; on-chip accelerators interrupt directly.
 *
 * Fault tolerance (DESIGN.md §4f): every dispatched task carries a
 * watchdog deadline derived from the progress table's runtime
 * estimate; lost status polls are retried with exponential backoff
 * under a bounded budget; a module that goes silent accumulates
 * strikes (Healthy -> Suspect -> Failed), is quarantined, and its
 * tasks are re-dispatched to a sibling instance or — when the whole
 * level is down — to a coarser level with a re-mapped kernel
 * bitstream. Jobs whose retry budget is exhausted complete with an
 * explicit failure interrupt instead of wedging the simulation.
 */

#ifndef REACH_GAM_GAM_HH
#define REACH_GAM_GAM_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <vector>

#include "acc/accelerator.hh"
#include "acc/path.hh"
#include "fault/fault.hh"
#include "gam/buffer_table.hh"
#include "gam/task.hh"
#include "sim/simulator.hh"
#include "sim/stats.hh"

namespace reach::gam
{

/** How the GAM picks an instance for an unpinned task. */
enum class SchedulingPolicy
{
    /** Fewest tasks assigned (count-based, cheap). */
    LeastLoaded,
    /**
     * Earliest expected availability, using the per-task runtime
     * estimates the progress table already tracks (Fig. 5e's
     * "estimated wait time" put to work for placement).
     */
    EarliestFree,
};

struct GamConfig
{
    /** ACC command packet delivery latency (NoC + decode). */
    sim::Tick commandLatency = 100'000; // 100 ns
    /** Status request/response round trip to a near-data module. */
    sim::Tick statusPollLatency = 400'000; // 400 ns
    /** Multiplier on runtime estimates (ablation: poll too early). */
    double estimateErrorFactor = 1.0;
    /**
     * Dispatch tasks of a later job before the previous job fully
     * completes, when dependencies allow (paper §II-D). Turning this
     * off serializes jobs — the ablation baseline.
     */
    bool crossJobPipelining = true;
    /**
     * Partial-reconfiguration delay charged when a dispatch must
     * load a different bitstream. The paper argues sub-millisecond
     * reconfiguration and charges zero; the ablation sweeps this.
     */
    sim::Tick reconfigDelay = 0;
    /** Instance selection for unpinned tasks. */
    SchedulingPolicy scheduling = SchedulingPolicy::LeastLoaded;

    // ----- Fault tolerance (DESIGN.md §4f) -----

    /**
     * Watchdog deadline multiplier on the task's runtime estimate.
     * The deadline only declares a task lost once the device's own
     * reservation has also expired, so contention never trips it;
     * the slack just avoids pointless early wakeups.
     */
    double watchdogSlack = 8.0;
    /** Floor on any watchdog deadline (covers tiny tasks). */
    sim::Tick watchdogMin = 50 * sim::tickPerUs;
    /** Lost status polls tolerated per task attempt before the
     *  attempt itself is declared lost. */
    std::uint32_t maxPollRetries = 6;
    /** Poll retry delay multiplier (exponential backoff). */
    double pollBackoffFactor = 2.0;
    /** Dispatch attempts per task (first try included) before the
     *  owning job fails with an explicit status. */
    std::uint32_t maxTaskAttempts = 4;
    /** Watchdog strikes before an instance is quarantined. */
    std::uint32_t quarantineStrikes = 2;
    /** Re-dispatch to a coarser level when a task's home level has
     *  no healthy instance left (NearMem/NearStor -> OnChip -> CPU). */
    bool crossLevelFailover = true;
    /**
     * Delay after quarantine before a module is probed again
     * (reset + reload bitstream). 0 disables recovery; otherwise the
     * effective delay is max(recoveryDelay, reconfigDelay).
     */
    sim::Tick recoveryDelay = 0;

    /** Fatal on malformed values (zero latencies, bad factors). */
    void validate(const std::string &who) const;
};

/**
 * Builds the data path for one inter-level transfer. Provided by the
 * system builder, which knows the machine's links.
 *
 * @param from  Producing accelerator (null: data starts at the host).
 * @param to    Consuming accelerator (null: data returns to host).
 */
using PathProvider = std::function<acc::Path(
    const acc::Accelerator *from, const acc::Accelerator *to)>;

/**
 * Forced cache writeback hook: flush @p bytes worth of producer
 * output from the coherent cache, then call the continuation.
 */
using FlushHook =
    std::function<void(std::uint64_t bytes,
                       std::function<void(sim::Tick)> done)>;

class Gam : public sim::SimObject
{
  public:
    Gam(sim::Simulator &sim, const std::string &name,
        const GamConfig &cfg);

    /** Register an accelerator; returns its accId (progress row). */
    std::uint32_t addAccelerator(acc::Accelerator &acc);

    /** All registered instances at @p level, in accId order. */
    std::vector<std::uint32_t> acceleratorsAt(acc::Level level) const;

    acc::Accelerator &accelerator(std::uint32_t id)
    {
        return *rows.at(id).acc;
    }

    std::size_t numAccelerators() const { return rows.size(); }

    void setPathProvider(PathProvider provider)
    {
        pathProvider = std::move(provider);
    }

    void setFlushHook(FlushHook hook) { flushHook = std::move(hook); }

    /** Status polls consult the injector for lost packets. */
    void setFaultInjector(fault::FaultInjector *inj) { faultInj = inj; }

    /**
     * Submit a job (step 5a: ACC command packets through the GAM
     * driver). Returns the job id. Task dispatch begins after the
     * command latency.
     */
    JobId submitJob(JobDesc job);

    /** True when every submitted job has completed or failed. */
    bool idle() const { return activeJobs == 0; }

    std::uint64_t jobsCompleted() const
    {
        return static_cast<std::uint64_t>(statJobsDone.value());
    }
    std::uint64_t jobsFailed() const
    {
        return static_cast<std::uint64_t>(statJobsFailed.value());
    }
    std::uint64_t tasksDispatched() const
    {
        return static_cast<std::uint64_t>(statTasksDispatched.value());
    }
    std::uint64_t statusPolls() const
    {
        return static_cast<std::uint64_t>(statPolls.value());
    }
    std::uint64_t bytesMoved() const
    {
        return static_cast<std::uint64_t>(statDmaBytes.value());
    }
    /** Re-dispatches after a lost attempt (any level). */
    std::uint64_t taskRetries() const
    {
        return static_cast<std::uint64_t>(statTaskRetries.value());
    }
    /** Re-dispatches that landed on a different level. */
    std::uint64_t failovers() const
    {
        return static_cast<std::uint64_t>(statFailovers.value());
    }
    /** Watchdog deadlines that declared an attempt lost. */
    std::uint64_t deadlineMisses() const
    {
        return static_cast<std::uint64_t>(statDeadlineMisses.value());
    }
    /** Status polls re-sent after a lost packet. */
    std::uint64_t pollRetries() const
    {
        return static_cast<std::uint64_t>(statPollRetries.value());
    }
    std::uint64_t quarantines() const
    {
        return static_cast<std::uint64_t>(statQuarantines.value());
    }
    std::uint64_t recoveries() const
    {
        return static_cast<std::uint64_t>(statRecoveries.value());
    }

    /** Whether the instance is currently quarantined. */
    bool isQuarantined(std::uint32_t acc_id) const
    {
        return rows.at(acc_id).health == Health::Failed;
    }

    /**
     * Fraction of instance-time the level's modules were available
     * (not quarantined) over [0, now]. 1.0 with no faults.
     */
    double availability(acc::Level level) const;

    /**
     * Dump the progress table and every pending job/task — the
     * simulator-hang diagnostic (task states, owners, deadlines).
     */
    void dumpProgress(std::ostream &os) const;

    /**
     * Fail loudly (panic with the dumped progress table) when a run
     * wedges: the event queue drained while jobs were still pending.
     */
    [[noreturn]] void reportWedge(const std::string &who) const;

    const GamConfig &config() const { return cfg; }

    /** Fig. 5c: buffer ids and their address boundaries. */
    BufferTable &buffers() { return bufferTable; }
    const BufferTable &buffers() const { return bufferTable; }

    /** The GAM decision a TaskEvent reports (DESIGN.md §4o). */
    enum class TaskEventKind
    {
        /** A task attempt starts running on an accelerator. */
        Dispatch,
        /** A task attempt is routed off its home level. */
        Failover,
        /** A task attempt is declared lost (see TaskEvent::reason). */
        AttemptLost,
        /** An accelerator is quarantined. */
        Quarantine,
        /** A quarantined accelerator rejoins the pool. */
        Recovered,
        /** The GAM observed a task's completion. */
        Complete,
    };

    /** One GAM decision, for timeline tracing. */
    struct TaskEvent
    {
        TaskEventKind kind = TaskEventKind::Complete;
        /** Task label; empty for Quarantine and Recovered. */
        std::string label;
        /** The accelerator the decision concerns. */
        std::string accName;
        /** The task's home level, else the accelerator's level. */
        acc::Level level = acc::Level::OnChip;
        /** The task's dispatch attempt (1-based); 0 for row events. */
        std::uint32_t attempt = 0;
        /** AttemptLost only: why the attempt was lost. */
        std::string reason;
        /** Dispatch, AttemptLost and Complete: when the GAM handed
         *  this attempt to the accelerator. */
        sim::Tick dispatched = 0;
        /** Complete only: when the device finished. */
        sim::Tick finished = 0;
        /** When the GAM made the decision; for Complete, when it
         *  observed completion (after the poll round trip). */
        sim::Tick observed = 0;
    };

    /**
     * Observe every GAM decision: dispatch, failover, lost attempt,
     * quarantine, recovery and completion. With no observer set,
     * each decision costs one empty-function check.
     */
    void
    setTaskObserver(std::function<void(const TaskEvent &)> obs)
    {
        taskObserver = std::move(obs);
    }

  private:
    /** Accelerator health as the GAM's watchdogs see it. */
    enum class Health
    {
        Healthy,
        /** Struck at least once; deprioritized for new work. */
        Suspect,
        /** Quarantined: receives no work until recovery. */
        Failed,
    };

    /** One task instance inside the manager. */
    struct TaskRecord
    {
        TaskDesc desc;
        JobId job = 0;
        TaskState state = TaskState::WaitingDeps;
        std::uint32_t depsRemaining = 0;
        std::uint32_t transfersRemaining = 0;
        /** Tasks (global ids) waiting on this one. */
        std::vector<TaskId> dependents;
        std::uint32_t assignedAcc = ~0u;
        sim::Tick dispatchedAt = 0;
        sim::Tick finishedAt = 0;
        /** Runtime estimate charged to the row's backlog. */
        sim::Tick backlogCharge = 0;

        /**
         * Dispatch attempts so far; doubles as the staleness stamp
         * every scheduled closure checks, so events belonging to an
         * abandoned attempt become no-ops.
         */
        std::uint32_t attempts = 0;
        /** Lost status polls in the current attempt. */
        std::uint32_t pollRetries = 0;
        /** Kernel template actually dispatched (failover re-map). */
        std::string runTemplate;
        /** Watchdog deadline of the current attempt (0 = unarmed). */
        sim::Tick deadline = 0;
        std::uint64_t watchdogEv = 0;
        bool watchdogPending = false;
        std::uint64_t pollEv = 0;
        bool pollPending = false;
    };

    struct JobRecord
    {
        JobDesc desc;
        std::vector<TaskId> taskIds;
        std::uint32_t remaining = 0;
        sim::Tick submitted = 0;
        bool failed = false;
    };

    /** Progress-table row (paper Fig. 5e). */
    struct ProgressRow
    {
        acc::Accelerator *acc = nullptr;
        std::optional<TaskId> currentTask;
        sim::Tick estimatedDone = 0;
        std::deque<TaskId> waiting;
        /** Tasks assigned here but not yet complete (incl. pending
         *  transfers); keeps load balancing honest. */
        std::uint32_t assigned = 0;
        /** Sum of runtime estimates of assigned, incomplete tasks. */
        sim::Tick backlogEstimate = 0;

        Health health = Health::Healthy;
        /** Watchdog strikes since the last completed task. */
        std::uint32_t strikes = 0;
        sim::Tick quarantinedAt = 0;
        /** Accumulated ticks spent quarantined (closed intervals). */
        sim::Tick downtime = 0;
    };

    /** Where routeTask() decided a task attempt should run. */
    struct Route
    {
        std::uint32_t acc = ~0u;
        acc::Level level = acc::Level::OnChip;
        std::string kernelTemplate;
    };

    /** The task record iff it exists and @p stamp is its current
     *  attempt — the guard every scheduled closure goes through. */
    TaskRecord *liveTask(TaskId tid, std::uint32_t stamp);

    /** Start (or restart) a task attempt: route, transfer, enqueue. */
    void beginTransfers(TaskId tid, std::uint32_t exclude_acc = ~0u);

    /** Enqueue a transfer-complete task at its target accelerator. */
    void enqueueTask(TaskId tid);

    /** The owning job's deadline hint (maxTick when unset). */
    sim::Tick jobDeadlineHint(const TaskRecord &task) const;

    /** If the row is free, dispatch its next waiting task. */
    void kick(std::uint32_t acc_id);

    void dispatch(std::uint32_t acc_id, TaskId tid);

    /** Status-packet poll for a near-data accelerator (Fig. 5b). */
    void pollStatus(TaskId tid, std::uint32_t stamp);

    /** Mark the task observed-complete and propagate. */
    void completeTask(TaskId tid, sim::Tick at);

    /** Arm the per-attempt watchdog at dispatch time. */
    void armWatchdog(TaskId tid);
    void watchdogFire(TaskId tid, std::uint32_t stamp);
    /** Cancel any pending watchdog/poll events of the record. */
    void disarmTask(TaskRecord &task);

    /** The current attempt is lost: strike the row, re-dispatch. */
    void failAttempt(TaskId tid, const char *why);

    /** Record a watchdog strike; quarantine at the threshold. */
    void strikeRow(std::uint32_t acc_id);
    void recoverRow(std::uint32_t acc_id);

    /** Report a decision on row @p acc_id (and @p task, if any) to
     *  the observer; a no-op without one. */
    void notify(TaskEventKind kind, std::uint32_t acc_id,
                const TaskRecord *task = nullptr,
                const char *reason = nullptr) const;

    /** Release the row accounting an attempt charged. */
    void releaseRowCharge(TaskId tid, TaskRecord &task);

    /** The kernel family's template for @p level, or "" if none. */
    std::string remapTemplate(const std::string &tmpl,
                              acc::Level level) const;

    /** Pick an instance (and kernel template) for a task attempt. */
    Route routeTask(const TaskRecord &task, std::uint32_t exclude_acc);

    /** Fail the whole job: explicit status, records released. */
    void failJob(JobId jid, const std::string &why);

    /** Erase the job's records and advance the serialization
     *  frontier (jobs no longer accumulate for the sim lifetime). */
    void finishJob(JobId jid);

    /** Whether dispatch of @p tid is blocked by job serialization. */
    bool blockedByJobOrder(const TaskRecord &task) const;

    /** Try to start tasks that job-serialization had been blocking. */
    void releaseBlockedTasks();

    GamConfig cfg;
    PathProvider pathProvider;
    FlushHook flushHook;
    BufferTable bufferTable;
    std::function<void(const TaskEvent &)> taskObserver;
    fault::FaultInjector *faultInj = nullptr;

    std::vector<ProgressRow> rows;
    std::map<TaskId, TaskRecord> tasks;
    std::map<JobId, JobRecord> jobs;
    /** Tasks waiting for job-serialization (pipelining off). */
    std::vector<TaskId> jobOrderBlocked;
    TaskId nextTaskId = 1;
    JobId nextJobId = 1;
    JobId oldestActiveJob = 1;
    std::uint32_t activeJobs = 0;

    sim::Scalar statJobsDone;
    sim::Scalar statJobsFailed;
    sim::Scalar statTasksDispatched;
    sim::Scalar statPolls;
    sim::Scalar statDmaBytes;
    sim::Scalar statFlushes;
    sim::Scalar statTaskRetries;
    sim::Scalar statFailovers;
    sim::Scalar statDeadlineMisses;
    sim::Scalar statPollRetries;
    sim::Scalar statQuarantines;
    sim::Scalar statRecoveries;
    sim::Distribution statJobLatency;
    sim::Distribution statQueueWait;
};

} // namespace reach::gam

#endif // REACH_GAM_GAM_HH
