/**
 * @file
 * The ReACH runtime library: the uniform, library-based programming
 * interface of paper §III (Listings 1-3).
 *
 * A ReACH application has two parts:
 *  - a *configuration* (Listing 2): register accelerators from the
 *    template library, create fixed buffers at each level, and create
 *    streams between levels with broadcast / collect / pair patterns;
 *  - *host code* (Listing 3): a synchronous-looking loop that
 *    enqueues query batches and calls execute() on the registered
 *    accelerators.
 *
 * The runtime translates those calls into GAM jobs (one per loop
 * iteration), wires task dependencies from the stream bindings, and
 * lets the GAM pipeline iterations asynchronously — the paper's
 * "synchronous programming, asynchronous task flow" co-design.
 */

#ifndef REACH_CORE_RUNTIME_HH
#define REACH_CORE_RUNTIME_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cbir_deployment.hh"
#include "core/reach_system.hh"
#include "gam/task.hh"

namespace reach::core
{

using Level = acc::Level;

/** Stream communication patterns (Listing 1). */
enum class StreamType
{
    BroadCast,
    Collect,
    Pair,
};

/** Roles a kernel argument can play (from the template's dataflow). */
enum class ArgRole
{
    StreamIn,
    StreamOut,
    Params,
    Database,
};

/** Handle to a fixed buffer (CreateFixedBuffer). */
struct BufferHandle
{
    std::uint32_t id = ~0u;
    bool valid() const { return id != ~0u; }
};

/** Handle to an inter-level stream (CreateStream). */
struct StreamHandle
{
    std::uint32_t id = ~0u;
    bool valid() const { return id != ~0u; }
};

class ReachRuntime;

/** Handle to a registered accelerator (RegisterAcc). */
class AccHandle
{
  public:
    AccHandle() = default;

    /** Bind argument @p index to a buffer / stream (Listing 2). */
    void setArgs(std::uint32_t index, BufferHandle buffer);
    void setArgs(std::uint32_t index, StreamHandle stream);

    /**
     * Override the per-execute work estimate (ops / bytes). Without
     * it, the runtime derives work from the template's dataflow and
     * the bound buffer/stream sizes.
     */
    void setWork(const acc::WorkUnit &work);

    /** Queue one execution in the current job (Listing 3). */
    void execute(std::uint32_t thread_id);

    bool valid() const { return rt != nullptr; }

  private:
    friend class ReachRuntime;
    AccHandle(ReachRuntime *owner, std::uint32_t acc_id)
        : rt(owner), id(acc_id)
    {}

    ReachRuntime *rt = nullptr;
    std::uint32_t id = ~0u;
};

class ReachRuntime
{
  public:
    explicit ReachRuntime(const SystemConfig &cfg = {});

    ReachSystem &system() { return *sys; }

    // ----- Listing 1 APIs -----

    /**
     * Register an accelerator from the template library at a compute
     * level. Template ids follow "<kernel>-<device>" naming
     * ("CNN-VU9P", "KNN-ZCU9", ...).
     */
    AccHandle registerAcc(const std::string &acc_template, Level level);

    /**
     * Create a fixed (sedentary) buffer at a level, initialized from
     * a named source. The source path is an identifier — contents
     * are synthesized, not read from disk.
     */
    BufferHandle createFixedBuffer(const std::string &real_path,
                                   Level dst, std::uint64_t bytes);

    /** Create a communication stream between two levels. */
    StreamHandle createStream(Level src, Level dst, StreamType type,
                              std::uint64_t bytes, std::uint32_t depth);

    // ----- Listing 3 host-side calls -----

    /**
     * Push one item into a CPU-sourced stream; closes the previous
     * loop iteration's job.
     * @retval false once @p total_batches iterations were enqueued.
     */
    bool enqueue(StreamHandle stream);

    /** Total loop iterations the host will run. */
    void setBatchBudget(std::uint32_t total_batches)
    {
        batchBudget = total_batches;
    }

    /** Close the current job explicitly (optional). */
    void endJob();

    /**
     * Run the jobs the host loop recorded through
     * ReachSystem::runJobs, with as many in flight as the tightest
     * depth among the streams they touch (4 if they touch none), and
     * simulate until each completed or failed. Panics with the GAM
     * progress table if the simulation wedges.
     */
    RunResult run();

  private:
    struct TemplateInfo
    {
        std::string profileId;
        std::vector<ArgRole> argRoles;
        /** Default work density: ops per streamed input byte. */
        double opsPerInputByte = 0.25;
    };

    struct BufferDesc
    {
        std::string source;
        Level level;
        std::uint64_t bytes;
    };

    struct StreamDesc
    {
        Level src, dst;
        StreamType type;
        std::uint64_t bytes;
        std::uint32_t depth;
    };

    struct RegisteredAcc
    {
        TemplateInfo tmpl;
        Level level;
        std::uint32_t gamId = ~0u;
        std::map<std::uint32_t, BufferHandle> bufferArgs;
        std::map<std::uint32_t, StreamHandle> streamArgs;
        std::optional<acc::WorkUnit> workOverride;
        /** Round-robin cursor across instances at this level. */
        std::uint32_t rrCursor = 0;
    };

    /** A pending execute() inside the current job. */
    struct PendingExec
    {
        std::uint32_t accIdx;
        std::uint32_t threadId;
        std::size_t taskIndex; // within the job being built
    };

    const TemplateInfo &lookupTemplate(const std::string &id) const;
    acc::WorkUnit deriveWork(const RegisteredAcc &acc) const;
    void flushJob();

    friend class AccHandle;
    void doSetArgs(std::uint32_t acc, std::uint32_t index,
                   BufferHandle b);
    void doSetArgs(std::uint32_t acc, std::uint32_t index,
                   StreamHandle s);
    void doSetWork(std::uint32_t acc, const acc::WorkUnit &w);
    void doExecute(std::uint32_t acc, std::uint32_t thread_id);

    std::unique_ptr<ReachSystem> sys;
    std::vector<RegisteredAcc> accs;
    std::vector<BufferDesc> buffers;
    std::vector<StreamDesc> streams;

    gam::JobDesc currentJob;
    std::vector<PendingExec> currentExecs;
    bool jobOpen = false;

    /** Jobs the host loop closed, in loop order, not yet run. */
    std::vector<gam::JobDesc> jobs;
    /** Smallest depth among streams the recorded jobs touch. */
    std::uint32_t window = 0;

    std::uint32_t batchBudget = 1;
    std::uint32_t enqueued = 0;
};

} // namespace reach::core

#endif // REACH_CORE_RUNTIME_HH
