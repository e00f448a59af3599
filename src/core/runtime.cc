#include "runtime.hh"

#include <algorithm>
#include <mutex>
#include <utility>

#include "cbir/vgg.hh"
#include "sim/logging.hh"

namespace reach::core
{

void
AccHandle::setArgs(std::uint32_t index, BufferHandle buffer)
{
    if (!rt)
        sim::fatal("setArgs on an invalid accelerator handle");
    rt->doSetArgs(id, index, buffer);
}

void
AccHandle::setArgs(std::uint32_t index, StreamHandle stream)
{
    if (!rt)
        sim::fatal("setArgs on an invalid accelerator handle");
    rt->doSetArgs(id, index, stream);
}

void
AccHandle::setWork(const acc::WorkUnit &work)
{
    if (!rt)
        sim::fatal("setWork on an invalid accelerator handle");
    rt->doSetWork(id, work);
}

void
AccHandle::execute(std::uint32_t thread_id)
{
    if (!rt)
        sim::fatal("execute on an invalid accelerator handle");
    rt->doExecute(id, thread_id);
}

ReachRuntime::ReachRuntime(const SystemConfig &cfg)
    : sys(std::make_unique<ReachSystem>(cfg))
{
}

const ReachRuntime::TemplateInfo &
ReachRuntime::lookupTemplate(const std::string &id) const
{
    // Validate the template exists in the kernel catalog, then attach
    // its dataflow roles by kernel family.
    const acc::KernelProfile &prof = acc::findKernel(id);

    // The memoized table is shared by every runtime in the process;
    // concurrent simulators (parallel sweep points) may look up
    // templates at the same time, so guard it.
    static std::mutex table_mu;
    static std::map<std::string, TemplateInfo> table;
    std::lock_guard<std::mutex> lock(table_mu);
    auto it = table.find(id);
    if (it != table.end())
        return it->second;

    TemplateInfo info;
    info.profileId = id;
    if (prof.kernelType == "CNN") {
        info.argRoles = {ArgRole::StreamIn, ArgRole::Params,
                         ArgRole::StreamOut};
        // Pruned VGG16 MACs per input image byte.
        info.opsPerInputByte =
            cbir::vgg16TotalMacs() * 0.08 / (224.0 * 224.0 * 3.0);
    } else if (prof.kernelType == "GeMM") {
        info.argRoles = {ArgRole::StreamIn, ArgRole::Database,
                         ArgRole::StreamOut};
        info.opsPerInputByte = 0.25; // one lane word per float
    } else if (prof.kernelType == "KNN") {
        info.argRoles = {ArgRole::StreamIn, ArgRole::Database,
                         ArgRole::StreamOut};
        info.opsPerInputByte = 0.25;
    } else {
        info.argRoles = {ArgRole::StreamIn, ArgRole::StreamOut};
    }
    return table.emplace(id, std::move(info)).first->second;
}

AccHandle
ReachRuntime::registerAcc(const std::string &acc_template, Level level)
{
    RegisteredAcc reg;
    reg.tmpl = lookupTemplate(acc_template);
    reg.level = level;

    // Each registration claims the next physical instance at that
    // level (Listing 2 registers knn0 and knn1 separately).
    std::uint32_t claimed = 0;
    for (const auto &a : accs) {
        if (a.level == level)
            ++claimed;
    }

    // Software kernels time-share the single host core.
    std::uint32_t avail = sys->instancesAt(level);
    if (claimed >= avail) {
        sim::fatal("no free ", acc::levelName(level),
                   " accelerator to register '", acc_template,
                   "' (all ", avail, " registered)");
    }
    reg.gamId = sys->gamIdAt(level, claimed);

    accs.push_back(std::move(reg));
    return AccHandle(this, static_cast<std::uint32_t>(accs.size() - 1));
}

BufferHandle
ReachRuntime::createFixedBuffer(const std::string &real_path, Level dst,
                                std::uint64_t bytes)
{
    if (bytes == 0)
        sim::fatal("fixed buffer '", real_path, "' has zero size");
    // Register the sedentary region in the GAM's buffer table
    // (Fig. 5c); over-subscription of a level is a config error.
    sys->gam().buffers().allocate(dst, bytes, real_path);
    buffers.push_back(BufferDesc{real_path, dst, bytes});
    return BufferHandle{
        static_cast<std::uint32_t>(buffers.size() - 1)};
}

StreamHandle
ReachRuntime::createStream(Level src, Level dst, StreamType type,
                           std::uint64_t bytes, std::uint32_t depth)
{
    if (src == dst)
        sim::fatal("stream endpoints must be different levels");
    if (depth == 0)
        sim::fatal("stream depth must be at least 1");

    // A stream is a pair of queues allocated in the memory space of
    // both endpoints (paper §III-B); broadcast duplicates the
    // destination queue per instance, collect duplicates the source
    // queue per instance.
    auto instances_at = [this](Level l) -> std::uint64_t {
        switch (l) {
          case Level::NearMem:
            return std::max<std::uint64_t>(sys->numAims(), 1);
          case Level::NearStor:
            return std::max<std::uint64_t>(sys->numNs(), 1);
          default:
            return 1;
        }
    };

    std::uint64_t queue_bytes = bytes * depth;
    std::string name =
        "stream" + std::to_string(streams.size());
    auto &table = sys->gam().buffers();

    std::uint64_t src_copies =
        type == StreamType::Collect ? instances_at(src) : 1;
    std::uint64_t dst_copies =
        type == StreamType::BroadCast ? instances_at(dst) : 1;
    table.allocate(src, queue_bytes * src_copies, name + ".srcq");
    table.allocate(dst, queue_bytes * dst_copies, name + ".dstq");

    streams.push_back(StreamDesc{src, dst, type, bytes, depth});
    return StreamHandle{
        static_cast<std::uint32_t>(streams.size() - 1)};
}

void
ReachRuntime::doSetArgs(std::uint32_t acc, std::uint32_t index,
                        BufferHandle b)
{
    if (!b.valid() || b.id >= buffers.size())
        sim::fatal("setArgs: invalid buffer handle");
    accs.at(acc).bufferArgs[index] = b;
}

void
ReachRuntime::doSetArgs(std::uint32_t acc, std::uint32_t index,
                        StreamHandle s)
{
    if (!s.valid() || s.id >= streams.size())
        sim::fatal("setArgs: invalid stream handle");
    accs.at(acc).streamArgs[index] = s;
}

void
ReachRuntime::doSetWork(std::uint32_t acc, const acc::WorkUnit &w)
{
    accs.at(acc).workOverride = w;
}

acc::WorkUnit
ReachRuntime::deriveWork(const RegisteredAcc &acc) const
{
    if (acc.workOverride)
        return *acc.workOverride;

    acc::WorkUnit w;
    bool all_inputs_from_cpu = true;

    for (const auto &[idx, sh] : acc.streamArgs) {
        if (idx >= acc.tmpl.argRoles.size())
            continue;
        const StreamDesc &s = streams[sh.id];
        switch (acc.tmpl.argRoles[idx]) {
          case ArgRole::StreamIn:
            w.bytesIn += s.bytes;
            if (s.src != Level::Cpu)
                all_inputs_from_cpu = false;
            break;
          case ArgRole::StreamOut:
            w.bytesOut += s.bytes;
            break;
          default:
            break;
        }
    }
    for (const auto &[idx, bh] : acc.bufferArgs) {
        if (idx >= acc.tmpl.argRoles.size())
            continue;
        const BufferDesc &b = buffers[bh.id];
        switch (acc.tmpl.argRoles[idx]) {
          case ArgRole::Params:
            w.paramBytes += b.bytes;
            w.paramKey = b.source;
            break;
          case ArgRole::Database:
            // Scanned once per execute (the GeMM/KNN semantics).
            w.bytesIn += b.bytes;
            all_inputs_from_cpu = false;
            break;
          default:
            break;
        }
    }

    w.ops = acc.tmpl.opsPerInputByte * static_cast<double>(w.bytesIn);
    // A batched on-chip kernel whose entire input arrived from the
    // CPU keeps it SRAM/cache-resident.
    w.inputResident =
        acc.level == Level::OnChip && all_inputs_from_cpu;
    return w;
}

void
ReachRuntime::doExecute(std::uint32_t acc_idx, std::uint32_t thread_id)
{
    if (!jobOpen) {
        currentJob = gam::JobDesc{};
        currentJob.threadId = thread_id;
        currentJob.label = "job" + std::to_string(jobs.size());
        currentExecs.clear();
        jobOpen = true;
    }

    // Stream depth limits how many loop iterations may be in flight
    // at once; the run's window is the tightest stream.
    for (const auto &[idx, sh] : accs.at(acc_idx).streamArgs) {
        (void)idx;
        std::uint32_t d = streams[sh.id].depth;
        window = window == 0 ? d : std::min(window, d);
    }

    const RegisteredAcc &acc = accs.at(acc_idx);

    gam::TaskDesc t;
    t.label = acc.tmpl.profileId + "#" +
              std::to_string(currentJob.tasks.size());
    t.kernelTemplate = acc.tmpl.profileId;
    t.level = acc.level;
    t.work = deriveWork(acc);
    t.pinnedAcc = acc.gamId;

    // Dependencies: any StreamIn of this task produced by an earlier
    // execute() in the same job becomes a dep + inbound transfer; a
    // CPU-sourced stream becomes a host inbound transfer.
    for (const auto &[idx, sh] : acc.streamArgs) {
        if (idx >= acc.tmpl.argRoles.size() ||
            acc.tmpl.argRoles[idx] != ArgRole::StreamIn) {
            continue;
        }
        const StreamDesc &s = streams[sh.id];
        if (s.src == Level::Cpu) {
            t.inbound.push_back(
                {gam::InboundTransfer::fromHost, s.bytes});
            continue;
        }

        // Find producers of this stream among this job's tasks.
        std::vector<std::size_t> producers;
        for (const auto &pe : currentExecs) {
            const RegisteredAcc &prod = accs[pe.accIdx];
            for (const auto &[pidx, psh] : prod.streamArgs) {
                if (psh.id == sh.id &&
                    pidx < prod.tmpl.argRoles.size() &&
                    prod.tmpl.argRoles[pidx] == ArgRole::StreamOut) {
                    producers.push_back(pe.taskIndex);
                }
            }
        }
        if (producers.empty()) {
            sim::fatal("stream consumed by '", t.label,
                       "' has no producer in this job; order the "
                       "execute() calls producer-first");
        }
        std::uint64_t per_producer =
            s.type == StreamType::Collect
                ? s.bytes / producers.size()
                : s.bytes;
        for (std::size_t p : producers) {
            t.deps.push_back(p);
            t.inbound.push_back({p, per_producer});
        }
    }

    currentExecs.push_back(
        PendingExec{acc_idx, thread_id, currentJob.tasks.size()});
    currentJob.tasks.push_back(std::move(t));
}

bool
ReachRuntime::enqueue(StreamHandle stream)
{
    if (!stream.valid() || stream.id >= streams.size())
        sim::fatal("enqueue: invalid stream handle");
    if (streams[stream.id].src != Level::Cpu)
        sim::fatal("enqueue: only CPU-sourced streams can be fed by "
                   "the host");

    flushJob();
    if (enqueued >= batchBudget)
        return false;
    ++enqueued;
    return true;
}

void
ReachRuntime::endJob()
{
    flushJob();
}

void
ReachRuntime::flushJob()
{
    if (!jobOpen || currentJob.tasks.empty()) {
        jobOpen = false;
        return;
    }

    // Listing 3 ends each iteration with Result.collect() followed by
    // process(Result.dequeue()): any CPU-bound stream produced in
    // this job gets a host post-processing task consuming it.
    for (std::uint32_t sid = 0; sid < streams.size(); ++sid) {
        const StreamDesc &s = streams[sid];
        if (s.dst != Level::Cpu)
            continue;

        std::vector<std::size_t> producers;
        for (const auto &pe : currentExecs) {
            const RegisteredAcc &prod = accs[pe.accIdx];
            for (const auto &[pidx, psh] : prod.streamArgs) {
                if (psh.id == sid &&
                    pidx < prod.tmpl.argRoles.size() &&
                    prod.tmpl.argRoles[pidx] == ArgRole::StreamOut) {
                    producers.push_back(pe.taskIndex);
                }
            }
        }
        if (producers.empty())
            continue;

        gam::TaskDesc t;
        t.label = "host-process";
        t.kernelTemplate = acc::kernelTemplate("PROC", Level::Cpu);
        t.level = Level::Cpu;
        t.pinnedAcc = sys->gamIdAt(Level::Cpu, 0);
        t.work.ops = 2.0 * static_cast<double>(s.bytes);
        t.work.bytesIn = s.bytes;
        t.work.inputResident = true;
        std::uint64_t per = s.type == StreamType::Collect
                                ? s.bytes / producers.size()
                                : s.bytes;
        for (std::size_t p : producers) {
            t.deps.push_back(p);
            t.inbound.push_back({p, per});
        }
        currentJob.tasks.push_back(std::move(t));
    }
    jobs.push_back(std::move(currentJob));
    jobOpen = false;
}

RunResult
ReachRuntime::run()
{
    flushJob();
    auto n = static_cast<std::uint32_t>(jobs.size());
    std::uint32_t w = std::exchange(window, 0);
    return sys->runJobs(
        n, w == 0 ? 4 : w,
        [recorded = std::exchange(jobs, {})](std::uint32_t i) mutable {
            return std::move(recorded[i]);
        });
}

} // namespace reach::core
