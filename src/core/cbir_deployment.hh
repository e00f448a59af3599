/**
 * @file
 * Deployment of the CBIR pipeline onto the compute hierarchy
 * (paper §IV-B and §VI).
 *
 * A mapping is a stage-placement table: the level each of the three
 * online stages runs at. Five mappings are supported:
 *  - CpuOnly:      all three stages in software on the host core;
 *  - OnChipOnly:   all three stages on the on-chip accelerator
 *                  (the paper's baseline);
 *  - NearMemOnly:  all stages on the AIM modules;
 *  - NearStorOnly: all stages on the near-storage modules;
 *  - Reach:        the proper mapping — feature extraction on-chip,
 *                  short-list retrieval near memory, rerank near
 *                  storage.
 *
 * Each query batch becomes one GAM job whose task graph encodes the
 * level assignment, data partitioning across instances, and
 * inter-stage transfers. One stage builder (addStageTasks) turns a
 * placement into tasks, for the pipeline and for isolated-stage runs
 * alike.
 */

#ifndef REACH_CORE_CBIR_DEPLOYMENT_HH
#define REACH_CORE_CBIR_DEPLOYMENT_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cbir/workload_model.hh"
#include "core/reach_system.hh"
#include "gam/task.hh"

namespace reach::core
{

enum class Mapping
{
    /** Software on the host core: the pre-acceleration baseline the
     *  paper's introduction argues against. */
    CpuOnly,
    OnChipOnly,
    NearMemOnly,
    NearStorOnly,
    Reach,
};

const char *mappingName(Mapping m);

/** The three online CBIR stages, in pipeline order. */
enum class Stage
{
    FeatureExtraction,
    Shortlist,
    Rerank,
};

const char *stageName(Stage s);

/** Where one stage runs: a level and how many of its instances. */
struct StagePlacement
{
    acc::Level level;
    std::uint32_t instances;
};

/**
 * Append one batch of @p stage to @p job, placed at @p where, and
 * return the indices of the new tasks. With empty @p upstream the
 * stage reads its input from the host; otherwise each task depends
 * on every upstream task and its input bytes are split evenly over
 * them.
 *
 * Feature extraction off the host side runs one image per task with
 * duplicated parameters (paper §VI-B); the short-list partitions the
 * centroid table over the instances, each receiving the whole feature
 * batch; rerank partitions the candidates, and off near storage it
 * gathers them from the SSD array.
 */
std::vector<std::size_t> addStageTasks(
    gam::JobDesc &job, Stage stage, StagePlacement where,
    const std::vector<std::size_t> &upstream, ReachSystem &sys,
    const cbir::CbirWorkloadModel &model);

class CbirDeployment
{
  public:
    /**
     * @param instances Instances per stage for a single-level
     *        near-data mapping (0 = all available). Host-side levels
     *        have one instance, and ReACH spreads each stage over
     *        every module at its level.
     */
    CbirDeployment(ReachSystem &system,
                   const cbir::CbirWorkloadModel &model, Mapping mapping,
                   std::uint32_t instances = 0);

    /**
     * Build the job for one query batch. @p on_failed (optional)
     * fires instead of @p on_done when the GAM exhausts the job's
     * fault-recovery budget.
     */
    gam::JobDesc makeBatchJob(
        std::uint32_t batch_index,
        std::function<void(sim::Tick)> on_done,
        std::function<void(sim::Tick)> on_failed = {});

    /**
     * Run @p batches batch jobs through ReachSystem::runJobs with
     * four in flight. Jobs pipeline through the GAM, so makespan
     * reflects steady-state throughput. Under fault injection,
     * batches whose recovery budget is exhausted count in
     * failedBatches instead of hanging the run.
     */
    RunResult run(std::uint32_t batches);

  private:
    /**
     * One module merges the per-partition short-lists over the
     * AIMbus; returns the merge task's index.
     */
    std::size_t addShortlistMerge(gam::JobDesc &job,
                                  const std::vector<std::size_t> &sl);

    /** Optional 4th stage: fetch the top-K images (extension). */
    void addReverseLookupTasks(
        gam::JobDesc &job, const std::vector<std::size_t> &rr_tasks);

    ReachSystem &sys;
    cbir::CbirWorkloadModel model;
    Mapping map;
    /** Placement of each Stage, indexed by its enum value. */
    std::array<StagePlacement, 3> placement;
};

} // namespace reach::core

#endif // REACH_CORE_CBIR_DEPLOYMENT_HH
