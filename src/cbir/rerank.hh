/**
 * @file
 * Rerank (paper §IV-A): traverse the short-listed clusters, gather
 * candidate vectors, compute exact squared-L2 distances to the query
 * (the KNN kernel) and partial-sort the K nearest.
 */

#ifndef REACH_CBIR_RERANK_HH
#define REACH_CBIR_RERANK_HH

#include <cstdint>
#include <vector>

#include "cbir/index.hh"
#include "cbir/linalg.hh"
#include "cbir/shortlist.hh"
#include "parallel/parallel.hh"

namespace reach::cbir
{

/** One retrieved neighbour. */
struct Neighbor
{
    std::uint32_t id = 0;
    float distSq = 0;

    bool
    operator==(const Neighbor &o) const
    {
        return id == o.id && distSq == o.distSq;
    }
};

/** Per-query K nearest neighbours, closest first. */
using RerankResults = std::vector<std::vector<Neighbor>>;

struct RerankConfig
{
    /** Results per query (K). */
    std::size_t k = 10;
    /**
     * Candidate budget per query; the paper caps it at 4096 "to make
     * the simulation time manageable". 0 = unlimited.
     */
    std::size_t maxCandidates = 4096;
    /**
     * Threads + SIMD backend for the per-query parallel loop; the
     * backend (ParallelConfig::simd) also selects the batched
     * distance kernels.
     */
    parallel::ParallelConfig parallel{};
    /**
     * Compressed-domain scoring: rank candidates by PQ asymmetric
     * distance over their stored codes instead of exact distances
     * over the full vectors. Requires an index carrying PQ codes
     * (InvertedFileIndex::buildPq); panics otherwise.
     */
    bool usePq = false;
    /**
     * With usePq, re-score the top max(k, pqRefine) ADC candidates
     * with exact full-precision distances before the cut to K (the
     * two-stage rerank that keeps recall controllable). 0 keeps the
     * pure ADC order and never touches the float vectors.
     */
    std::size_t pqRefine = 128;
};

/**
 * Rerank a batch: for each query, gather members of its short-listed
 * clusters (closest clusters first, truncated at maxCandidates) and
 * return the K nearest by exact distance.
 */
RerankResults rerank(const Matrix &queries, const Matrix &database,
                     const InvertedFileIndex &index,
                     const ShortLists &lists, const RerankConfig &cfg);

/** Exhaustive exact search over the whole database (ground truth). */
RerankResults bruteForce(const Matrix &queries, const Matrix &database,
                         std::size_t k,
                         const parallel::ParallelConfig &par = {});

/**
 * recall@K: fraction of true K-nearest ids (from @p truth) that
 * appear in the retrieved K (from @p got), averaged over queries.
 */
double recallAtK(const RerankResults &got, const RerankResults &truth,
                 std::size_t k);

} // namespace reach::cbir

#endif // REACH_CBIR_RERANK_HH
