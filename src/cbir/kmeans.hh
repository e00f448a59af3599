/**
 * @file
 * k-means clustering for the CBIR offline indexing stage (paper
 * §IV-A: centroids are "produced using clustering methods such as
 * kd-trees or k-means during the off-line stage").
 *
 * k-means++ seeding followed by Lloyd iterations; deterministic for a
 * given seed. Both loops skip the distance evaluations a triangle
 * bound, widened by a rounding bound, proves cannot change the result,
 * so the output is bit-identical to scoring every (point, centroid)
 * pair (DESIGN §4p).
 */

#ifndef REACH_CBIR_KMEANS_HH
#define REACH_CBIR_KMEANS_HH

#include <cstdint>
#include <vector>

#include "cbir/linalg.hh"
#include "parallel/parallel.hh"
#include "sim/rng.hh"

namespace reach::cbir
{

struct KMeansConfig
{
    std::size_t clusters = 1000;
    std::size_t maxIterations = 25;
    /** Stop when the relative inertia improvement drops below this. */
    double tolerance = 1e-4;
    std::uint64_t seed = 7;
    /**
     * Threads for the Lloyd iterations (seeding is serial). The
     * result does not depend on the thread count.
     */
    parallel::ParallelConfig parallel{};
};

/**
 * Distance work kMeans did against the work a full scan would do.
 * Counts depend on the backend (pruning tests computed floats) but
 * never on the thread count.
 */
struct KMeansWork
{
    /** Seeding (point, seed) l2sq computed, of (k - 1) * n offered. */
    std::uint64_t seedL2sq = 0;
    std::uint64_t seedL2sqOffered = 0;
    /** Lloyd (point, centroid) scores computed, of iterations * n * k. */
    std::uint64_t lloydScores = 0;
    std::uint64_t lloydScoresOffered = 0;
};

struct KMeansResult
{
    Matrix centroids;
    /** Cluster assignment per input vector. */
    std::vector<std::uint32_t> assignment;
    /** Sum of squared distances to assigned centroids. */
    double inertia = 0;
    std::size_t iterations = 0;
    KMeansWork work;
};

/**
 * Cluster @p points into cfg.clusters groups.
 * @pre points.rows() >= cfg.clusters.
 */
KMeansResult kMeans(const Matrix &points, const KMeansConfig &cfg);

/**
 * Index of the centroid nearest to @p v, by the same batched norm
 * decomposition (||C||^2 - 2 v.C, ties to the lower index) the Lloyd
 * assignment step uses, so assignments and this helper always agree
 * for a given backend.
 */
std::uint32_t nearestCentroid(const Matrix &centroids,
                              std::span<const float> v,
                              simd::Choice backend =
                                  simd::Choice::autoDetect);

} // namespace reach::cbir

#endif // REACH_CBIR_KMEANS_HH
