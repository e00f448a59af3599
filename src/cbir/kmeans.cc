#include "kmeans.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/logging.hh"
#include "simd/aligned.hh"
#include "simd/simd.hh"

namespace reach::cbir
{

namespace
{

/** Nearest neighbours each centroid's table keeps (DESIGN §4p). */
constexpr std::size_t kNeighbours = 32;

template <typename T>
using AlignedVector = std::vector<T, simd::AlignedAllocator<T>>;
constexpr std::size_t kLineFloats = 64 / sizeof(float);
constexpr std::size_t kLineDoubles = 64 / sizeof(double);

constexpr std::size_t
roundUp(std::size_t n, std::size_t m)
{
    return (n + m - 1) / m * m;
}

/**
 * The rounding bounds both pruning tests rest on (DESIGN §4p), for
 * vectors of @p dim floats. gamma = gamma_{d+4} = (d+4)u / (1-(d+4)u)
 * with u the float unit roundoff: the analysis needs gamma_{d+2} for
 * an l2sq and for a score, and the two extra steps cover the double
 * arithmetic of the tests themselves. floor bounds what products that
 * underflow to subnormals can lose in one d-term sum.
 */
struct RoundingBounds
{
    double gamma;
    double floor;

    explicit RoundingBounds(std::size_t dim)
    {
        const double nu = double(dim + 4) *
                          (std::numeric_limits<float>::epsilon() / 2);
        // Past nu = 1/4 the bounds are vacuous: never prune.
        gamma = nu < 0.25 ? nu / (1 - nu)
                          : std::numeric_limits<double>::infinity();
        floor = double(dim) * std::numeric_limits<float>::denorm_min();
    }

    /**
     * True when a new seed at computed l2sq distance @p gap from a
     * point's nearest seed, itself at computed l2sq @p nearest from
     * the point, is provably no nearer to the point than that seed.
     */
    bool
    seedCannotWin(float gap, float nearest) const
    {
        return gap <= std::numeric_limits<float>::max() &&
               gap > 4 * (1 + 3 * gamma) * (nearest + floor) + floor;
    }

    /**
     * Bound E on the error of a computed score ||c||^2 - 2 x.c and of
     * a computed ||x - c||^2, for a point of computed norm @p qn
     * against centroids of computed norms at most @p cmax.
     */
    double
    scoreError(float qn, double cmax) const
    {
        return 2 * gamma * (qn + cmax) / (1 - gamma) + 4 * floor;
    }

    /**
     * Computed l2sq distance from the current centroid beyond which a
     * centroid's score provably exceeds the current one's, for a
     * point whose computed squared distance to the current centroid
     * is @p d2 and whose score error bound is @p e.
     */
    double
    pruneCutoff(double d2, double e) const
    {
        const double hi2 = std::max(0.0, d2) + e;
        const double r = std::sqrt(hi2) + std::sqrt(hi2 + 2 * e);
        return (1 + gamma) * r * r + floor;
    }
};

/**
 * Points and centroids whose computed squared norms sum to less than
 * this keep every sum in a score or an l2sq far from float overflow,
 * the range the bounds assume; larger ones get the full scan.
 */
constexpr double kPruneRange = std::numeric_limits<float>::max() / 16;

/**
 * argmin_c of the score ||C_c||^2 - 2 v.C_c (the ||v||^2 term is
 * constant across centroids); ties break to the lower index. The
 * full scan (nearestByDecomposition, also behind nearestCentroid())
 * and the pruned Lloyd assignment both pick through offer(), so they
 * can never disagree for a backend.
 */
struct NearestHit
{
    std::uint32_t index = 0;
    /** ||C||^2 - 2 v.C of the winner; add ||v||^2 for the l2sq. */
    float score = std::numeric_limits<float>::max();

    /** Take centroid @p c when it beats the hit in (score, index). */
    void
    offer(std::uint32_t c, float s)
    {
        if (s < score || (s == score && c < index)) {
            score = s;
            index = c;
        }
    }
};

NearestHit
nearestByDecomposition(const simd::Kernels &k, const Matrix &centroids,
                       std::span<const float> cnorm, const float *v,
                       float *dots)
{
    const std::size_t m = centroids.rows();
    k.dotBatch(v, centroids.flat().data(), m, centroids.cols(), dots);
    NearestHit hit;
    for (std::size_t c = 0; c < m; ++c)
        hit.offer(static_cast<std::uint32_t>(c), cnorm[c] - 2.0f * dots[c]);
    return hit;
}

void
centroidNorms(const simd::Kernels &k, const Matrix &centroids,
              std::vector<float> &cnorm)
{
    cnorm.resize(centroids.rows());
    for (std::size_t c = 0; c < centroids.rows(); ++c)
        cnorm[c] = k.normSq(centroids.row(c).data(), centroids.cols());
}

/** Points per seeding block: its ids and distances stay in cache. */
constexpr std::size_t kSeedBlock = 2048;

/**
 * One seeding block's bound test: writes to @p ids the points of
 * [b, e) whose l2sq to the newest seed must be computed, and returns
 * how many. It also adds @p pending to @p total in order, one value
 * per tested point (pending.size() <= e - b), so the serial add chain
 * overlaps the tests. Out of line so that total stays in a register:
 * the kernel call between blocks clobbers every vector register, and
 * inlined, GCC 12 kept total in memory through the whole loop.
 */
[[gnu::noinline]] std::size_t
testSeedBlock(const RoundingBounds &bounds, const float *gap,
              const std::uint32_t *nearest, const float *min_d,
              std::size_t b, std::size_t e, std::span<const float> pending,
              double &total, std::uint32_t *ids)
{
    std::size_t m = 0;
    const auto test = [&](std::size_t i) {
        ids[m] = static_cast<std::uint32_t>(i);
        m += !bounds.seedCannotWin(gap[nearest[i]], min_d[i]);
    };
    double t = total;
    for (std::size_t j = 0; j < pending.size(); ++j) {
        test(b + j);
        t += pending[j];
    }
    total = t;
    for (std::size_t i = b + pending.size(); i < e; ++i)
        test(i);
    return m;
}

/**
 * k-means++ seeding: spread initial centroids by D^2 sampling. Each
 * point keeps its nearest seed so far in @p nearest; a new seed far
 * enough from that one cannot change the point's distance, so its
 * l2sq is skipped (DESIGN §4p). Each round walks the points in
 * ascending blocks: the bound test compacts a block's survivors, one
 * l2sqIdx call scores them all, and the block's distances join the
 * total in point order, so every value and sum is the full scan's
 * and so are the sampled seeds.
 */
Matrix
seedCentroids(const Matrix &points, std::size_t k, sim::Rng &rng,
              const simd::Kernels &kern, const RoundingBounds &bounds,
              std::vector<std::uint32_t> &nearest, KMeansWork &work)
{
    const std::size_t n = points.rows();
    const std::size_t dim = points.cols();
    Matrix centroids(k, dim);
    std::size_t first = rng.nextUInt(n);
    std::copy(points.row(first).begin(), points.row(first).end(),
              centroids.row(0).begin());

    std::vector<float> min_d(n, std::numeric_limits<float>::max());
    nearest.assign(n, 0);
    // gap[j]: l2sq from the newest seed to seed j.
    std::vector<float> gap(k);
    std::vector<std::uint32_t> ids(std::min(n, kSeedBlock));
    std::vector<float> dist(ids.size());
    for (std::size_t c = 1; c < k; ++c) {
        const float *seed = centroids.row(c - 1).data();
        const auto newest = static_cast<std::uint32_t>(c - 1);
        for (std::size_t j = 0; j < c; ++j)
            gap[j] = kern.l2sq(seed, centroids.row(j).data(), dim);
        double total = 0;
        std::size_t summed = 0; // min_d[0, summed) are in total
        for (std::size_t b = 0; b < n; b += kSeedBlock) {
            const std::size_t e = std::min(n, b + kSeedBlock);
            // min_d[summed, b) are final: add them with this block's
            // tests.
            const std::span<const float> pending(
                min_d.data() + summed, std::min(e - b, b - summed));
            const std::size_t m =
                testSeedBlock(bounds, gap.data(), nearest.data(),
                              min_d.data(), b, e, pending, total, ids.data());
            summed += pending.size();
            kern.l2sqIdx(seed, points.flat().data(), ids.data(), m, dim,
                         dist.data());
            work.seedL2sq += m;
            for (std::size_t r = 0; r < m; ++r) {
                const std::uint32_t i = ids[r];
                const bool closer = dist[r] < min_d[i];
                min_d[i] = closer ? dist[r] : min_d[i];
                nearest[i] = closer ? newest : nearest[i];
            }
        }
        for (; summed < n; ++summed)
            total += min_d[summed];
        double target = rng.nextDouble() * total;
        double run = 0;
        std::size_t chosen = n - 1;
        for (std::size_t i = 0; i < n; ++i) {
            run += min_d[i];
            if (run >= target) {
                chosen = i;
                break;
            }
        }
        std::copy(points.row(chosen).begin(), points.row(chosen).end(),
                  centroids.row(c).begin());
    }
    return centroids;
}

/** One entry of a centroid's neighbour table: l2sq and centroid id. */
using Neighbour = TopKMin::Entry;

/**
 * Each centroid's kNeighbours nearest other centroids by computed
 * l2sq, nearest first, ties to the lower id; every centroid left out
 * of a row is at least as far as the row's last entry.
 */
class NeighbourTable
{
  public:
    NeighbourTable(std::size_t k, const parallel::ParallelConfig &par)
        : k(k), width(std::min(kNeighbours, k - 1)), par(par),
          entries(k * width), all(k),
          dists(parallel::detail::chunkCount(k, kRowGrain) * k)
    {
        for (std::size_t c = 0; c < k; ++c)
            all[c] = static_cast<std::uint32_t>(c);
    }

    void
    build(const simd::Kernels &kern, const Matrix &centroids)
    {
        const std::size_t dim = centroids.cols();
        parallel::parallelFor(
            0, k, kRowGrain,
            [&](std::size_t b, std::size_t e) {
                float *d = dists.data() + b / kRowGrain * k;
                TopKMin nearest(width);
                for (std::size_t a = b; a < e; ++a) {
                    // d[c] is l2sq(ca, C_c) bit for bit (simd.hh).
                    kern.l2sqIdx(centroids.row(a).data(),
                                 centroids.flat().data(), all.data(), k,
                                 dim, d);
                    nearest.clear();
                    nearest.consider({d, a}, 0);
                    nearest.consider({d + a + 1, k - a - 1},
                                     static_cast<std::uint32_t>(a + 1));
                    std::span<const Neighbour> row = nearest.sorted();
                    std::copy(row.begin(), row.end(),
                              entries.begin() + a * width);
                }
            },
            par);
    }

    std::span<const Neighbour>
    of(std::size_t a) const
    {
        return {entries.data() + a * width, width};
    }

    /** A row that holds every other centroid never runs out. */
    bool holdsAll() const { return width == k - 1; }

  private:
    static constexpr std::size_t kRowGrain = 16;
    std::size_t k;
    std::size_t width;
    parallel::ParallelConfig par;
    std::vector<Neighbour> entries;
    /** The ids 0, 1, ..., k - 1. */
    std::vector<std::uint32_t> all;
    /** One row of distances per chunk of kRowGrain centroids. */
    std::vector<float> dists;
};

/**
 * One Lloyd iteration's assignment rule: the full scan's winner,
 * found by scoring the point's previous centroid a and only those
 * neighbours of a the triangle bound cannot rule out (DESIGN §4p).
 */
struct Assigner
{
    const simd::Kernels &kern;
    const Matrix &centroids;
    std::span<const float> cnorm;
    const RoundingBounds &bounds;
    /** Null when some centroid is out of the bounds' range. */
    const NeighbourTable *table;
    double cmax;

    /**
     * @param dots Scratch for one score per centroid.
     * @param ids  Scratch for one id per table column.
     */
    NearestHit
    nearest(const float *x, float qn, std::uint32_t a, float *dots,
            std::uint32_t *ids, std::uint64_t &scores) const
    {
        if (!table || !(qn + cmax < kPruneRange)) {
            scores += centroids.rows();
            return nearestByDecomposition(kern, centroids, cnorm, x, dots);
        }
        const std::size_t dim = centroids.cols();
        const float *base = centroids.flat().data();
        const float sa = cnorm[a] - 2.0f * kern.dot(x, base + a * dim, dim);
        const double cutoff = bounds.pruneCutoff(
            double(qn) + sa, bounds.scoreError(qn, cmax));
        std::span<const Neighbour> row = table->of(a);
        std::size_t m = 0;
        for (; m < row.size() && !(row[m].value > cutoff); ++m)
            ids[m] = row[m].index;
        if (m == row.size() && !table->holdsAll()) {
            scores += centroids.rows() + 1;
            return nearestByDecomposition(kern, centroids, cnorm, x, dots);
        }
        scores += 1 + m;
        kern.dotIdx(x, base, ids, m, dim, dots);
        NearestHit hit;
        hit.offer(a, sa);
        for (std::size_t r = 0; r < m; ++r)
            hit.offer(ids[r], cnorm[ids[r]] - 2.0f * dots[r]);
        return hit;
    }
};

} // namespace

std::uint32_t
nearestCentroid(const Matrix &centroids, std::span<const float> v,
                simd::Choice backend)
{
    const simd::Kernels &k = simd::kernels(backend);
    std::vector<float> cnorm;
    centroidNorms(k, centroids, cnorm);
    std::vector<float> dots(centroids.rows());
    return nearestByDecomposition(k, centroids, cnorm, v.data(),
                                  dots.data())
        .index;
}

KMeansResult
kMeans(const Matrix &points, const KMeansConfig &cfg)
{
    if (points.rows() < cfg.clusters) {
        sim::fatal("kMeans: ", points.rows(), " points cannot form ",
                   cfg.clusters, " clusters");
    }

    const simd::Kernels &kern = simd::kernels(cfg.parallel.simd);
    const std::size_t n = points.rows();
    const std::size_t dim = points.cols();
    const std::size_t k = cfg.clusters;
    const RoundingBounds bounds(dim);
    sim::Rng rng(cfg.seed);
    KMeansResult res;
    // Iteration 0 starts each point from its nearest seed.
    res.centroids = seedCentroids(points, k, rng, kern, bounds,
                                  res.assignment, res.work);
    res.work.seedL2sqOffered = (k - 1) * n;

    // The grain depends only on the point count (never the thread
    // count) so the chunk-ordered folds below are bitwise identical
    // at 1 and N threads.
    const std::size_t grain =
        std::max<std::size_t>(1024, (n + 63) / 64);
    const std::size_t chunks = parallel::detail::chunkCount(n, grain);

    // Scratch for the whole run, sized once. The per-chunk dot and id
    // slices and the per-range sum columns, written once per point,
    // start on their own cache lines.
    std::vector<float> cnorm(k);
    // ||x||^2 once per call: the kernel and its input never change.
    const std::vector<float> pointNorms = rowNormsSq(points, cfg.parallel);
    NeighbourTable table(k, cfg.parallel);
    const std::size_t dotsStride = roundUp(k, kLineFloats);
    AlignedVector<float> chunkDots(chunks * dotsStride);
    AlignedVector<std::uint32_t> chunkIds(chunks * kNeighbours);
    std::vector<double> chunkInertia(chunks);
    std::vector<std::uint64_t> chunkScores(chunks);
    const std::size_t sumsStride = roundUp(dim, kLineDoubles);
    AlignedVector<double> chunkSums(k * sumsStride);
    AlignedVector<double> sums(k * sumsStride);
    std::vector<std::uint32_t> counts(k);
    std::vector<std::size_t> lastChunk(k);
    // A chunk touches at most min(grain, k) clusters; the compaction
    // writes one slot past the last.
    std::vector<std::uint32_t> touched(chunks * std::min(grain, k) + 1);
    std::vector<std::size_t> touchedBegin(chunks + 1);

    double prev_inertia = std::numeric_limits<double>::max();

    for (std::size_t it = 0; it < cfg.maxIterations; ++it) {
        res.iterations = it + 1;

        // ||C||^2 once per iteration: the Eq. 1 reusable term of the
        // assignment's batched norm decomposition.
        centroidNorms(kern, res.centroids, cnorm);
        double cmax = 0;
        bool inRange = true;
        for (float c : cnorm) {
            inRange = inRange && c < kPruneRange;
            cmax = std::max(cmax, double(c));
        }
        if (inRange)
            table.build(kern, res.centroids);
        const Assigner assign{kern, res.centroids, cnorm, bounds,
                              inRange ? &table : nullptr, cmax};

        // Assign (the hot step): each chunk writes its slice of the
        // assignment and its inertia partial.
        parallel::parallelFor(
            0, n, grain,
            [&](std::size_t b, std::size_t e) {
                float *dots = chunkDots.data() + b / grain * dotsStride;
                std::uint32_t *ids =
                    chunkIds.data() + b / grain * kNeighbours;
                double inertia = 0;
                std::uint64_t scores = 0;
                for (std::size_t i = b; i < e; ++i) {
                    const float *x = points.row(i).data();
                    const float qn = pointNorms[i];
                    NearestHit hit = assign.nearest(
                        x, qn, res.assignment[i], dots, ids, scores);
                    res.assignment[i] = hit.index;
                    inertia += std::max(qn + hit.score, 0.0f);
                }
                chunkInertia[b / grain] = inertia;
                chunkScores[b / grain] = scores;
            },
            cfg.parallel);
        double inertia = 0;
        for (double p : chunkInertia)
            inertia += p;
        res.inertia = inertia;
        for (std::uint64_t s : chunkScores)
            res.work.lloydScores += s;
        res.work.lloydScoresOffered += n * k;

        // Cluster counts, and each chunk's touched clusters: the ids
        // its points are assigned to, each once.
        std::fill(counts.begin(), counts.end(), 0u);
        std::fill(lastChunk.begin(), lastChunk.end(), chunks);
        std::size_t nTouched = 0;
        for (std::size_t ch = 0; ch < chunks; ++ch) {
            touchedBegin[ch] = nTouched;
            const std::size_t end = std::min(n, (ch + 1) * grain);
            for (std::size_t i = ch * grain; i < end; ++i) {
                const std::uint32_t c = res.assignment[i];
                touched[nTouched] = c;
                nTouched += lastChunk[c] != ch;
                lastChunk[c] = ch;
                ++counts[c];
            }
        }
        touchedBegin[chunks] = nTouched;

        // Cluster sums: each (cluster, dim) element sums every chunk's
        // members in point order into a zeroed chunk buffer, then
        // folds that into the total in chunk order. A row no point of
        // the chunk touched would fold +0.0, a no-op (no sum is ever
        // -0.0), so it is neither zeroed nor folded. Dimension ranges
        // split the work, so the adds are the same at any thread
        // count.
        std::fill(sums.begin(), sums.end(), 0.0);
        const unsigned threads = cfg.parallel.resolved();
        const std::size_t dimGrain =
            roundUp((dim + threads - 1) / threads, kLineDoubles);
        parallel::parallelFor(
            0, dim, dimGrain,
            [&](std::size_t d0, std::size_t d1) {
                for (std::size_t b = 0; b < n; b += grain) {
                    const std::span<const std::uint32_t> rows(
                        touched.data() + touchedBegin[b / grain],
                        touched.data() + touchedBegin[b / grain + 1]);
                    for (std::uint32_t c : rows) {
                        std::fill_n(chunkSums.begin() + c * sumsStride + d0,
                                    d1 - d0, 0.0);
                    }
                    for (std::size_t i = b; i < std::min(n, b + grain);
                         ++i) {
                        const float *x = points.row(i).data();
                        double *s = chunkSums.data() +
                                    res.assignment[i] * sumsStride;
                        for (std::size_t d = d0; d < d1; ++d)
                            s[d] += x[d];
                    }
                    for (std::uint32_t c : rows) {
                        const double *from = chunkSums.data() + c * sumsStride;
                        double *to = sums.data() + c * sumsStride;
                        for (std::size_t d = d0; d < d1; ++d)
                            to[d] += from[d];
                    }
                }
            },
            cfg.parallel);

        // Update.
        for (std::size_t c = 0; c < k; ++c) {
            if (counts[c] == 0)
                continue; // keep the old centroid for empty clusters
            auto row = res.centroids.row(c);
            for (std::size_t d = 0; d < dim; ++d) {
                row[d] = static_cast<float>(sums[c * sumsStride + d] /
                                            counts[c]);
            }
        }

        if (prev_inertia < std::numeric_limits<double>::max()) {
            double rel = (prev_inertia - inertia) /
                         std::max(prev_inertia, 1e-12);
            if (rel >= 0 && rel < cfg.tolerance)
                break;
        }
        prev_inertia = inertia;
    }
    return res;
}

} // namespace reach::cbir
