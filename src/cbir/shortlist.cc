#include "shortlist.hh"

#include <algorithm>

#include "simd/aligned.hh"
#include "simd/simd.hh"

namespace reach::cbir
{

namespace
{

/**
 * Column-block width of the fused scan. Chosen so one block of D=96
 * fp32 centroids (1.5 MiB) stays L2-resident while a grain of 8
 * query rows keeps the dist tile at 128 KiB. Every distance runs its
 * own dot sequence whatever the kernel's tiling (shortlistScore's
 * contract), so the block split cannot move a bit.
 */
constexpr std::size_t kColBlock = 4096;

/**
 * Row grain of the scan loop: a multiple of the avx2 kernel's four
 * query rows per tile, so only a batch's last chunk can run
 * remainder rows.
 */
constexpr std::size_t kRowGrain = 8;

} // namespace

ShortLists
shortlistRetrieve(const Matrix &queries, const InvertedFileIndex &index,
                  std::size_t nprobe,
                  const parallel::ParallelConfig &par,
                  ShortlistPrecision precision)
{
    const Matrix &cents = index.centroids();
    const std::size_t m = cents.rows();
    const std::size_t d = cents.cols();
    const bool fp16 = precision == ShortlistPrecision::Fp16;
    const float *cnorm = fp16 ? index.centroidNormsSqF16().data()
                              : index.centroidNormsSq().data();
    const std::uint16_t *centsH =
        fp16 ? index.centroidsF16().data() : nullptr;
    const simd::Kernels &kern = simd::kernels(par.simd);

    // ||q||^2 for the whole batch up front (shared rowNormsSq, the
    // same machinery rerank uses) instead of one normSq per query
    // inside the scan loop.
    const std::vector<float> qnorm = rowNormsSq(queries, par);

    ShortLists out(queries.rows());
    parallel::parallelFor(
        0, queries.rows(), kRowGrain,
        [&](std::size_t qb, std::size_t qe) {
            const std::size_t nq = qe - qb;
            // Per-chunk distance tile: nq x kColBlock, reused across
            // column blocks — the only scan intermediate, in place of
            // the old B x M product matrix.
            std::vector<float, simd::AlignedAllocator<float, 64>>
                dist(nq * kColBlock);
            std::vector<TopKMin> sel;
            sel.reserve(nq);
            for (std::size_t q = 0; q < nq; ++q)
                sel.emplace_back(nprobe);
            for (std::size_t j0 = 0; j0 < m; j0 += kColBlock) {
                const std::size_t mb = std::min(kColBlock, m - j0);
                if (fp16) {
                    kern.shortlistScoreF16(
                        queries.row(qb).data(), qnorm.data() + qb, nq,
                        centsH + j0 * d, cnorm + j0, mb, d,
                        dist.data(), kColBlock);
                } else {
                    kern.shortlistScore(
                        queries.row(qb).data(), qnorm.data() + qb, nq,
                        cents.row(j0).data(), cnorm + j0, mb, d,
                        dist.data(), kColBlock);
                }
                for (std::size_t q = 0; q < nq; ++q) {
                    sel[q].consider(
                        {dist.data() + q * kColBlock, mb},
                        static_cast<std::uint32_t>(j0));
                }
            }
            for (std::size_t q = 0; q < nq; ++q)
                out[qb + q] = sel[q].finish();
        },
        par);
    return out;
}

ShortLists
shortlistReference(const Matrix &queries, const InvertedFileIndex &index,
                   std::size_t nprobe)
{
    const Matrix &cents = index.centroids();
    ShortLists out(queries.rows());
    std::vector<float> dist(cents.rows());
    for (std::size_t q = 0; q < queries.rows(); ++q) {
        for (std::size_t m = 0; m < cents.rows(); ++m)
            dist[m] = l2sq(queries.row(q), cents.row(m));
        out[q] = topKMin(dist, nprobe);
    }
    return out;
}

} // namespace reach::cbir
