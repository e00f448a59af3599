#include "rerank.hh"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "sim/logging.hh"
#include "simd/aligned.hh"
#include "simd/simd.hh"

namespace reach::cbir
{

namespace
{

/** Selected entries as neighbours, in the same order. */
std::vector<Neighbor>
neighbors(std::span<const TopKMin::Entry> best)
{
    std::vector<Neighbor> out(best.size());
    for (std::size_t i = 0; i < best.size(); ++i)
        out[i] = {best[i].index, best[i].value};
    return out;
}

/**
 * The K nearest of the candidates (ids[i], dists[i]), closest first,
 * through the worker's selector @p top (constructed with K). The
 * selection is by the (distSq, id) total order, so the selected set
 * and its order are independent of the scan order.
 */
std::vector<Neighbor>
selectK(TopKMin &top, std::span<const std::uint32_t> ids,
        std::span<const float> dists)
{
    top.clear();
    top.consider(dists, ids);
    return neighbors(top.sorted());
}

/** 64-byte aligned scratch vector (distance buffers). */
using AlignedFloats =
    std::vector<float, simd::AlignedAllocator<float, 64>>;

/**
 * Walk the short-listed @p clusters closest first and append each
 * one's member prefix to @p ids until @p max_candidates are gathered
 * (0 = unlimited). @p scored(cluster, base, take) runs after each
 * non-empty prefix lands at ids[base, base + take).
 */
template <class Scored>
void
gatherCandidates(const InvertedFileIndex &index,
                 const std::vector<std::uint32_t> &clusters,
                 std::size_t max_candidates,
                 std::vector<std::uint32_t> &ids, Scored scored)
{
    for (std::uint32_t cluster : clusters) {
        // Guard before the subtraction: once the budget is full the
        // unsigned `max_candidates - ids.size()` below would wrap.
        if (max_candidates && ids.size() >= max_candidates)
            break;
        const auto &members = index.cluster(cluster);
        std::size_t take = members.size();
        if (max_candidates)
            take = std::min(take, max_candidates - ids.size());
        if (take == 0)
            continue;
        const std::size_t base = ids.size();
        ids.insert(ids.end(), members.begin(),
                   members.begin() + static_cast<std::ptrdiff_t>(take));
        scored(cluster, base, take);
    }
}

/**
 * Per-query batched distance evaluation: one dotIdx sweep reads the
 * scattered candidate rows in place (no gather copy), and distances
 * come from the norm decomposition
 * ||q - x||^2 = ||q||^2 + ||x||^2 - 2 q.x (clamped at zero against
 * cancellation), written over the dot products in @p dists. One
 * kernel call per query instead of one strided l2sq per candidate
 * pair.
 */
void
scoreCandidates(const simd::Kernels &k, std::span<const float> query,
                const Matrix &database, std::span<const float> norms,
                const std::vector<std::uint32_t> &ids,
                AlignedFloats &dists)
{
    const std::size_t d = database.cols();
    const std::size_t n = ids.size();
    dists.resize(n);
    k.dotIdx(query.data(), database.flat().data(), ids.data(), n, d,
             dists.data());
    float qn = k.normSq(query.data(), d);
    for (std::size_t r = 0; r < n; ++r) {
        float dist = qn + norms[ids[r]] - 2.0f * dists[r];
        dists[r] = std::max(dist, 0.0f);
    }
}

/**
 * Compressed scoring of one query: build the ADC table once, then
 * scan each short-listed cluster's contiguous code block with the
 * batched gather kernel — M table lookups per candidate instead of a
 * D-dim dot product, and M bytes read instead of a full row. The
 * candidate set (per-cluster prefixes up to the budget) is exactly
 * the one the exact path gathers. The table build is
 * backend-independent and adcBatch is bitwise cross-backend, so this
 * scoring returns identical bits on every backend.
 */
void
scoreCandidatesPq(const simd::Kernels &k, const PqCodebook &cb,
                  std::span<const float> query,
                  const InvertedFileIndex &index,
                  const std::vector<std::uint32_t> &clusters,
                  std::size_t max_candidates, float *lut,
                  std::vector<std::uint32_t> &ids,
                  AlignedFloats &dists)
{
    cb.adcTable(query, lut);
    const std::size_t m = cb.numSubspaces();
    const std::size_t stride = cb.lutStride();
    gatherCandidates(
        index, clusters, max_candidates, ids,
        [&](std::uint32_t cluster, std::size_t base, std::size_t take) {
            dists.resize(base + take);
            k.adcBatch(lut, stride, index.clusterCodes(cluster).data(),
                       take, m, dists.data() + base);
        });
}

/** 64-byte aligned u8 scratch (the register-resident shuffle LUT). */
using AlignedBytes =
    std::vector<std::uint8_t, simd::AlignedAllocator<std::uint8_t, 64>>;

/**
 * 4-bit sibling of scoreCandidatesPq: one u8-quantized table per
 * query, then each cluster's FastScan block stream is scored 32
 * candidates per shuffle sweep. The quantization and packing are
 * backend-independent and adcBatch4 is bitwise cross-backend (exact
 * integer sums, one fused multiply-add), so this path too returns
 * identical bits on every backend and thread count. @p rows is the
 * table build's float scratch (lutFloats() floats).
 */
void
scoreCandidatesPq4(const simd::Kernels &k, const PqCodebook &cb,
                   std::span<const float> query,
                   const InvertedFileIndex &index,
                   const std::vector<std::uint32_t> &clusters,
                   std::size_t max_candidates, std::span<float> rows,
                   std::uint8_t *lut4, std::vector<std::uint32_t> &ids,
                   AlignedFloats &dists)
{
    const PqCodebook::AdcQuantParams qp =
        cb.adcTable4(query, lut4, rows);
    const std::size_t m = cb.numSubspaces();
    gatherCandidates(
        index, clusters, max_candidates, ids,
        [&](std::uint32_t cluster, std::size_t base, std::size_t take) {
            dists.resize(base + take);
            k.adcBatch4(lut4, index.clusterPackedCodes(cluster).data(),
                        take, m, qp.scale, qp.bias, dists.data() + base);
        });
}

/** Per-query worker grain of the rerank parallel loop. */
constexpr std::size_t kQueryGrain = 4;

} // namespace

RerankResults
rerank(const Matrix &queries, const Matrix &database,
       const InvertedFileIndex &index, const ShortLists &lists,
       const RerankConfig &cfg)
{
    if (lists.size() != queries.rows())
        sim::panic("rerank: one short-list per query required");
    if (cfg.usePq && !index.hasPq()) {
        sim::panic("rerank: usePq requires an index with PQ codes "
                   "(InvertedFileIndex::buildPq)");
    }

    const simd::Kernels &k = simd::kernels(cfg.parallel.simd);
    // ||x||^2 per database row: a view of the index's precomputed
    // norms when they cover this database, otherwise one shared
    // rowNormsSq pass. Pure-ADC runs never touch the float rows, so
    // they skip both.
    const bool needs_exact = !cfg.usePq || cfg.pqRefine > 0;
    std::vector<float> computed_norms;
    std::span<const float> norms;
    if (needs_exact) {
        norms = index.vectorNormsSq();
        if (norms.size() != database.rows()) {
            computed_norms = rowNormsSq(database, cfg.parallel);
            norms = computed_norms;
        }
    }

    RerankResults out(queries.rows());
    parallel::parallelFor(
        0, queries.rows(), kQueryGrain,
        [&](std::size_t qb, std::size_t qe) {
            std::vector<std::uint32_t> ids;
            AlignedFloats dists; // exact distances
            AlignedFloats adc;
            AlignedFloats lut; // 8-bit table, or the 4-bit build's rows
            AlignedBytes lut4;
            std::vector<std::uint32_t> cut; // the refine cut's scratch
            TopKMin top(cfg.k);
            const bool pq4 =
                cfg.usePq && index.pqCodebook().codeBits() == 4;
            if (cfg.usePq)
                lut.resize(index.pqCodebook().lutFloats());
            if (pq4) {
                lut4.resize(index.pqCodebook().numSubspaces() *
                            simd::kAdc4LutStride);
            }
            // Reserve only what the selected path touches: the ADC
            // scan fills ids + adc, the exact path ids + dists; the
            // refine stage holds at most max(k, pqRefine) survivors.
            if (cfg.maxCandidates) {
                ids.reserve(cfg.maxCandidates);
                if (cfg.usePq)
                    adc.reserve(cfg.maxCandidates);
                else
                    dists.reserve(cfg.maxCandidates);
            }
            for (std::size_t q = qb; q < qe; ++q) {
                ids.clear();
                if (cfg.usePq) {
                    adc.clear();
                    if (pq4) {
                        scoreCandidatesPq4(k, index.pqCodebook(),
                                           queries.row(q), index,
                                           lists[q],
                                           cfg.maxCandidates,
                                           lut, lut4.data(), ids,
                                           adc);
                    } else {
                        scoreCandidatesPq(k, index.pqCodebook(),
                                          queries.row(q), index,
                                          lists[q],
                                          cfg.maxCandidates,
                                          lut.data(), ids, adc);
                    }
                    if (cfg.pqRefine == 0) {
                        out[q] = selectK(top, ids, adc);
                        continue;
                    }
                    // Exact refine: only the survivor set matters,
                    // since dotIdx scores each id on its own row and
                    // selectK orders by the same total order.
                    cutNearest(ids, adc, std::max(cfg.k, cfg.pqRefine),
                               cut);
                    scoreCandidates(k, queries.row(q), database, norms,
                                    ids, dists);
                    out[q] = selectK(top, ids, dists);
                    continue;
                }
                gatherCandidates(index, lists[q], cfg.maxCandidates, ids,
                                 [](std::uint32_t, std::size_t,
                                    std::size_t) {});
                scoreCandidates(k, queries.row(q), database, norms,
                                ids, dists);
                out[q] = selectK(top, ids, dists);
            }
        },
        cfg.parallel);
    return out;
}

RerankResults
bruteForce(const Matrix &queries, const Matrix &database, std::size_t k,
           const parallel::ParallelConfig &par)
{
    const simd::Kernels &kern = simd::kernels(par.simd);
    const std::vector<float> norms = rowNormsSq(database, par);
    const std::size_t d = database.cols();
    const std::size_t n = database.rows();

    RerankResults out(queries.rows());
    parallel::parallelFor(
        0, queries.rows(), 1,
        [&](std::size_t qb, std::size_t qe) {
            std::vector<float> dists(n);
            TopKMin top(k);
            for (std::size_t q = qb; q < qe; ++q) {
                // Database rows are already contiguous: one batched
                // dot sweep, no gather needed.
                kern.dotBatch(queries.row(q).data(),
                              database.flat().data(), n, d,
                              dists.data());
                float qn = kern.normSq(queries.row(q).data(), d);
                for (std::size_t i = 0; i < n; ++i) {
                    float dist = qn + norms[i] - 2.0f * dists[i];
                    dists[i] = std::max(dist, 0.0f);
                }
                top.clear();
                top.consider(dists, 0);
                out[q] = neighbors(top.sorted());
            }
        },
        par);
    return out;
}

double
recallAtK(const RerankResults &got, const RerankResults &truth,
          std::size_t k)
{
    if (got.size() != truth.size())
        sim::panic("recallAtK: result batch size mismatch");
    if (got.empty())
        return 0;

    double sum = 0;
    std::unordered_set<std::uint32_t> truth_ids;
    for (std::size_t q = 0; q < got.size(); ++q) {
        std::size_t kk = std::min({k, got[q].size(), truth[q].size()});
        if (kk == 0)
            continue;
        truth_ids.clear();
        truth_ids.reserve(kk);
        for (std::size_t i = 0; i < kk; ++i)
            truth_ids.insert(truth[q][i].id);
        std::size_t found = 0;
        for (std::size_t j = 0; j < kk; ++j)
            found += truth_ids.count(got[q][j].id);
        sum += static_cast<double>(found) / static_cast<double>(kk);
    }
    return sum / static_cast<double>(got.size());
}

} // namespace reach::cbir
