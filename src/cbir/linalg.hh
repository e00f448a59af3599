/**
 * @file
 * Dense linear algebra primitives for the CBIR kernels: a row-major
 * matrix view, blocked GEMM, dot products and squared L2 distances.
 * These are the *functional* counterparts of the GeMM/KNN FPGA
 * kernels; the simulator times them, these compute them.
 */

#ifndef REACH_CBIR_LINALG_HH
#define REACH_CBIR_LINALG_HH

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "parallel/parallel.hh"
#include "simd/aligned.hh"

namespace reach::cbir
{

/**
 * A row-major dense matrix owning its storage. The buffer is 64-byte
 * aligned so SIMD loads on row starts are aligned whenever cols is a
 * multiple of the vector width (e.g. the paper's D = 96).
 */
class Matrix
{
  public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols)
        : nRows(rows), nCols(cols), data(rows * cols, 0.0f)
    {}

    std::size_t rows() const { return nRows; }
    std::size_t cols() const { return nCols; }

    float &at(std::size_t r, std::size_t c)
    {
        return data[r * nCols + c];
    }
    float at(std::size_t r, std::size_t c) const
    {
        return data[r * nCols + c];
    }

    std::span<float> row(std::size_t r)
    {
        return {data.data() + r * nCols, nCols};
    }
    std::span<const float> row(std::size_t r) const
    {
        return {data.data() + r * nCols, nCols};
    }

    std::span<float> flat() { return {data.data(), data.size()}; }
    std::span<const float> flat() const
    {
        return {data.data(), data.size()};
    }

    std::uint64_t
    bytes() const
    {
        return static_cast<std::uint64_t>(data.size()) * sizeof(float);
    }

  private:
    std::size_t nRows = 0;
    std::size_t nCols = 0;
    std::vector<float, simd::AlignedAllocator<float, 64>> data;
};

/**
 * Inner product of two equal-length vectors, on the dispatched SIMD
 * backend (REACH_SIMD / CPU detection; pass a Choice to pin one).
 */
float dot(std::span<const float> a, std::span<const float> b,
          simd::Choice backend = simd::Choice::autoDetect);

/** Squared Euclidean distance (Eq. 2 of the paper). */
float l2sq(std::span<const float> a, std::span<const float> b,
           simd::Choice backend = simd::Choice::autoDetect);

/** Squared L2 norm. */
float normSq(std::span<const float> a,
             simd::Choice backend = simd::Choice::autoDetect);

/**
 * C = A * B^T with a register-blocked SIMD micro-kernel, parallel
 * over row blocks of A. A is (n x d), B is (m x d), C is (n x m):
 * exactly the query-times-centroid product of short-list retrieval.
 * The chunk decomposition is a pure function of (rows, grain) and
 * each C(i,j) depends only on its A/B rows, so for a fixed backend
 * (par.simd) the result is bitwise identical at any thread count.
 */
void gemmNt(const Matrix &a, const Matrix &b, Matrix &c,
            const parallel::ParallelConfig &par = {});

/**
 * Squared L2 norm of every row of @p m, parallel over row blocks on
 * the dispatched backend — the one batched norm precompute the
 * shortlist (query norms), rerank (database norms) and index
 * construction (centroid norms) paths all share. Per-row arithmetic
 * is normSq of that row alone, so for a fixed backend the result is
 * bitwise identical at any thread count.
 */
std::vector<float> rowNormsSq(const Matrix &m,
                              const parallel::ParallelConfig &par = {});

/**
 * Streaming k-smallest selection. The retained set is defined purely
 * by the total order "smaller value wins, ties to the lower index" —
 * the k-best subset under a total order is unique, so any split of
 * the candidates into blocks, fed in any order, yields exactly the
 * indices topKMin would return over the concatenated array. O(k)
 * space.
 *
 * The k best are kept as a sorted array. Candidates are tested eight
 * at a time against the current k-th value with branch-free `<=`
 * compares (a candidate equal to it can still win on a lower index).
 * A block with no hit costs those eight compares; a block with a hit
 * offers its hits to the full (value, index) compare and
 * insertion-sorts the winners in. Until the array first fills, the
 * test is against +inf, or, when an empty selector is offered at
 * least 8k candidates at once, against the largest of k group minima
 * (simd::Kernels::maxGroupMin): those are k distinct candidates no
 * larger than it, so nothing above it can be among the k best, and
 * the array starts near its final k-th value.
 *
 * NaN values are never retained: they fail every `<=` test. The
 * selector keeps the k best of the non-NaN values offered, fewer
 * than k when fewer are offered. No caller produces NaN from finite
 * inputs.
 */
class TopKMin
{
  public:
    /** One retained candidate. */
    struct Entry
    {
        float value;
        std::uint32_t index;
    };

    explicit TopKMin(std::size_t k) : limit(k) {}

    /**
     * Offer @p values, whose element j has global index
     * @p firstIndex + j.
     */
    void consider(std::span<const float> values,
                  std::uint32_t firstIndex);

    /**
     * Offer @p values, whose element j has index @p indices[j] (same
     * length; indices must be distinct across everything offered).
     */
    void consider(std::span<const float> values,
                  std::span<const std::uint32_t> indices);

    /** The retained candidates in ascending (value, index) order. */
    std::span<const Entry> sorted();

    /**
     * Indices of the retained candidates in ascending (value, index)
     * order — the topKMin output contract. Empties the selector.
     */
    std::vector<std::uint32_t> finish();

    /** Forget every candidate, keeping k and the storage. */
    void clear() { kept.clear(); }

  private:
    template <class IndexOf>
    void scan(const float *values, std::size_t n, IndexOf index_of);

    void offer(Entry cand);

    std::size_t limit;
    /** Unsorted until it first holds limit entries, sorted after. */
    std::vector<Entry> kept;
};

/**
 * Indices of the @p k smallest values (ties broken by lower index),
 * in ascending value order — the "partial sorting of the dist array"
 * step. One-shot wrapper over TopKMin: O(k) extra space, no O(n)
 * index materialization.
 */
std::vector<std::uint32_t> topKMin(std::span<const float> values,
                                   std::size_t k);

/**
 * Cut the candidates (ids[i], dists[i]) to their @p keep nearest
 * under the (distance, id) total order, leaving the survivors' ids in
 * @p ids in no particular order; no-op when ids.size() <= keep. The
 * ids must be distinct.
 *
 * An O(n) MSD radix select over order-preserving u32 keys of the
 * distances (-0.0 shares +0.0's key, as the comparator treats them
 * as equal): skip the bits every key shares, pick the 8-bit digit
 * holding the keep-th key with a histogram, keep only that digit's
 * keys, repeat until one key is left. That key is the threshold; the
 * cut keeps every id below it and the lowest ids among those equal
 * to it. The passes over the keys are branch-free. @p scratch is
 * caller-owned (grows to ids.size()).
 */
void cutNearest(std::vector<std::uint32_t> &ids,
                std::span<const float> dists, std::size_t keep,
                std::vector<std::uint32_t> &scratch);

} // namespace reach::cbir

#endif // REACH_CBIR_LINALG_HH
