/**
 * @file
 * Product quantization (PQ) for the rerank stage. A D-dim vector is
 * split into M contiguous subspaces of D/M floats; each subspace has
 * its own k-means codebook, so a vector compresses to one centroid
 * id per subspace. Two precisions share this class:
 *
 *  - 8-bit (default): up to 256 centroids per subspace, one u8 per
 *    code — 12x smaller than float32 at the paper's D = 96, M = 32.
 *  - 4-bit (FastScan): 16 centroids per subspace, two codes packed
 *    per byte (subspace 2p in the low nibble of byte p, 2p+1 in the
 *    high nibble) — 24x smaller, and small enough that a whole
 *    subspace's distance table fits one SIMD register.
 *
 * Query scoring is asymmetric-distance computation (ADC): per query,
 * precompute a lookup table lut[s][j] = l2sq(q_s, c_{s,j}); the
 * distance of a candidate code is then the sum of M table lookups,
 * which equals l2sq(q, decode(code)) exactly. The float table's row
 * stride is a codebook property (lutStride(): 256 entries at 8 bits,
 * 16 at 4 bits — rows are zero-padded past the trained centroid
 * count) so codes always index in bounds and the SIMD kernels never
 * read past a row's valid entries. The 4-bit mode additionally
 * quantizes the table to u8 (adcTable4) for the in-register shuffle
 * kernel; distances then carry a bounded quantization error that the
 * exact refine stage absorbs.
 */

#ifndef REACH_CBIR_PQ_HH
#define REACH_CBIR_PQ_HH

#include <cstdint>
#include <span>
#include <vector>

#include "cbir/linalg.hh"
#include "parallel/parallel.hh"
#include "simd/simd.hh"

namespace reach::cbir
{

struct PqConfig
{
    /** Compressed-domain rerank on/off. */
    bool enabled = false;
    /** Subspaces; must divide the dimensionality. */
    std::uint32_t m = 32;
    /**
     * Code width: 8 (one byte per subspace, gather ADC) or 4 (16
     * centroids, two codes per byte, FastScan shuffle ADC).
     */
    std::uint32_t bits = 8;
    /**
     * Exact-refine budget: the top R ADC candidates are re-scored
     * with full-precision distances before the cut to K (two-stage
     * rerank). 0 keeps the pure ADC order.
     */
    std::uint32_t refine = 128;
    /** Lloyd iterations per subspace codebook. */
    std::uint32_t trainIterations = 8;
    std::uint64_t seed = 13;
};

/**
 * sim::fatal unless @p cfg can quantize @p dim-dimensional vectors:
 * m in [1, dim], dim % m == 0, trainIterations >= 1, bits in {4, 8}
 * (4-bit additionally caps m at 256 so the shuffle kernel's u16
 * accumulators cannot overflow). The enabled flag is not consulted —
 * callers gate on it.
 */
void validatePqConfig(const PqConfig &cfg, std::size_t dim);

/** Bytes one encoded vector occupies under @p cfg (before enable). */
constexpr std::size_t
pqCodeBytes(const PqConfig &cfg)
{
    return cfg.bits == 4 ? simd::adc4CodeBytes(cfg.m) : cfg.m;
}

/** Trained per-subspace codebooks plus the codec built on them. */
class PqCodebook
{
  public:
    /**
     * Train cfg.m codebooks of min(2^cfg.bits, vectors.rows())
     * centroids each, by running the existing k-means per subspace
     * slice. Deterministic for a given (cfg, backend); subspace s
     * seeds with cfg.seed + s.
     */
    static PqCodebook train(const Matrix &vectors, const PqConfig &cfg,
                            const parallel::ParallelConfig &par = {});

    std::size_t numSubspaces() const { return m; }
    std::size_t subDim() const { return dsub; }
    std::size_t numCentroids() const { return ksub; }
    std::size_t dim() const { return m * dsub; }
    /** Code width this codebook was trained at (4 or 8). */
    std::uint32_t codeBits() const { return bits; }
    /**
     * Bytes per encoded vector: one u8 per subspace at 8 bits, two
     * packed nibbles per byte at 4 bits.
     */
    std::size_t codeBytes() const
    {
        return bits == 4 ? simd::adc4CodeBytes(m) : m;
    }
    /**
     * Row stride of the float ADC table, in floats: wide enough for
     * every representable code at this width (so kernels never read
     * past it), fixed per width (so padded rows keep SIMD lane
     * offsets constant).
     */
    std::size_t lutStride() const
    {
        return bits == 4 ? simd::kAdc4LutStride : simd::kAdcLutStride;
    }
    /** Floats this codebook's ADC table occupies. */
    std::size_t lutFloats() const { return m * lutStride(); }

    /** Centroid @p j of subspace @p s (subDim() floats). */
    std::span<const float> centroid(std::size_t s, std::size_t j) const;

    /**
     * Quantize one vector of dim() floats into codeBytes() bytes:
     * per subspace, the index of the nearest centroid (ties to the
     * lower index), packed as nibble pairs at 4 bits. Backend-
     * independent for the same reason as adcTable: distances come
     * from the fixed component-major loop.
     */
    void encode(std::span<const float> v, std::uint8_t *code) const;

    /**
     * Encode every row; returns rows x codeBytes() bytes. Chunked
     * parallel, bitwise identical at any thread count and backend.
     */
    std::vector<std::uint8_t>
    encodeAll(const Matrix &vectors,
              const parallel::ParallelConfig &par = {}) const;

    /** Reconstruct the centroid concatenation of @p code. */
    void decode(const std::uint8_t *code, std::span<float> out) const;

    /**
     * Fill the ADC table for @p query (dim() floats): row s holds
     * l2sq(q_s, c_{s,j}) for j < numCentroids(), zero beyond. @p lut
     * must hold lutFloats() floats at lutStride() row stride. The
     * build is one fixed loop over a component-major centroid copy
     * (vectorized across centroids, not within the short subspace),
     * so the table bits do not depend on the SIMD backend choice —
     * combined with the bitwise adcBatch contract, a
     * pure-ADC rerank returns identical bits on every backend.
     * Entries match l2sq on the subspace pair up to fp contraction.
     */
    void adcTable(std::span<const float> query, float *lut) const;

    /** Dequantization constants of a u8 shuffle table. */
    struct AdcQuantParams
    {
        /** distance ~= bias + scale * (integer lookup sum). */
        float scale = 0;
        float bias = 0;
    };

    /**
     * u8-quantized shuffle table for the 4-bit kernel (panics unless
     * codeBits() == 4): @p lut4 receives m x kAdc4LutStride bytes,
     * row s mapping the float row affinely to [0, 255] (shared scale
     * = max row range / 255, per-row offset folded into the returned
     * bias). Rows past numCentroids() saturate to 255 so phantom
     * codes can never look near. Fixed scalar loops end to end —
     * table bits and params never depend on backend or threads; the
     * per-entry error is at most half a quantization step, absorbed
     * by the exact refine stage. @p rows is caller-owned scratch of
     * at least lutFloats() floats (clobbered), so a per-query build
     * allocates nothing.
     */
    AdcQuantParams adcTable4(std::span<const float> query,
                             std::uint8_t *lut4,
                             std::span<float> rows) const;

  private:
    /**
     * scratch[j] = l2sq of @p v's subspace-@p s slice against
     * centroid j, for j < numCentroids() — the shared inner loop of
     * encode and adcTable, vectorized across centroids via centsT.
     */
    void subspaceL2(std::size_t s, const float *v,
                    float *scratch) const;
    void encodeWith(std::span<const float> v, std::uint8_t *code,
                    float *scratch) const;

    std::size_t m = 0;
    std::size_t dsub = 0;
    std::size_t ksub = 0;
    std::uint32_t bits = 8;
    /** Subspace-major: block s is ksub x dsub row-major centroids. */
    std::vector<float, simd::AlignedAllocator<float, 64>> cents;
    /**
     * Component-major transpose of @ref cents for the ADC table
     * build: block s is dsub rows of ksub floats, so the per-centroid
     * accumulation vectorizes across the 256 table entries instead of
     * the (typically 3-float) subspace.
     */
    std::vector<float, simd::AlignedAllocator<float, 64>> centsT;
};

} // namespace reach::cbir

#endif // REACH_CBIR_PQ_HH
