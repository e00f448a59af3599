/**
 * @file
 * Scalar baseline kernels. These preserve the exact accumulation
 * order of the pre-SIMD linalg code (one sequential chain per value,
 * multiply-then-add), so pinning REACH_SIMD=scalar reproduces the
 * historical results bitwise on any host.
 */

#include "simd/kernels.hh"

#include <cmath>
#include <limits>

#include "simd/half.hh"

namespace reach::simd::detail
{

namespace
{

float
dotScalar(const float *a, const float *b, std::size_t d)
{
    float acc = 0;
    for (std::size_t t = 0; t < d; ++t)
        acc += a[t] * b[t];
    return acc;
}

float
l2sqScalar(const float *a, const float *b, std::size_t d)
{
    float acc = 0;
    for (std::size_t t = 0; t < d; ++t) {
        float diff = a[t] - b[t];
        acc += diff * diff;
    }
    return acc;
}

float
normSqScalar(const float *a, std::size_t d)
{
    return dotScalar(a, a, d);
}

void
dotBatchScalar(const float *q, const float *rows, std::size_t n,
               std::size_t d, float *out)
{
    for (std::size_t r = 0; r < n; ++r)
        out[r] = dotScalar(q, rows + r * d, d);
}

void
dotIdxScalar(const float *q, const float *base, const std::uint32_t *ids,
             std::size_t n, std::size_t d, float *out)
{
    for (std::size_t r = 0; r < n; ++r)
        out[r] = dotScalar(q, base + std::size_t(ids[r]) * d, d);
}

void
l2sqIdxScalar(const float *q, const float *base, const std::uint32_t *ids,
              std::size_t n, std::size_t d, float *out)
{
    for (std::size_t r = 0; r < n; ++r)
        out[r] = l2sqScalar(base + std::size_t(ids[r]) * d, q, d);
}

/**
 * The ADC sum mirrors the avx2 layout exactly: eight virtual lanes
 * accumulate subspaces s, s+8, s+16, ... independently, the lanes
 * fold in the hsum256 tree order ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)),
 * and the m % 8 tail adds sequentially. Addition only (no FMA
 * contraction to differ on), so scalar == avx2 bitwise.
 */
float
adcAccumScalar(const float *lut, std::size_t stride,
               const std::uint8_t *code, std::size_t m)
{
    float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::size_t s = 0;
    for (; s + 8 <= m; s += 8) {
        const float *row = lut + s * stride;
        for (std::size_t j = 0; j < 8; ++j)
            lane[j] += row[j * stride + code[s + j]];
    }
    float s04 = lane[0] + lane[4];
    float s15 = lane[1] + lane[5];
    float s26 = lane[2] + lane[6];
    float s37 = lane[3] + lane[7];
    float acc = (s04 + s26) + (s15 + s37);
    for (; s < m; ++s)
        acc += lut[s * stride + code[s]];
    return acc;
}

void
adcBatchScalar(const float *lut, std::size_t stride,
               const std::uint8_t *codes, std::size_t n, std::size_t m,
               float *out)
{
    for (std::size_t r = 0; r < n; ++r)
        out[r] = adcAccumScalar(lut, stride, codes + r * m, m);
}

/**
 * 4-bit FastScan reference: per candidate, walk its lane down the
 * block's rows, summing both nibbles' table entries into a u32. The
 * integer sum is exact, so no lane emulation is needed for bitwise
 * agreement with avx2 — only the final fma must match, and std::fma
 * is the same correctly-rounded operation as _mm256_fmadd_ps.
 */
void
adcBatch4Scalar(const std::uint8_t *lut, const std::uint8_t *blocks,
                std::size_t n, std::size_t m, float scale, float bias,
                float *out)
{
    const std::size_t rows = adc4CodeBytes(m);
    for (std::size_t r = 0; r < n; ++r) {
        const std::uint8_t *blk =
            blocks + r / kAdc4BlockCands * adc4BlockBytes(m);
        const std::size_t c = r % kAdc4BlockCands;
        std::uint32_t sum = 0;
        for (std::size_t p = 0; p < rows; ++p) {
            const std::uint8_t byte = blk[p * kAdc4BlockCands + c];
            sum += lut[2 * p * kAdc4LutStride + (byte & 0x0F)];
            if (2 * p + 1 < m)
                sum += lut[(2 * p + 1) * kAdc4LutStride + (byte >> 4)];
        }
        out[r] = std::fma(scale, static_cast<float>(sum), bias);
    }
}

/**
 * 1x4 register tile: each A row streams once across four B rows with
 * four live accumulators; per-element order over d matches dot(), so
 * the tiling never changes a C value.
 */
void
gemmNtScalar(const float *a, std::size_t n, const float *b,
             std::size_t m, std::size_t d, float *c, std::size_t ldc)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float *ra = a + i * d;
        float *rc = c + i * ldc;
        std::size_t j = 0;
        for (; j + 4 <= m; j += 4) {
            const float *b0 = b + j * d;
            const float *b1 = b0 + d;
            const float *b2 = b1 + d;
            const float *b3 = b2 + d;
            float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
            for (std::size_t t = 0; t < d; ++t) {
                float av = ra[t];
                acc0 += av * b0[t];
                acc1 += av * b1[t];
                acc2 += av * b2[t];
                acc3 += av * b3[t];
            }
            rc[j] = acc0;
            rc[j + 1] = acc1;
            rc[j + 2] = acc2;
            rc[j + 3] = acc3;
        }
        for (; j < m; ++j)
            rc[j] = dotScalar(ra, b + j * d, d);
    }
}

/**
 * One fp16 dot: the avx2 kernel's eight fused-multiply-add lanes
 * emulated exactly — lane j accumulates dims t, t+8, ... with
 * std::fma (the same correctly-rounded operation as vfmadd), the
 * lanes fold in the hsum256 tree order, and the d % 8 tail continues
 * with std::fma. halfToFloat is bit-identical to VCVTPH2PS, so the
 * whole chain matches the avx2 backend bitwise.
 */
float
dotF16Scalar(const float *a, const std::uint16_t *b, std::size_t d)
{
    float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    std::size_t t = 0;
    for (; t + 8 <= d; t += 8) {
        for (std::size_t j = 0; j < 8; ++j)
            lane[j] = std::fma(a[t + j], halfToFloat(b[t + j]),
                               lane[j]);
    }
    float s04 = lane[0] + lane[4];
    float s15 = lane[1] + lane[5];
    float s26 = lane[2] + lane[6];
    float s37 = lane[3] + lane[7];
    float acc = (s04 + s26) + (s15 + s37);
    for (; t < d; ++t)
        acc = std::fma(a[t], halfToFloat(b[t]), acc);
    return acc;
}

void
gemmNtF16Scalar(const float *a, std::size_t n, const std::uint16_t *b,
                std::size_t m, std::size_t d, float *c,
                std::size_t ldc)
{
    for (std::size_t i = 0; i < n; ++i) {
        const float *ra = a + i * d;
        float *rc = c + i * ldc;
        for (std::size_t j = 0; j < m; ++j)
            rc[j] = dotF16Scalar(ra, b + j * d, d);
    }
}

/**
 * Blocked-fusion shortlist scoring: the dots are gemmNtScalar's own
 * bits (it runs into the output tile), then the epilogue rewrites
 * them in place. This TU has no FMA target, so `t - (p + p)` cannot
 * contract and equals the historical `qn + cnorm - 2.0f * prod`
 * exactly (p + p == 2.0f * p bitwise).
 */
void
shortlistScoreScalar(const float *a, const float *qn, std::size_t n,
                     const float *b, const float *cnorm,
                     std::size_t m, std::size_t d, float *out,
                     std::size_t ldo)
{
    gemmNtScalar(a, n, b, m, d, out, ldo);
    for (std::size_t i = 0; i < n; ++i) {
        float *row = out + i * ldo;
        const float q = qn[i];
        for (std::size_t j = 0; j < m; ++j) {
            const float t = q + cnorm[j];
            const float p = row[j];
            row[j] = t - (p + p);
        }
    }
}

void
shortlistScoreF16Scalar(const float *a, const float *qn,
                        std::size_t n, const std::uint16_t *b,
                        const float *cnorm, std::size_t m,
                        std::size_t d, float *out, std::size_t ldo)
{
    gemmNtF16Scalar(a, n, b, m, d, out, ldo);
    for (std::size_t i = 0; i < n; ++i) {
        float *row = out + i * ldo;
        const float q = qn[i];
        for (std::size_t j = 0; j < m; ++j) {
            const float t = q + cnorm[j];
            const float p = row[j];
            row[j] = t - (p + p);
        }
    }
}

float
maxGroupMinScalar(const float *values, std::size_t n, std::size_t groups)
{
    const std::size_t chunks = n / 8;
    const float inf = std::numeric_limits<float>::infinity();
    float bound = -inf;
    for (std::size_t g = 0; g < groups; ++g) {
        float low = inf;
        for (std::size_t c = g; c < chunks; c += groups) {
            for (std::size_t l = 0; l < 8; ++l) {
                const float v = values[8 * c + l];
                low = v < low ? v : low;
            }
        }
        bound = low > bound ? low : bound;
    }
    return bound;
}

} // namespace

const Kernels &
scalarKernels()
{
    static const Kernels k{dotScalar,          l2sqScalar,
                           normSqScalar,       dotBatchScalar,
                           dotIdxScalar,       l2sqIdxScalar,
                           gemmNtScalar,
                           adcBatchScalar,     adcBatch4Scalar,
                           shortlistScoreScalar,
                           shortlistScoreF16Scalar, maxGroupMinScalar};
    return k;
}

} // namespace reach::simd::detail
