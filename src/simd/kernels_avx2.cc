/**
 * @file
 * AVX2/FMA kernels. The whole file is compiled for the generic
 * target; every function carries target("avx2,fma") so the binary
 * still loads on CPUs without AVX2 (the dispatcher never calls these
 * there), and non-x86 builds compile an empty translation unit.
 *
 * Arithmetic layout: every dot-family value is one 8-lane FMA
 * accumulator chain over d, a fixed-order horizontal sum, then a
 * scalar tail for d % 8 — the batch kernels run the *same* per-row
 * sequence (just interleaved across rows for ILP), which is what
 * makes the cross-kernel bitwise invariants in simd.hh hold. Each
 * tail step is an explicit std::fma: a plain `s += a * b` is fused or
 * not at the compiler's choice (GCC fused it at -O2, fused it in only
 * some tails at -O3 and not at all at -O0), so its bits would depend
 * on the build type.
 */

#include "simd/kernels.hh"

#if REACH_SIMD_HAVE_X86_AVX2

#include <immintrin.h>

#include <cmath>
#include <limits>

#include "simd/half.hh"

#define REACH_AVX2 __attribute__((target("avx2,fma")))

/**
 * The fp16 kernels additionally need F16C for VCVTPH2PS; the
 * dispatcher patches the table's fp16 entry back to scalar when the
 * CPU lacks it, so nothing else in this file depends on the
 * extension.
 */
#define REACH_AVX2_F16 __attribute__((target("avx2,fma,f16c")))

namespace reach::simd::detail
{

namespace
{

/** Fixed-order reduction of one 8-lane accumulator. */
REACH_AVX2 inline float
hsum256(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

REACH_AVX2 float
dotAvx2(const float *a, const float *b, std::size_t d)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t t = 0;
    for (; t + 8 <= d; t += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + t),
                              _mm256_loadu_ps(b + t), acc);
    }
    float s = hsum256(acc);
    for (; t < d; ++t)
        s = std::fma(a[t], b[t], s);
    return s;
}

REACH_AVX2 float
l2sqAvx2(const float *a, const float *b, std::size_t d)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t t = 0;
    for (; t + 8 <= d; t += 8) {
        __m256 diff = _mm256_sub_ps(_mm256_loadu_ps(a + t),
                                    _mm256_loadu_ps(b + t));
        acc = _mm256_fmadd_ps(diff, diff, acc);
    }
    float s = hsum256(acc);
    for (; t < d; ++t) {
        float diff = a[t] - b[t];
        s = std::fma(diff, diff, s);
    }
    return s;
}

REACH_AVX2 float
normSqAvx2(const float *a, std::size_t d)
{
    return dotAvx2(a, a, d);
}

/**
 * Four rows per step: four independent accumulator chains give the
 * FMA units work to hide latency, while each chain performs exactly
 * the dotAvx2 sequence for its row.
 */
REACH_AVX2 void
dotBatchAvx2(const float *q, const float *rows, std::size_t n,
             std::size_t d, float *out)
{
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const float *r0 = rows + r * d;
        const float *r1 = r0 + d;
        const float *r2 = r1 + d;
        const float *r3 = r2 + d;
        __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
        __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
        std::size_t t = 0;
        for (; t + 8 <= d; t += 8) {
            __m256 vq = _mm256_loadu_ps(q + t);
            a0 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r0 + t), a0);
            a1 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r1 + t), a1);
            a2 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r2 + t), a2);
            a3 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r3 + t), a3);
        }
        float s0 = hsum256(a0), s1 = hsum256(a1);
        float s2 = hsum256(a2), s3 = hsum256(a3);
        for (; t < d; ++t) {
            float qv = q[t];
            s0 = std::fma(qv, r0[t], s0);
            s1 = std::fma(qv, r1[t], s1);
            s2 = std::fma(qv, r2[t], s2);
            s3 = std::fma(qv, r3[t], s3);
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < n; ++r)
        out[r] = dotAvx2(q, rows + r * d, d);
}

/**
 * Indexed-row variant of dotBatchAvx2: same four interleaved per-row
 * chains, but row pointers come from ids[] instead of a stride — the
 * scattered-candidate (rerank) shape without a gather copy.
 */
REACH_AVX2 void
dotIdxAvx2(const float *q, const float *base, const std::uint32_t *ids,
           std::size_t n, std::size_t d, float *out)
{
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const float *r0 = base + std::size_t(ids[r]) * d;
        const float *r1 = base + std::size_t(ids[r + 1]) * d;
        const float *r2 = base + std::size_t(ids[r + 2]) * d;
        const float *r3 = base + std::size_t(ids[r + 3]) * d;
        __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
        __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
        std::size_t t = 0;
        for (; t + 8 <= d; t += 8) {
            __m256 vq = _mm256_loadu_ps(q + t);
            a0 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r0 + t), a0);
            a1 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r1 + t), a1);
            a2 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r2 + t), a2);
            a3 = _mm256_fmadd_ps(vq, _mm256_loadu_ps(r3 + t), a3);
        }
        float s0 = hsum256(a0), s1 = hsum256(a1);
        float s2 = hsum256(a2), s3 = hsum256(a3);
        for (; t < d; ++t) {
            float qv = q[t];
            s0 = std::fma(qv, r0[t], s0);
            s1 = std::fma(qv, r1[t], s1);
            s2 = std::fma(qv, r2[t], s2);
            s3 = std::fma(qv, r3[t], s3);
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < n; ++r)
        out[r] = dotAvx2(q, base + std::size_t(ids[r]) * d, d);
}

/**
 * Indexed-row l2sq: four interleaved chains, each exactly the
 * l2sqAvx2 sequence for (row, q).
 */
REACH_AVX2 void
l2sqIdxAvx2(const float *q, const float *base, const std::uint32_t *ids,
            std::size_t n, std::size_t d, float *out)
{
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const float *r0 = base + std::size_t(ids[r]) * d;
        const float *r1 = base + std::size_t(ids[r + 1]) * d;
        const float *r2 = base + std::size_t(ids[r + 2]) * d;
        const float *r3 = base + std::size_t(ids[r + 3]) * d;
        __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
        __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
        std::size_t t = 0;
        for (; t + 8 <= d; t += 8) {
            __m256 vq = _mm256_loadu_ps(q + t);
            __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(r0 + t), vq);
            __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(r1 + t), vq);
            __m256 d2 = _mm256_sub_ps(_mm256_loadu_ps(r2 + t), vq);
            __m256 d3 = _mm256_sub_ps(_mm256_loadu_ps(r3 + t), vq);
            a0 = _mm256_fmadd_ps(d0, d0, a0);
            a1 = _mm256_fmadd_ps(d1, d1, a1);
            a2 = _mm256_fmadd_ps(d2, d2, a2);
            a3 = _mm256_fmadd_ps(d3, d3, a3);
        }
        float s0 = hsum256(a0), s1 = hsum256(a1);
        float s2 = hsum256(a2), s3 = hsum256(a3);
        for (; t < d; ++t) {
            float qv = q[t];
            float e0 = r0[t] - qv, e1 = r1[t] - qv;
            float e2 = r2[t] - qv, e3 = r3[t] - qv;
            s0 = std::fma(e0, e0, s0);
            s1 = std::fma(e1, e1, s1);
            s2 = std::fma(e2, e2, s2);
            s3 = std::fma(e3, e3, s3);
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < n; ++r)
        out[r] = l2sqAvx2(base + std::size_t(ids[r]) * d, q, d);
}

/**
 * ADC: expand 8 u8 codes to i32 lanes, add the per-lane LUT row
 * offsets (lane j reads subspace s+j, i.e. base lut + s*stride plus
 * j*stride + code), gather, accumulate with plain adds. Lane j sums
 * subspaces s, s+8, ... and hsum256 folds the lanes — the exact
 * order adcAccumScalar reproduces, so the backends agree bitwise.
 * The row stride is a runtime parameter: a 16-entry 4-bit table is
 * gathered as eight 16-float rows and the lanes never stray past a
 * row's valid entries.
 */
REACH_AVX2 inline __m256i
adcLaneBase(std::size_t stride)
{
    const int st = static_cast<int>(stride);
    return _mm256_setr_epi32(0 * st, 1 * st, 2 * st, 3 * st, 4 * st,
                             5 * st, 6 * st, 7 * st);
}

REACH_AVX2 float
adcAccumAvx2(const float *lut, std::size_t stride,
             const std::uint8_t *code, std::size_t m)
{
    const __m256i base = adcLaneBase(stride);
    __m256 acc = _mm256_setzero_ps();
    std::size_t s = 0;
    for (; s + 8 <= m; s += 8) {
        __m128i raw = _mm_loadl_epi64(
            reinterpret_cast<const __m128i *>(code + s));
        __m256i idx = _mm256_add_epi32(_mm256_cvtepu8_epi32(raw), base);
        acc = _mm256_add_ps(
            acc, _mm256_i32gather_ps(lut + s * stride, idx, 4));
    }
    float out = hsum256(acc);
    for (; s < m; ++s)
        out += lut[s * stride + code[s]];
    return out;
}

/**
 * Four candidate rows per step keep 32 gather lanes in flight; each
 * row's chain is exactly the adcAccumAvx2 sequence.
 */
REACH_AVX2 void
adcBatchAvx2(const float *lut, std::size_t stride,
             const std::uint8_t *codes, std::size_t n, std::size_t m,
             float *out)
{
    const __m256i base = adcLaneBase(stride);
    std::size_t r = 0;
    for (; r + 4 <= n; r += 4) {
        const std::uint8_t *c0 = codes + r * m;
        const std::uint8_t *c1 = c0 + m;
        const std::uint8_t *c2 = c1 + m;
        const std::uint8_t *c3 = c2 + m;
        __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
        __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
        std::size_t s = 0;
        for (; s + 8 <= m; s += 8) {
            const float *row = lut + s * stride;
            __m256i i0 = _mm256_add_epi32(
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(c0 + s))),
                base);
            __m256i i1 = _mm256_add_epi32(
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(c1 + s))),
                base);
            __m256i i2 = _mm256_add_epi32(
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(c2 + s))),
                base);
            __m256i i3 = _mm256_add_epi32(
                _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                    reinterpret_cast<const __m128i *>(c3 + s))),
                base);
            a0 = _mm256_add_ps(a0, _mm256_i32gather_ps(row, i0, 4));
            a1 = _mm256_add_ps(a1, _mm256_i32gather_ps(row, i1, 4));
            a2 = _mm256_add_ps(a2, _mm256_i32gather_ps(row, i2, 4));
            a3 = _mm256_add_ps(a3, _mm256_i32gather_ps(row, i3, 4));
        }
        float s0 = hsum256(a0), s1 = hsum256(a1);
        float s2 = hsum256(a2), s3 = hsum256(a3);
        for (; s < m; ++s) {
            const float *row = lut + s * stride;
            s0 += row[c0[s]];
            s1 += row[c1[s]];
            s2 += row[c2[s]];
            s3 += row[c3[s]];
        }
        out[r] = s0;
        out[r + 1] = s1;
        out[r + 2] = s2;
        out[r + 3] = s3;
    }
    for (; r < n; ++r)
        out[r] = adcAccumAvx2(lut, stride, codes + r * m, m);
}

/** Dequantize 8 u16 sums: out = fma(scale, float(sum), bias). */
REACH_AVX2 inline void
adc4Emit8(__m128i sums, __m256 vscale, __m256 vbias, float *dst)
{
    __m256 f = _mm256_cvtepi32_ps(_mm256_cvtepu16_epi32(sums));
    _mm256_storeu_ps(dst, _mm256_fmadd_ps(vscale, f, vbias));
}

/**
 * 4-bit FastScan: per block of 32 candidates, each packed row feeds
 * two register-resident shuffles — the low nibbles index the even
 * subspace's 16-byte table (broadcast to both 128-bit halves), the
 * high nibbles the odd subspace's — and the u8 results widen into
 * two u16 accumulators (unpack lo/hi against zero). 32 table
 * lookups per shuffle replace 8 gather lanes. After the rows, the
 * four u16 octets dequantize in candidate order: acc0 holds lanes
 * 0-7 / 16-23, acc1 lanes 8-15 / 24-31. A partial last block lands
 * in a stack buffer so only out[0, n) is written, matching the
 * scalar reference exactly (integer sums + one fused multiply-add).
 */
REACH_AVX2 void
adcBatch4Avx2(const std::uint8_t *lut, const std::uint8_t *blocks,
              std::size_t n, std::size_t m, float scale, float bias,
              float *out)
{
    const std::size_t pairs = m / 2;
    const __m256i low4 = _mm256_set1_epi8(0x0F);
    const __m256i zero = _mm256_setzero_si256();
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vbias = _mm256_set1_ps(bias);
    for (std::size_t done = 0, b = 0; done < n;
         done += kAdc4BlockCands, ++b) {
        const std::uint8_t *blk = blocks + b * adc4BlockBytes(m);
        __m256i acc0 = zero;
        __m256i acc1 = zero;
        for (std::size_t p = 0; p < pairs; ++p) {
            __m256i packed = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    blk + p * kAdc4BlockCands));
            __m256i lo = _mm256_and_si256(packed, low4);
            __m256i hi = _mm256_and_si256(
                _mm256_srli_epi16(packed, 4), low4);
            __m256i lutLo = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    lut + 2 * p * kAdc4LutStride)));
            __m256i lutHi = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    lut + (2 * p + 1) * kAdc4LutStride)));
            __m256i vlo = _mm256_shuffle_epi8(lutLo, lo);
            __m256i vhi = _mm256_shuffle_epi8(lutHi, hi);
            acc0 = _mm256_add_epi16(acc0,
                                    _mm256_unpacklo_epi8(vlo, zero));
            acc1 = _mm256_add_epi16(acc1,
                                    _mm256_unpackhi_epi8(vlo, zero));
            acc0 = _mm256_add_epi16(acc0,
                                    _mm256_unpacklo_epi8(vhi, zero));
            acc1 = _mm256_add_epi16(acc1,
                                    _mm256_unpackhi_epi8(vhi, zero));
        }
        if (m % 2) {
            // Odd tail subspace: only the low nibbles are codes (the
            // packer zeroes the phantom high nibbles).
            __m256i packed = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    blk + pairs * kAdc4BlockCands));
            __m256i lo = _mm256_and_si256(packed, low4);
            __m256i lutLo = _mm256_broadcastsi128_si256(
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    lut + (m - 1) * kAdc4LutStride)));
            __m256i vlo = _mm256_shuffle_epi8(lutLo, lo);
            acc0 = _mm256_add_epi16(acc0,
                                    _mm256_unpacklo_epi8(vlo, zero));
            acc1 = _mm256_add_epi16(acc1,
                                    _mm256_unpackhi_epi8(vlo, zero));
        }
        float buf[kAdc4BlockCands];
        const std::size_t valid = n - done;
        float *dst = valid >= kAdc4BlockCands ? out + done : buf;
        adc4Emit8(_mm256_castsi256_si128(acc0), vscale, vbias, dst);
        adc4Emit8(_mm256_castsi256_si128(acc1), vscale, vbias,
                  dst + 8);
        adc4Emit8(_mm256_extracti128_si256(acc0, 1), vscale, vbias,
                  dst + 16);
        adc4Emit8(_mm256_extracti128_si256(acc1, 1), vscale, vbias,
                  dst + 24);
        if (dst == buf) {
            for (std::size_t c = 0; c < valid; ++c)
                out[done + c] = buf[c];
        }
    }
}

/**
 * B-row loaders of the register-blocked GEMM below: eight
 * consecutive elements as fp32 lanes for the vector body, one
 * element for the d % 8 tail. Both conversions are exact (VCVTPH2PS
 * and the software halfToFloat agree bit for bit, half.hh), so an
 * fp16 dot differs from an fp32 one only in what it reads.
 */
struct RowsF32
{
    using Elem = float;
    REACH_AVX2 static __m256
    load8(const float *p)
    {
        return _mm256_loadu_ps(p);
    }
    static float load1(const float *p) { return *p; }
};

struct RowsF16
{
    using Elem = std::uint16_t;
    REACH_AVX2_F16 static __m256
    load8(const std::uint16_t *p)
    {
        return _mm256_cvtph_ps(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)));
    }
    static float load1(const std::uint16_t *p) { return halfToFloat(*p); }
};

/**
 * The register-blocked GEMM is compiled once per loader, each copy
 * under the target its loader needs: a function template carries one
 * target for all its instances, and the fp32 GEMM must contain no
 * F16C instruction, since dispatch keeps it on CPUs that lack F16C.
 */
namespace f32
{
#define REACH_GEMM_TARGET REACH_AVX2
#include "simd/gemm_tile_avx2.inc"
#undef REACH_GEMM_TARGET
} // namespace f32

namespace f16
{
#define REACH_GEMM_TARGET REACH_AVX2_F16
#include "simd/gemm_tile_avx2.inc"
#undef REACH_GEMM_TARGET
} // namespace f16

/**
 * Both formats run 4 x 3 tiles: twelve accumulators, three B chunks
 * and one A chunk fill the sixteen ymm registers. Each fp16 centroid
 * chunk is converted once per four queries instead of once per query,
 * so VCVTPH2PS no longer competes with every FMA for the same ports;
 * fp32 gains the same reuse of its B loads over its old 2 x 4 tile.
 */
constexpr auto gemmNtAvx2 = f32::gemmBlocked<4, 3, RowsF32>;
constexpr auto gemmNtF16Avx2 = f16::gemmBlocked<4, 3, RowsF16>;

/**
 * In-place shortlist epilogue over an (n x m) tile of dot products:
 * out = (qn + cnorm) - (p + p). Explicit intrinsic adds/sub in the
 * vector body and a multiply-free scalar tail, so this FMA-target TU
 * cannot contract anything — the bits equal the generic-TU
 * `qn + cnorm - 2.0f * p` the historical path produced (p + p is
 * exactly 2 * p).
 */
REACH_AVX2 void
scoreEpilogueAvx2(const float *qn, std::size_t n, const float *cnorm,
                  std::size_t m, float *out, std::size_t ldo)
{
    for (std::size_t i = 0; i < n; ++i) {
        float *row = out + i * ldo;
        const float q = qn[i];
        const __m256 vq = _mm256_set1_ps(q);
        std::size_t j = 0;
        for (; j + 8 <= m; j += 8) {
            __m256 vt = _mm256_add_ps(vq, _mm256_loadu_ps(cnorm + j));
            __m256 vp = _mm256_loadu_ps(row + j);
            _mm256_storeu_ps(
                row + j, _mm256_sub_ps(vt, _mm256_add_ps(vp, vp)));
        }
        for (; j < m; ++j) {
            const float t = q + cnorm[j];
            const float p = row[j];
            row[j] = t - (p + p);
        }
    }
}

REACH_AVX2 void
shortlistScoreAvx2(const float *a, const float *qn, std::size_t n,
                   const float *b, const float *cnorm, std::size_t m,
                   std::size_t d, float *out, std::size_t ldo)
{
    gemmNtAvx2(a, n, b, m, d, out, ldo);
    scoreEpilogueAvx2(qn, n, cnorm, m, out, ldo);
}

REACH_AVX2_F16 void
shortlistScoreF16Avx2(const float *a, const float *qn, std::size_t n,
                      const std::uint16_t *b, const float *cnorm,
                      std::size_t m, std::size_t d, float *out,
                      std::size_t ldo)
{
    gemmNtF16Avx2(a, n, b, m, d, out, ldo);
    scoreEpilogueAvx2(qn, n, cnorm, m, out, ldo);
}

/** Group g's 8-lane running minimum over its chunks, then a min tree. */
REACH_AVX2 float
maxGroupMinAvx2(const float *values, std::size_t n, std::size_t groups)
{
    const std::size_t chunks = n / 8;
    const float inf = std::numeric_limits<float>::infinity();
    float bound = -inf;
    for (std::size_t g = 0; g < groups; ++g) {
        // _mm256_min_ps(x, m) returns m when x is NaN.
        __m256 m = _mm256_set1_ps(inf);
        for (std::size_t c = g; c < chunks; c += groups)
            m = _mm256_min_ps(_mm256_loadu_ps(values + 8 * c), m);
        __m128 x = _mm_min_ps(_mm256_castps256_ps128(m),
                              _mm256_extractf128_ps(m, 1));
        x = _mm_min_ps(x, _mm_movehl_ps(x, x));
        x = _mm_min_ss(x, _mm_shuffle_ps(x, x, 1));
        const float low = _mm_cvtss_f32(x);
        bound = low > bound ? low : bound;
    }
    return bound;
}

} // namespace

const Kernels &
avx2Kernels()
{
    static const Kernels k{dotAvx2,          l2sqAvx2,
                           normSqAvx2,       dotBatchAvx2,
                           dotIdxAvx2,       l2sqIdxAvx2,
                           gemmNtAvx2,
                           adcBatchAvx2,     adcBatch4Avx2,
                           shortlistScoreAvx2,
                           shortlistScoreF16Avx2, maxGroupMinAvx2};
    return k;
}

} // namespace reach::simd::detail

#endif // REACH_SIMD_HAVE_X86_AVX2
