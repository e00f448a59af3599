#include "pq.hh"

#include <algorithm>
#include <array>

#include "cbir/kmeans.hh"
#include "sim/logging.hh"

namespace reach::cbir
{

void
validatePqConfig(const PqConfig &cfg, std::size_t dim)
{
    if (cfg.m == 0)
        sim::fatal("PqConfig: m must be >= 1");
    if (dim == 0 || cfg.m > dim)
        sim::fatal("PqConfig: m = ", cfg.m, " exceeds dim = ", dim);
    if (dim % cfg.m != 0)
        sim::fatal("PqConfig: m = ", cfg.m,
                   " does not divide dim = ", dim);
    if (cfg.trainIterations == 0)
        sim::fatal("PqConfig: trainIterations must be >= 1");
    if (cfg.bits != 4 && cfg.bits != 8)
        sim::fatal("PqConfig: bits must be 4 or 8, got ", cfg.bits);
    if (cfg.bits == 4 && cfg.m > 256) {
        // 256 subspaces of worst-case 255 saturate the shuffle
        // kernel's u16 accumulators; wider splits make no sense at
        // the paper's dimensionalities anyway.
        sim::fatal("PqConfig: 4-bit mode caps m at 256, got ", cfg.m);
    }
}

PqCodebook
PqCodebook::train(const Matrix &vectors, const PqConfig &cfg,
                  const parallel::ParallelConfig &par)
{
    validatePqConfig(cfg, vectors.cols());
    if (vectors.rows() == 0)
        sim::fatal("PqCodebook: cannot train on an empty dataset");

    PqCodebook cb;
    cb.m = cfg.m;
    cb.dsub = vectors.cols() / cfg.m;
    cb.bits = cfg.bits;
    cb.ksub = std::min<std::size_t>(cfg.bits == 4 ? 16 : 256,
                                    vectors.rows());
    cb.cents.resize(cb.m * cb.ksub * cb.dsub);

    Matrix sub(vectors.rows(), cb.dsub);
    for (std::size_t s = 0; s < cb.m; ++s) {
        for (std::size_t r = 0; r < vectors.rows(); ++r) {
            std::span<const float> row = vectors.row(r);
            std::copy_n(row.data() + s * cb.dsub, cb.dsub,
                        sub.row(r).data());
        }
        KMeansConfig kc;
        kc.clusters = cb.ksub;
        kc.maxIterations = cfg.trainIterations;
        kc.seed = cfg.seed + s;
        kc.parallel = par;
        KMeansResult km = kMeans(sub, kc);
        std::copy_n(km.centroids.flat().data(), cb.ksub * cb.dsub,
                    cb.cents.data() + s * cb.ksub * cb.dsub);
    }
    cb.centsT.resize(cb.cents.size());
    for (std::size_t s = 0; s < cb.m; ++s) {
        const float *block = cb.cents.data() + s * cb.ksub * cb.dsub;
        float *blockT = cb.centsT.data() + s * cb.ksub * cb.dsub;
        for (std::size_t j = 0; j < cb.ksub; ++j)
            for (std::size_t t = 0; t < cb.dsub; ++t)
                blockT[t * cb.ksub + j] = block[j * cb.dsub + t];
    }
    return cb;
}

std::span<const float>
PqCodebook::centroid(std::size_t s, std::size_t j) const
{
    return {cents.data() + (s * ksub + j) * dsub, dsub};
}

void
PqCodebook::subspaceL2(std::size_t s, const float *v,
                       float *scratch) const
{
    const float *blockT = centsT.data() + s * ksub * dsub;
    std::fill(scratch, scratch + ksub, 0.0f);
    for (std::size_t t = 0; t < dsub; ++t) {
        const float vt = v[s * dsub + t];
        const float *ct = blockT + t * ksub;
        for (std::size_t j = 0; j < ksub; ++j) {
            float diff = vt - ct[j];
            scratch[j] += diff * diff;
        }
    }
}

void
PqCodebook::encodeWith(std::span<const float> v, std::uint8_t *code,
                       float *scratch) const
{
    for (std::size_t s = 0; s < m; ++s) {
        subspaceL2(s, v.data(), scratch);
        std::size_t best = 0;
        for (std::size_t j = 1; j < ksub; ++j) {
            if (scratch[j] < scratch[best])
                best = j;
        }
        if (bits == 4) {
            if (s % 2 == 0)
                code[s / 2] = static_cast<std::uint8_t>(best);
            else
                code[s / 2] |= static_cast<std::uint8_t>(best << 4);
        } else {
            code[s] = static_cast<std::uint8_t>(best);
        }
    }
}

void
PqCodebook::encode(std::span<const float> v, std::uint8_t *code) const
{
    if (v.size() != dim())
        sim::panic("PqCodebook::encode: vector has ", v.size(),
                   " dims, codebook expects ", dim());
    std::vector<float> scratch(ksub);
    encodeWith(v, code, scratch.data());
}

std::vector<std::uint8_t>
PqCodebook::encodeAll(const Matrix &vectors,
                      const parallel::ParallelConfig &par) const
{
    if (vectors.cols() != dim())
        sim::panic("PqCodebook::encodeAll: vectors have ",
                   vectors.cols(), " dims, codebook expects ", dim());
    const std::size_t cb = codeBytes();
    std::vector<std::uint8_t> codes(vectors.rows() * cb);
    parallel::parallelFor(
        0, vectors.rows(), 256,
        [&](std::size_t b, std::size_t e) {
            std::vector<float> scratch(ksub);
            for (std::size_t r = b; r < e; ++r) {
                encodeWith(vectors.row(r), codes.data() + r * cb,
                           scratch.data());
            }
        },
        par);
    return codes;
}

void
PqCodebook::decode(const std::uint8_t *code, std::span<float> out) const
{
    if (out.size() != dim())
        sim::panic("PqCodebook::decode: output has ", out.size(),
                   " dims, codebook expects ", dim());
    for (std::size_t s = 0; s < m; ++s) {
        const std::size_t j =
            bits == 4 ? (s % 2 == 0 ? code[s / 2] & 0x0F
                                    : code[s / 2] >> 4)
                      : code[s];
        std::span<const float> c = centroid(s, j);
        std::copy_n(c.data(), dsub, out.data() + s * dsub);
    }
}

void
PqCodebook::adcTable(std::span<const float> query, float *lut) const
{
    if (query.size() != dim())
        sim::panic("PqCodebook::adcTable: query has ", query.size(),
                   " dims, codebook expects ", dim());
    // Backend-independent on purpose: one fixed loop, vectorized by
    // the compiler across the ksub table entries (see subspaceL2).
    const std::size_t stride = lutStride();
    for (std::size_t s = 0; s < m; ++s) {
        float *row = lut + s * stride;
        subspaceL2(s, query.data(), row);
        std::fill(row + ksub, row + stride, 0.0f);
    }
}

PqCodebook::AdcQuantParams
PqCodebook::adcTable4(std::span<const float> query, std::uint8_t *lut4,
                      std::span<float> rows) const
{
    if (bits != 4)
        sim::panic("PqCodebook::adcTable4: codebook is ", bits,
                   "-bit, shuffle tables need 4");
    if (query.size() != dim())
        sim::panic("PqCodebook::adcTable4: query has ", query.size(),
                   " dims, codebook expects ", dim());
    if (rows.size() < lutFloats())
        sim::panic("PqCodebook::adcTable4: ", rows.size(),
                   " scratch floats, table needs ", lutFloats());

    // Float rows first (same arithmetic as adcTable), then one
    // affine map to u8: per-row minimum folds into the bias so the
    // full 0..255 range covers only the spread that matters, and a
    // single shared scale keeps the kernel's sum dequantizable with
    // one fma. validatePqConfig caps 4-bit m at 256, so the row
    // minima fit on the stack.
    std::array<float, 256> lo;
    float range = 0;
    for (std::size_t s = 0; s < m; ++s) {
        float *row = rows.data() + s * simd::kAdc4LutStride;
        subspaceL2(s, query.data(), row);
        float mn = row[0], mx = row[0];
        for (std::size_t j = 1; j < ksub; ++j) {
            mn = std::min(mn, row[j]);
            mx = std::max(mx, row[j]);
        }
        lo[s] = mn;
        range = std::max(range, mx - mn);
    }

    AdcQuantParams qp;
    qp.scale = range > 0 ? range / 255.0f : 0.0f;
    const float inv = range > 0 ? 255.0f / range : 0.0f;
    for (std::size_t s = 0; s < m; ++s) {
        qp.bias += lo[s];
        const float *row = rows.data() + s * simd::kAdc4LutStride;
        std::uint8_t *qrow = lut4 + s * simd::kAdc4LutStride;
        for (std::size_t j = 0; j < ksub; ++j) {
            // Round half up; the cast floors the non-negative value.
            float q = (row[j] - lo[s]) * inv + 0.5f;
            qrow[j] = static_cast<std::uint8_t>(std::min(q, 255.0f));
        }
        // Saturate the untrained tail: codes never reference it, but
        // a saturated entry can at worst push a phantom candidate
        // away, never pull it into a short-list.
        std::fill(qrow + ksub, qrow + simd::kAdc4LutStride,
                  std::uint8_t{255});
    }
    return qp;
}

} // namespace reach::cbir
