#include "linalg.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

#include "sim/logging.hh"
#include "simd/simd.hh"

namespace reach::cbir
{

float
dot(std::span<const float> a, std::span<const float> b,
    simd::Choice backend)
{
    if (a.size() != b.size())
        sim::panic("dot: length mismatch");
    return simd::kernels(backend).dot(a.data(), b.data(), a.size());
}

float
l2sq(std::span<const float> a, std::span<const float> b,
     simd::Choice backend)
{
    if (a.size() != b.size())
        sim::panic("l2sq: length mismatch");
    return simd::kernels(backend).l2sq(a.data(), b.data(), a.size());
}

float
normSq(std::span<const float> a, simd::Choice backend)
{
    return simd::kernels(backend).normSq(a.data(), a.size());
}

void
gemmNt(const Matrix &a, const Matrix &b, Matrix &c,
       const parallel::ParallelConfig &par)
{
    if (a.cols() != b.cols())
        sim::panic("gemmNt: inner dimension mismatch");
    if (c.rows() != a.rows() || c.cols() != b.rows())
        sim::panic("gemmNt: output shape mismatch");

    const simd::Kernels &k = simd::kernels(par.simd);
    constexpr std::size_t row_grain = 8;
    parallel::parallelFor(
        0, a.rows(), row_grain,
        [&](std::size_t i0, std::size_t i1) {
            k.gemmNt(a.row(i0).data(), i1 - i0, b.flat().data(),
                     b.rows(), a.cols(), c.row(i0).data(), c.cols());
        },
        par);
}

std::vector<float>
rowNormsSq(const Matrix &m, const parallel::ParallelConfig &par)
{
    const simd::Kernels &k = simd::kernels(par.simd);
    std::vector<float> norms(m.rows());
    constexpr std::size_t row_grain = 64;
    parallel::parallelFor(
        0, m.rows(), row_grain,
        [&](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                auto r = m.row(i);
                norms[i] = k.normSq(r.data(), r.size());
            }
        },
        par);
    return norms;
}

namespace
{

/** The (value, index) total order: smaller value, then lower index. */
bool
better(const TopKMin::Entry &x, const TopKMin::Entry &y)
{
    if (x.value != y.value)
        return x.value < y.value;
    return x.index < y.index;
}

/** Candidates per branch-free threshold test. */
constexpr std::size_t kBlock = 8;

/**
 * A selection over at least this many times k candidates first
 * bounds them with simd's maxGroupMin, so most candidates never reach
 * the sorted array. Smaller inputs skip the bound, which would then
 * cost more than the insertions it saves.
 */
constexpr std::size_t kBoundFactor = 8;

/**
 * Most candidates per group the bound takes a minimum over. Larger
 * groups give a tighter bound, but past a few hundred candidates per
 * group the insertions it saves cost less than the longer pass, so
 * the k groups cover only a prefix of a long input. Any prefix gives
 * a valid bound.
 */
constexpr std::size_t kBoundGroupMax = 256;

} // namespace

template <class IndexOf>
void
TopKMin::scan(const float *values, std::size_t n, IndexOf index_of)
{
    if (limit == 0)
        return;
    // Until the array is full a candidate passes when it is <= bound:
    // +inf, or for a long first scan the largest of limit group
    // minima. Those are limit distinct candidates no larger than it,
    // so any candidate above it is beaten by limit others.
    float bound = std::numeric_limits<float>::infinity();
    if (kept.empty() && n / kBoundFactor >= limit)
        bound = simd::kernels(simd::Choice::autoDetect)
                    .maxGroupMin(values, std::min(n, kBoundGroupMax * limit),
                                 limit);
    // Storage is sized by the first call, so a k far above the
    // candidate count reserves no more than is offered.
    if (kept.capacity() == 0)
        kept.reserve(std::min(n, limit));
    const auto admit = [&](std::size_t j) {
        const Entry cand{values[j], index_of(j)};
        if (kept.size() == limit) {
            offer(cand);
        } else if (cand.value <= bound) {
            kept.push_back(cand);
            if (kept.size() == limit)
                std::sort(kept.begin(), kept.end(), better);
        }
    };
    const auto gate = [&] {
        return kept.size() == limit ? kept.back().value : bound;
    };
    float worst = gate();
    std::size_t j = 0;
    for (; j + kBlock <= n; j += kBlock) {
        const float *block = values + j;
        // Counted compares keep the common no-hit block free of
        // branches; a block with a hit then offers only its hits.
        unsigned count = 0;
        for (std::size_t l = 0; l < kBlock; ++l)
            count += block[l] <= worst;
        if (count == 0)
            continue;
        unsigned hits = 0;
        for (std::size_t l = 0; l < kBlock; ++l)
            hits |= static_cast<unsigned>(block[l] <= worst) << l;
        // A stale hit (the k-th value fell since) fails offer's test.
        for (; hits != 0; hits &= hits - 1)
            admit(j + static_cast<std::size_t>(std::countr_zero(hits)));
        worst = gate();
    }
    for (; j < n; ++j)
        admit(j);
}

void
TopKMin::offer(Entry cand)
{
    if (!better(cand, kept.back()))
        return;
    std::size_t pos = kept.size() - 1;
    for (; pos > 0 && better(cand, kept[pos - 1]); --pos)
        kept[pos] = kept[pos - 1];
    kept[pos] = cand;
}

void
TopKMin::consider(std::span<const float> values,
                  std::uint32_t firstIndex)
{
    scan(values.data(), values.size(), [firstIndex](std::size_t j) {
        return firstIndex + static_cast<std::uint32_t>(j);
    });
}

void
TopKMin::consider(std::span<const float> values,
                  std::span<const std::uint32_t> indices)
{
    if (values.size() != indices.size())
        sim::panic("TopKMin::consider: values/indices length mismatch");
    scan(values.data(), values.size(),
         [indices](std::size_t j) { return indices[j]; });
}

std::span<const TopKMin::Entry>
TopKMin::sorted()
{
    if (kept.size() < limit)
        std::sort(kept.begin(), kept.end(), better);
    return kept;
}

std::vector<std::uint32_t>
TopKMin::finish()
{
    std::vector<std::uint32_t> out;
    out.reserve(kept.size());
    for (const Entry &e : sorted())
        out.push_back(e.index);
    kept.clear();
    return out;
}

std::vector<std::uint32_t>
topKMin(std::span<const float> values, std::size_t k)
{
    TopKMin sel(std::min(k, values.size()));
    sel.consider(values, 0);
    return sel.finish();
}

namespace
{

/**
 * Order-preserving u32 key of a float: a < b as floats iff
 * key(a) < key(b). -0.0 takes +0.0's key, since the comparator
 * treats them as equal and leaves the tie to the id.
 */
std::uint32_t
orderKey(float f)
{
    std::uint32_t u = std::bit_cast<std::uint32_t>(f);
    if (u == 0x80000000u)
        u = 0;
    // Negative: flip every bit; non-negative: flip the sign bit.
    const std::uint32_t flip = (0u - (u >> 31)) | 0x80000000u;
    return u ^ flip;
}

} // namespace

void
cutNearest(std::vector<std::uint32_t> &ids, std::span<const float> dists,
           std::size_t keep, std::vector<std::uint32_t> &scratch)
{
    const std::size_t n = ids.size();
    if (dists.size() != n)
        sim::panic("cutNearest: ids/dists length mismatch");
    if (n <= keep)
        return;
    if (keep == 0) {
        ids.clear();
        return;
    }

    // scratch[0, live) holds the keys that can still be the
    // threshold, which is the rank-th smallest of them (1-based).
    scratch.resize(n);
    std::uint32_t lo = ~0u;
    std::uint32_t hi = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t key = orderKey(dists[i]);
        scratch[i] = key;
        lo = std::min(lo, key);
        hi = std::max(hi, key);
    }
    std::size_t live = n;
    std::size_t rank = keep;
    while (lo != hi) {
        // The 8-bit digit just below the bits every live key shares.
        const int shift =
            std::max(0, static_cast<int>(std::bit_width(lo ^ hi)) - 8);
        std::array<std::uint32_t, 256> hist{};
        for (std::size_t i = 0; i < live; ++i)
            ++hist[(scratch[i] >> shift) & 0xff];
        std::uint32_t digit = 0;
        for (; hist[digit] < rank; ++digit)
            rank -= hist[digit];
        std::size_t next = 0;
        for (std::size_t i = 0; i < live; ++i) {
            const std::uint32_t key = scratch[i];
            scratch[next] = key;
            next += ((key >> shift) & 0xff) == digit;
        }
        live = next;
        lo = ~0u;
        hi = 0;
        for (std::size_t i = 0; i < live; ++i) {
            lo = std::min(lo, scratch[i]);
            hi = std::max(hi, scratch[i]);
        }
    }

    // Keep every id below the threshold in place; gather the ids
    // equal to it, then keep the lowest of those.
    const std::uint32_t threshold = lo;
    std::size_t below = 0;
    std::size_t tied = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t key = orderKey(dists[i]);
        const std::uint32_t id = ids[i];
        ids[below] = id;
        below += key < threshold;
        scratch[tied] = id;
        tied += key == threshold;
    }
    const std::size_t need = keep - below;
    auto first = scratch.begin();
    std::nth_element(first, first + static_cast<std::ptrdiff_t>(need),
                     first + static_cast<std::ptrdiff_t>(tied));
    std::copy_n(first, need,
                ids.begin() + static_cast<std::ptrdiff_t>(below));
    ids.resize(keep);
}

} // namespace reach::cbir
