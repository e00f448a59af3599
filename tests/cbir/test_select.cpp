/**
 * @file
 * Property tests of the two selections every query runs: the ordered
 * top-k (TopKMin, behind the shortlist's top-nprobe and rerank's
 * final top-K) and the refine cut (cutNearest, behind the PQ rerank's
 * exact-refine survivors). Each is compared with a full std::sort by
 * (value, id) on inputs built to break a selection that is not exact
 * under that total order: values from a few distinct levels, -0.0
 * beside +0.0 and negatives, ids in random order, lengths that are
 * not a multiple of the 8-wide block test, k and keep of 0, 1, n - 1,
 * n and n + 1, and a threshold value shared by ids on both sides of
 * the cut. The rerank cases run both selections through rerank at 1
 * and 4 threads on every available backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cbir/index.hh"
#include "cbir/linalg.hh"
#include "cbir/pq.hh"
#include "cbir/rerank.hh"
#include "cbir/shortlist.hh"
#include "sim/rng.hh"
#include "simd/simd.hh"
#include "workload/dataset.hh"

using namespace reach;
using namespace reach::cbir;

namespace
{

struct Candidates
{
    std::vector<float> values;
    std::vector<std::uint32_t> ids;
};

/** Three distinct values only. */
float
levelValue(sim::Rng &rng)
{
    return 0.25f * static_cast<float>(rng.nextUInt(3));
}

/** -0.0, +0.0, negatives and positives, each often repeated. */
float
signedZeroValue(sim::Rng &rng)
{
    static const float kValues[] = {-0.0f, 0.0f, -1.5f, -1e-30f,
                                    1e-30f, 2.0f};
    return kValues[rng.nextUInt(std::size(kValues))];
}

/** Mostly distinct values of both signs. */
float
spreadValue(sim::Rng &rng)
{
    return static_cast<float>(rng.nextDouble(-1e3, 1e3));
}

/**
 * @p n candidates with distinct ids in random order (a shuffled
 * sparse range, so ids are neither dense nor ascending).
 */
Candidates
makeCandidates(std::size_t n, std::uint64_t seed,
               float (*value)(sim::Rng &))
{
    sim::Rng rng(seed);
    Candidates c;
    for (std::size_t i = 0; i < n; ++i) {
        c.values.push_back(value(rng));
        c.ids.push_back(static_cast<std::uint32_t>(7 * i + 3));
    }
    for (std::size_t i = n; i > 1; --i)
        std::swap(c.ids[i - 1], c.ids[rng.nextUInt(i)]);
    return c;
}

/** Full sort by (value, id); the first k entries are the answer. */
std::vector<TopKMin::Entry>
fullSort(const Candidates &c)
{
    std::vector<TopKMin::Entry> all;
    for (std::size_t i = 0; i < c.values.size(); ++i)
        all.push_back({c.values[i], c.ids[i]});
    std::sort(all.begin(), all.end(), [](const auto &a, const auto &b) {
        if (a.value != b.value)
            return a.value < b.value;
        return a.index < b.index;
    });
    return all;
}

std::string
describe(const TopKMin::Entry &e)
{
    return std::to_string(e.index) + ":" + std::to_string(e.value) +
           (std::signbit(e.value) ? "(-)" : "");
}

void
expectSameEntries(std::span<const TopKMin::Entry> got,
                  std::span<const TopKMin::Entry> want,
                  const std::string &what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(got[i].index == want[i].index &&
                    std::bit_cast<std::uint32_t>(got[i].value) ==
                        std::bit_cast<std::uint32_t>(want[i].value))
            << what << " rank " << i << ": got " << describe(got[i])
            << " want " << describe(want[i]);
    }
}

struct Family
{
    const char *name;
    float (*value)(sim::Rng &);
};

const Family kFamilies[] = {
    {"levels", levelValue},
    {"signedZeros", signedZeroValue},
    {"spread", spreadValue},
};

const std::size_t kSizes[] = {1, 7, 8, 13, 37, 100, 257};

/** k (or keep) of 0, 1, n - 1, n and n + 1. */
std::vector<std::size_t>
edgeCounts(std::size_t n)
{
    return {0, 1, n - 1, n, n + 1};
}

TEST(TopKMinSelect, MatchesFullSortWithUnorderedIds)
{
    for (const Family &fam : kFamilies) {
        for (std::size_t n : kSizes) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                const Candidates c = makeCandidates(n, seed, fam.value);
                const std::vector<TopKMin::Entry> all = fullSort(c);
                for (std::size_t k : edgeCounts(n)) {
                    TopKMin top(k);
                    top.consider(c.values, c.ids);
                    const std::size_t kept = std::min(k, n);
                    expectSameEntries(
                        top.sorted(), {all.data(), kept},
                        std::string(fam.name) + " n=" +
                            std::to_string(n) + " k=" +
                            std::to_string(k) + " seed=" +
                            std::to_string(seed));
                }
            }
        }
    }
}

/**
 * Contiguous indices fed block by block, last block first: a lower
 * index with an equal value always arrives after the higher ones.
 */
TEST(TopKMinSelect, BlocksInDescendingIndexOrder)
{
    for (const Family &fam : kFamilies) {
        for (std::size_t n : kSizes) {
            Candidates c = makeCandidates(n, 17, fam.value);
            for (std::size_t i = 0; i < n; ++i)
                c.ids[i] = static_cast<std::uint32_t>(i);
            const std::vector<TopKMin::Entry> all = fullSort(c);
            for (std::size_t block : {std::size_t{1}, std::size_t{5},
                                      std::size_t{8}, std::size_t{64}}) {
                for (std::size_t k : edgeCounts(n)) {
                    TopKMin top(k);
                    for (std::size_t end = n; end > 0;) {
                        const std::size_t begin =
                            end > block ? end - block : 0;
                        top.consider(
                            {c.values.data() + begin, end - begin},
                            static_cast<std::uint32_t>(begin));
                        end = begin;
                    }
                    expectSameEntries(
                        top.sorted(), {all.data(), std::min(k, n)},
                        std::string(fam.name) + " n=" +
                            std::to_string(n) + " block=" +
                            std::to_string(block) + " k=" +
                            std::to_string(k));
                }
            }
        }
    }
}

TEST(TopKMinSelect, ReusedAfterClear)
{
    const Candidates a = makeCandidates(100, 3, levelValue);
    const Candidates b = makeCandidates(37, 4, signedZeroValue);
    TopKMin top(10);
    top.consider(a.values, a.ids);
    top.clear();
    top.consider(b.values, b.ids);
    const std::vector<TopKMin::Entry> want = fullSort(b);
    expectSameEntries(top.sorted(), {want.data(), 10}, "reused");
}

/** The cut's survivors, and the reference's first keep, as id sets. */
void
expectCutMatches(const Candidates &c, std::size_t keep,
                 const std::string &what)
{
    std::vector<std::uint32_t> got = c.ids;
    std::vector<std::uint32_t> scratch;
    cutNearest(got, c.values, keep, scratch);
    std::sort(got.begin(), got.end());

    const std::vector<TopKMin::Entry> all = fullSort(c);
    std::vector<std::uint32_t> want;
    for (std::size_t i = 0; i < std::min(keep, all.size()); ++i)
        want.push_back(all[i].index);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << what;
}

TEST(CutNearest, MatchesFullSortWithUnorderedIds)
{
    for (const Family &fam : kFamilies) {
        for (std::size_t n : kSizes) {
            for (std::uint64_t seed = 1; seed <= 4; ++seed) {
                const Candidates c = makeCandidates(n, seed, fam.value);
                for (std::size_t keep : edgeCounts(n)) {
                    expectCutMatches(c, keep,
                                     std::string(fam.name) + " n=" +
                                         std::to_string(n) + " keep=" +
                                         std::to_string(keep) +
                                         " seed=" + std::to_string(seed));
                }
                for (std::size_t keep = 2; keep + 1 < n; keep += 3)
                    expectCutMatches(c, keep,
                                     std::string(fam.name) + " n=" +
                                         std::to_string(n) + " keep=" +
                                         std::to_string(keep));
            }
        }
    }
}

/**
 * A threshold value held by ids on both sides of the cut, arriving
 * highest id first, and by a -0.0 / +0.0 pair that straddles it.
 */
TEST(CutNearest, ThresholdSharedAcrossTheCut)
{
    Candidates c;
    // Ten ids at value 1.0 in descending id order, below them three
    // smaller values; keep 8 must take the five lowest tied ids.
    for (std::uint32_t id = 40; id >= 31; --id) {
        c.values.push_back(1.0f);
        c.ids.push_back(id);
    }
    for (std::uint32_t id : {90u, 5u, 61u}) {
        c.values.push_back(0.5f);
        c.ids.push_back(id);
    }
    c.values.push_back(2.0f);
    c.ids.push_back(1);
    const std::vector<TopKMin::Entry> all = fullSort(c);
    ASSERT_EQ(all[7].value, all[8].value);
    expectCutMatches(c, 8, "shared 1.0");

    // -0.0 on the higher ids, +0.0 on the lower: equal under the
    // comparator, so the lower ids win whatever their sign bit.
    Candidates z;
    for (std::uint32_t id = 20; id > 0; --id) {
        z.values.push_back(id % 2 ? 0.0f : -0.0f);
        z.ids.push_back(id * 3 + (id % 2 ? 0 : 100));
    }
    z.values.push_back(-1.0f);
    z.ids.push_back(999);
    for (std::size_t keep = 1; keep <= z.ids.size(); ++keep)
        expectCutMatches(z, keep, "signed zeros keep " +
                                      std::to_string(keep));
}

/**
 * Inputs for the bounded first scan: an empty selector offered at
 * least 8k candidates at once first bounds them by the largest of k
 * group minima (8-element chunks dealt to k groups in turn, at most
 * 256 candidates per group), and the array fills with the candidates
 * <= that bound. Each shape is built so that a wrong bound, a strict
 * filter or a group too few changes the answer.
 */
struct BoundedCase
{
    std::string name;
    std::vector<float> values;
    std::size_t k;
};

std::vector<BoundedCase>
boundedCases()
{
    std::vector<BoundedCase> out;
    const auto add = [&](std::string name, std::vector<float> v,
                         std::size_t k) {
        out.push_back({std::move(name), std::move(v), k});
    };
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5},
                          std::size_t{10}, std::size_t{16}}) {
        for (std::size_t n : {8 * k, 8 * k + 3, 13 * k + 5, 64 * k}) {
            const std::string shape =
                " n=" + std::to_string(n) + " k=" + std::to_string(k);
            // Every candidate equals the bound.
            add("equal" + shape, std::vector<float>(n, 0.5f), k);
            std::vector<float> up(n), down(n);
            for (std::size_t i = 0; i < n; ++i) {
                up[i] = static_cast<float>(i);
                down[i] = static_cast<float>(n - i);
            }
            add("ascending" + shape, up, k);
            add("descending" + shape, down, k);
            // Each group's minimum is 1.0 (so the bound is 1.0), more
            // 1.0s spread over the groups, and k / 2 smaller values:
            // the k best end in a tie at the bound. Group g's first
            // chunk is chunk g.
            std::vector<float> ties(n, 2.0f);
            for (std::size_t g = 0; g < k; ++g) {
                ties[8 * g + (g * 7) % 8] = 1.0f;
                ties[(8 * (g + k) + (g * 3 + 1) % 8) % n] = 1.0f;
            }
            for (std::size_t i = 0; i < k / 2; ++i)
                ties[(i * 11 + 5) % n] = 0.5f;
            add("tiesAtBound" + shape, ties, k);
            // -0.0 and +0.0 as every group's minimum.
            std::vector<float> zeros(n, 1.0f);
            for (std::size_t i = 0; i < n; i += 3)
                zeros[i] = i % 2 ? -0.0f : 0.0f;
            add("signedZeros" + shape, zeros, k);
            // The smallest values in the tail past the last chunk.
            if (n % 8 != 0) {
                std::vector<float> tail(n);
                for (std::size_t i = 0; i < n - n % 8; ++i)
                    tail[i] = 3.0f + static_cast<float>(i % 5);
                for (std::size_t i = n - n % 8; i < n; ++i)
                    tail[i] = -static_cast<float>(i);
                add("smallestInTail" + shape, tail, k);
            }
        }
        // The smallest values past the prefix the groups cover (each
        // group is at most 256 long).
        const std::size_t n = 300 * k + 7;
        std::vector<float> late(n);
        for (std::size_t i = 0; i < n; ++i)
            late[i] = static_cast<float>((i * 37) % 101);
        for (std::size_t i = n - k; i < n; ++i)
            late[i] = -1.0f;
        add("smallestPastPrefix n=" + std::to_string(n) +
                " k=" + std::to_string(k),
            late, k);
    }
    // k = n / 8 exactly, random values of three kinds.
    for (const Family &fam : kFamilies) {
        for (std::size_t n : {8, 80, 257, 1024}) {
            const Candidates c = makeCandidates(n, 41, fam.value);
            add(std::string(fam.name) + " n=" + std::to_string(n) +
                    " k=n/8",
                c.values, n / 8);
        }
    }
    return out;
}

TEST(TopKMinSelect, BoundedFirstScanMatchesFullSort)
{
    for (const BoundedCase &bc : boundedCases()) {
        const std::size_t n = bc.values.size();
        Candidates c;
        c.values = bc.values;
        for (std::size_t i = 0; i < n; ++i)
            c.ids.push_back(static_cast<std::uint32_t>(i));
        const std::vector<TopKMin::Entry> all = fullSort(c);
        const std::size_t kept = std::min(bc.k, n);

        TopKMin contiguous(bc.k);
        contiguous.consider(c.values, 0);
        expectSameEntries(contiguous.sorted(), {all.data(), kept},
                          bc.name + " contiguous");

        // The same values under ids in random order.
        Candidates shuffled = makeCandidates(n, 43, levelValue);
        shuffled.values = c.values;
        const std::vector<TopKMin::Entry> want = fullSort(shuffled);
        TopKMin indexed(bc.k);
        indexed.consider(shuffled.values, shuffled.ids);
        expectSameEntries(indexed.sorted(), {want.data(), kept},
                          bc.name + " indexed");
    }
}

/**
 * NaN is never retained: the selector returns the k best of the
 * non-NaN values, fewer when fewer are offered, on the bounded and
 * the unbounded path, and when a whole group is NaN (the bound is
 * then +inf).
 */
TEST(TopKMinSelect, NaNIsNeverRetained)
{
    for (std::size_t n : {5, 13, 64, 200, 1000}) {
        for (std::size_t k : {std::size_t{1}, std::size_t{4},
                              std::size_t{10}, n}) {
            Candidates c = makeCandidates(n, 53, spreadValue);
            for (std::size_t i = 0; i < n; i += 4)
                c.values[i] = NAN;
            // The first group is all NaN.
            for (std::size_t i = 0; i < std::min(n, n / k); ++i)
                c.values[i] = NAN;
            Candidates finite;
            for (std::size_t i = 0; i < n; ++i) {
                if (!std::isnan(c.values[i])) {
                    finite.values.push_back(c.values[i]);
                    finite.ids.push_back(c.ids[i]);
                }
            }
            const std::vector<TopKMin::Entry> want = fullSort(finite);
            const std::string what =
                "n=" + std::to_string(n) + " k=" + std::to_string(k);

            TopKMin top(k);
            top.consider(c.values, c.ids);
            expectSameEntries(top.sorted(),
                              {want.data(), std::min(k, want.size())},
                              what);

            // NaN after the array is full, fed one value at a time.
            TopKMin streamed(k);
            for (std::size_t i = 0; i < n; ++i)
                streamed.consider({&c.values[i], 1}, {&c.ids[i], 1});
            expectSameEntries(streamed.sorted(),
                              {want.data(), std::min(k, want.size())},
                              what + " streamed");
        }
    }
}

/**
 * 1200 vectors in 24 clusters with every fourth row a copy of an
 * earlier one, 8 probed: exact distances tie on the copies, and m = 2
 * at 4 bits makes ADC ties common across clusters.
 */
struct RerankSelectFixture
{
    Matrix vectors;
    InvertedFileIndex idx;
    Matrix queries;
    ShortLists lists;

    static Matrix
    withCopies()
    {
        workload::DatasetConfig dc;
        dc.numVectors = 1200;
        dc.dim = 16;
        dc.latentClusters = 12;
        Matrix m = workload::Dataset(dc).vectors();
        for (std::size_t r = 3; r < m.rows(); r += 4) {
            const auto src = m.row(r / 2);
            std::copy(src.begin(), src.end(), m.row(r).begin());
        }
        return m;
    }

    RerankSelectFixture()
        : vectors(withCopies()),
          idx(vectors,
              [] {
                  KMeansConfig kc;
                  kc.clusters = 24;
                  return kc;
              }()),
          queries(24, 16)
    {
        PqConfig pc;
        pc.enabled = true;
        pc.m = 2;
        pc.bits = 4;
        pc.trainIterations = 4;
        idx.buildPq(vectors, pc);
        sim::Rng rng(29);
        for (std::size_t q = 0; q < queries.rows(); ++q) {
            const auto src = vectors.row(rng.nextUInt(vectors.rows()));
            for (std::size_t d = 0; d < queries.cols(); ++d)
                queries.at(q, d) =
                    src[d] + static_cast<float>(rng.nextGaussian() * 0.2);
        }
        lists = shortlistRetrieve(queries, idx, 8);
    }
};

/** Candidates per query in the rerank cases: not a multiple of 8. */
constexpr std::size_t kBudget = 37;

/** rerank's exact distance of one candidate (clamped at zero). */
float
exactDist(const RerankSelectFixture &f, const simd::Kernels &kern,
          std::size_t q, std::uint32_t id)
{
    const std::size_t d = f.vectors.cols();
    const float *qv = f.queries.row(q).data();
    const float dot = kern.dot(qv, f.vectors.row(id).data(), d);
    return std::max(
        kern.normSq(qv, d) + f.idx.vectorNormsSq()[id] - 2.0f * dot,
        0.0f);
}

/**
 * One query's candidates in scan order: the budgeted member prefix of
 * each probed cluster, scored by 4-bit ADC or exactly.
 */
Candidates
scoredCandidates(const RerankSelectFixture &f, const simd::Kernels &kern,
                 std::size_t q, bool adc)
{
    const PqCodebook &cb = f.idx.pqCodebook();
    std::vector<float> rows(cb.lutFloats());
    std::vector<std::uint8_t> lut4(cb.lutFloats());
    const PqCodebook::AdcQuantParams qp =
        cb.adcTable4(f.queries.row(q), lut4.data(), rows);
    Candidates c;
    for (std::uint32_t cl : f.lists[q]) {
        const auto &members = f.idx.cluster(cl);
        const std::size_t take =
            std::min(members.size(), kBudget - c.ids.size());
        std::vector<float> dist(take);
        kern.adcBatch4(lut4.data(), f.idx.clusterPackedCodes(cl).data(),
                       take, cb.numSubspaces(), qp.scale, qp.bias,
                       dist.data());
        for (std::size_t i = 0; i < take; ++i) {
            c.ids.push_back(members[i]);
            c.values.push_back(adc ? dist[i]
                                   : exactDist(f, kern, q, members[i]));
        }
    }
    EXPECT_EQ(c.ids.size(), kBudget) << "query " << q;
    return c;
}

std::vector<Neighbor>
asNeighbors(std::span<const TopKMin::Entry> entries)
{
    std::vector<Neighbor> out;
    for (const TopKMin::Entry &e : entries)
        out.push_back({e.index, e.value});
    return out;
}

std::vector<simd::Choice>
availableBackends()
{
    std::vector<simd::Choice> out = {simd::Choice::scalar};
    if (simd::supported(simd::Backend::avx2))
        out.push_back(simd::Choice::avx2);
    return out;
}

RerankConfig
selectConfig(std::size_t k, bool pq, std::size_t refine, unsigned threads,
             simd::Choice be)
{
    RerankConfig rc;
    rc.k = k;
    rc.maxCandidates = kBudget;
    rc.usePq = pq;
    rc.pqRefine = refine;
    rc.parallel.threads = threads;
    rc.parallel.simd = be;
    return rc;
}

/** rerank's final top-K, over exact and over ADC distances. */
TEST(RerankSelect, FinalTopKMatchesFullSort)
{
    const RerankSelectFixture f;
    for (simd::Choice be : availableBackends()) {
        const simd::Kernels &kern = simd::kernels(be);
        for (bool adc : {false, true}) {
            std::vector<std::vector<TopKMin::Entry>> sorted;
            for (std::size_t q = 0; q < f.queries.rows(); ++q)
                sorted.push_back(fullSort(scoredCandidates(f, kern, q, adc)));
            for (std::size_t k : edgeCounts(kBudget)) {
                for (unsigned threads : {1u, 4u}) {
                    const RerankResults got =
                        rerank(f.queries, f.vectors, f.idx, f.lists,
                               selectConfig(k, adc, 0, threads, be));
                    ASSERT_EQ(got.size(), f.queries.rows());
                    for (std::size_t q = 0; q < got.size(); ++q) {
                        EXPECT_EQ(got[q],
                                  asNeighbors({sorted[q].data(),
                                               std::min(k, kBudget)}))
                            << (adc ? "adc" : "exact") << " k=" << k
                            << " threads=" << threads << " query " << q;
                    }
                }
            }
        }
    }
}

/** The refine cut at keep of 1, n - 1, n and n + 1 (and R < k). */
TEST(RerankSelect, RefineCutMatchesFullSort)
{
    const RerankSelectFixture f;
    for (simd::Choice be : availableBackends()) {
        const simd::Kernels &kern = simd::kernels(be);
        std::vector<std::vector<TopKMin::Entry>> sorted;
        for (std::size_t q = 0; q < f.queries.rows(); ++q)
            sorted.push_back(fullSort(scoredCandidates(f, kern, q, true)));
        std::size_t straddles = 0;
        for (std::size_t refine : {std::size_t{1}, kBudget - 1, kBudget,
                                   kBudget + 1}) {
            for (std::size_t k : {std::size_t{1}, std::size_t{10}}) {
                const std::size_t keep =
                    std::min(std::max(k, refine), kBudget);
                RerankResults want(f.queries.rows());
                for (std::size_t q = 0; q < want.size(); ++q) {
                    Candidates survivors;
                    for (std::size_t i = 0; i < keep; ++i) {
                        const std::uint32_t id = sorted[q][i].index;
                        survivors.ids.push_back(id);
                        survivors.values.push_back(
                            exactDist(f, kern, q, id));
                    }
                    if (keep < kBudget &&
                        sorted[q][keep - 1].value == sorted[q][keep].value)
                        ++straddles;
                    const auto exact = fullSort(survivors);
                    want[q] = asNeighbors(
                        {exact.data(), std::min(k, exact.size())});
                }
                for (unsigned threads : {1u, 4u}) {
                    const RerankResults got =
                        rerank(f.queries, f.vectors, f.idx, f.lists,
                               selectConfig(k, true, refine, threads, be));
                    for (std::size_t q = 0; q < want.size(); ++q) {
                        EXPECT_EQ(got[q], want[q])
                            << "refine=" << refine << " k=" << k
                            << " threads=" << threads << " query " << q;
                    }
                }
            }
        }
        // The tie-heavy table must put ties across some cut, or an
        // ordering that ignores the id would go unnoticed.
        EXPECT_GT(straddles, 0u);
    }
}

} // namespace
