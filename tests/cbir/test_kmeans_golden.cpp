/**
 * @file
 * Golden k-means outputs. Each case hashes every bit kMeans returns
 * (centroids, assignment, inertia, iteration count) with FNV-1a and
 * compares it with a value recorded from the full-scan implementation
 * (every point scored against every centroid, seeding streaming every
 * point per seed). Any pruning of that work must be exact: the same
 * hash on each pinned backend, at 1 and 4 threads, in every build type
 * (the avx2 kernels' d % 8 tails use explicit fma, so an optimizing
 * compiler cannot change their bits). Each case also pins the distance
 * work (KMeansResult::work): how many seeding l2sq and Lloyd scores
 * were computed, of how many offered.
 *
 * The cases cover the shapes where a pruning bound is most likely to
 * be wrong: the perfbench query-exact and openloop-onchip index
 * builds, K <= 33 (every other centroid fits a 32-entry neighbour
 * table), d = 2 (the PQ subspace shape, all SIMD tail), duplicated
 * points with exact distance ties, a 1e4 offset on every coordinate
 * (large rounding error in ||c||^2 - 2 x.c: with the error bound E
 * set to 0 this case fails on both backends), and uniform data in a
 * few dimensions (no cluster structure to prune with).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>

#include "cbir/kmeans.hh"
#include "simd/simd.hh"
#include "workload/dataset.hh"

using namespace reach;
using namespace reach::cbir;

namespace
{

struct Fnv1a
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    word(std::uint64_t v, int bytes)
    {
        for (int b = 0; b < bytes; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

std::uint64_t
hashResult(const KMeansResult &r)
{
    Fnv1a f;
    for (float v : r.centroids.flat())
        f.word(std::bit_cast<std::uint32_t>(v), 4);
    for (std::uint32_t a : r.assignment)
        f.word(a, 4);
    f.word(std::bit_cast<std::uint64_t>(r.inertia), 8);
    f.word(r.iterations, 8);
    return f.h;
}

Matrix
gaussianMixture(std::size_t n, std::size_t dim, std::size_t latent)
{
    workload::DatasetConfig dc;
    dc.numVectors = n;
    dc.dim = dim;
    dc.latentClusters = latent;
    return workload::Dataset(dc).vectors();
}

/** Small integer points, each drawn many times over. */
Matrix
duplicatedLattice()
{
    Matrix m(3000, 3);
    sim::Rng rng(11);
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t d = 0; d < m.cols(); ++d)
            m.at(i, d) = static_cast<float>(rng.nextUInt(4));
    return m;
}

Matrix
offsetMixture()
{
    Matrix m = gaussianMixture(8000, 96, 32);
    for (float &v : m.flat())
        v += 1e4f;
    return m;
}

Matrix
uniformCube()
{
    Matrix m(10000, 6);
    sim::Rng rng(13);
    for (float &v : m.flat())
        v = static_cast<float>(rng.nextDouble());
    return m;
}

/** What one backend must return: the hash and the distance work. */
struct Expected
{
    std::uint64_t hash;
    std::uint64_t seedL2sq;
    std::uint64_t lloydScores;
};

struct GoldenCase
{
    const char *name;
    Matrix (*points)();
    std::size_t clusters;
    std::size_t maxIterations;
    Expected scalar;
    Expected avx2;
};

// The work counts were recorded from the implementation that ran
// each point's bound test and distance one point at a time; batching
// the same tests must not change them.
const GoldenCase kCases[] = {
    {"QueryExactFixture", [] { return gaussianMixture(60'000, 96, 64); },
     192, 6, {0xd3d6a7a423568ed4ull, 2'067'594, 1'077'776},
     {0xfde4f66dd5e061d4ull, 2'067'594, 1'077'776}},
    {"Clusters1024", [] { return gaussianMixture(20'000, 96, 64); }, 1024,
     6, {0x0d7ad9db6ce95760ull, 947'857, 1'909'449},
     {0x704bdde106e6ff2cull, 947'857, 1'909'449}},
    {"TableHoldsAll", [] { return gaussianMixture(5'000, 16, 40); }, 33,
     10, {0x36a4436340247097ull, 98'696, 110'983},
     {0xd91af87b14ddbcb2ull, 98'696, 110'983}},
    {"PqSubspace", [] { return gaussianMixture(6'000, 2, 64); }, 256, 8,
     {0x73a2629c5e5d35d7ull, 70'077, 97'653},
     {0x5b13e3326692c05dull, 70'077, 97'651}},
    {"DuplicateTies", duplicatedLattice, 40, 10,
     {0x5c0567d063cd0605ull, 37'013, 35'650},
     {0xd74e54f0b0627eeeull, 37'013, 35'650}},
    {"Offset1e4", offsetMixture, 64, 6,
     {0xf543d4f216670aa4ull, 139'029, 3'120'000},
     {0xa05c638329686871ull, 139'029, 3'120'000}},
    {"UniformFallback", uniformCube, 300, 6,
     {0x53d242371a1086e7ull, 725'207, 5'133'429},
     {0x86f80f4af9a9f413ull, 725'207, 5'133'427}},
};

void
PrintTo(const GoldenCase &gc, std::ostream *os)
{
    *os << gc.name;
}

class KMeansGolden
    : public ::testing::TestWithParam<std::tuple<GoldenCase, simd::Backend>>
{
};

TEST_P(KMeansGolden, BitIdenticalAtOneAndFourThreads)
{
    const auto &[gc, backend] = GetParam();
    if (!simd::supported(backend))
        GTEST_SKIP() << simd::name(backend) << " not supported here";
    const Matrix points = gc.points();
    const Expected &want =
        backend == simd::Backend::avx2 ? gc.avx2 : gc.scalar;
    const simd::Choice choice = backend == simd::Backend::avx2
                                    ? simd::Choice::avx2
                                    : simd::Choice::scalar;
    for (unsigned threads : {1u, 4u}) {
        KMeansConfig kc;
        kc.clusters = gc.clusters;
        kc.maxIterations = gc.maxIterations;
        kc.parallel = parallel::ParallelConfig{threads, choice};
        const KMeansResult res = kMeans(points, kc);
        const std::uint64_t got = hashResult(res);
        const std::string where = std::string(gc.name) + " on " +
                                  simd::name(backend) + " at " +
                                  std::to_string(threads) + " threads";
        EXPECT_EQ(got, want.hash) << where << ": 0x" << std::hex << got;
        const std::uint64_t n = points.rows();
        EXPECT_EQ(res.work.seedL2sq, want.seedL2sq) << where;
        EXPECT_EQ(res.work.seedL2sqOffered, (gc.clusters - 1) * n) << where;
        EXPECT_EQ(res.work.lloydScores, want.lloydScores) << where;
        EXPECT_EQ(res.work.lloydScoresOffered,
                  res.iterations * n * gc.clusters)
            << where;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, KMeansGolden,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(simd::Backend::scalar,
                                         simd::Backend::avx2)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) + "_" +
               simd::name(std::get<1>(info.param));
    });

} // namespace
