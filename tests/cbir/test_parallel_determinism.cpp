/**
 * @file
 * The determinism contract of the parallel execution layer applied to
 * the CBIR hot paths: every kernel must produce bitwise-identical
 * results at 1 thread and at N threads, because the chunk
 * decomposition never depends on the thread count. The contract is
 * per SIMD backend — the tests below run once under the default
 * (auto-detected) backend and once per explicitly pinned backend.
 */

#include <gtest/gtest.h>

#include "cbir/kmeans.hh"
#include "cbir/linalg.hh"
#include "cbir/rerank.hh"
#include "cbir/shortlist.hh"
#include "sim/rng.hh"
#include "simd/simd.hh"
#include "workload/dataset.hh"

using namespace reach;
using namespace reach::cbir;

namespace
{

constexpr unsigned kThreads = 4;

Matrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    sim::Rng rng(seed);
    Matrix m(rows, cols);
    for (auto &v : m.flat())
        v = static_cast<float>(rng.nextGaussian());
    return m;
}

void
expectSameFloats(std::span<const float> a, std::span<const float> b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << "element " << i;
}

} // namespace

TEST(ParallelDeterminism, GemmNtBitwiseEqualAcrossThreadCounts)
{
    Matrix a = randomMatrix(64, 96, 1);
    Matrix b = randomMatrix(1000, 96, 2);
    Matrix c1(a.rows(), b.rows());
    Matrix cn(a.rows(), b.rows());

    gemmNt(a, b, c1, parallel::ParallelConfig::serial());
    gemmNt(a, b, cn, parallel::ParallelConfig{kThreads});
    expectSameFloats(c1.flat(), cn.flat());
}

TEST(ParallelDeterminism, RerankIdenticalAcrossThreadCounts)
{
    workload::DatasetConfig dc;
    dc.numVectors = 3000;
    dc.dim = 24;
    dc.latentClusters = 10;
    workload::Dataset ds(dc);

    KMeansConfig kc;
    kc.clusters = 16;
    InvertedFileIndex idx(ds.vectors(), kc);
    Matrix queries = ds.makeQueries(20, 0.05, 13);

    auto lists1 = shortlistRetrieve(queries, idx, 5,
                                    parallel::ParallelConfig::serial());
    auto listsN = shortlistRetrieve(queries, idx, 5,
                                    parallel::ParallelConfig{kThreads});
    EXPECT_EQ(lists1, listsN);

    // The fp16 scan shares the thread-count contract: the packed
    // stream and the column blocking are fixed, only the row split
    // changes with the thread count.
    auto h1 = shortlistRetrieve(queries, idx, 5,
                                parallel::ParallelConfig::serial(),
                                ShortlistPrecision::Fp16);
    auto hN = shortlistRetrieve(queries, idx, 5,
                                parallel::ParallelConfig{kThreads},
                                ShortlistPrecision::Fp16);
    EXPECT_EQ(h1, hN);

    RerankConfig rc1;
    rc1.k = 8;
    rc1.parallel = parallel::ParallelConfig::serial();
    RerankConfig rcN = rc1;
    rcN.parallel = parallel::ParallelConfig{kThreads};

    auto r1 = rerank(queries, ds.vectors(), idx, lists1, rc1);
    auto rN = rerank(queries, ds.vectors(), idx, listsN, rcN);
    EXPECT_EQ(r1, rN);

    auto t1 = bruteForce(queries, ds.vectors(), 8,
                         parallel::ParallelConfig::serial());
    auto tN = bruteForce(queries, ds.vectors(), 8,
                         parallel::ParallelConfig{kThreads});
    EXPECT_EQ(t1, tN);
}

TEST(ParallelDeterminism, KMeansIdenticalAcrossThreadCounts)
{
    workload::DatasetConfig dc;
    dc.numVectors = 4000;
    dc.dim = 16;
    dc.latentClusters = 8;
    workload::Dataset ds(dc);

    KMeansConfig c1;
    c1.clusters = 12;
    c1.maxIterations = 6;
    c1.parallel = parallel::ParallelConfig::serial();
    KMeansConfig cN = c1;
    cN.parallel = parallel::ParallelConfig{kThreads};

    KMeansResult r1 = kMeans(ds.vectors(), c1);
    KMeansResult rN = kMeans(ds.vectors(), cN);

    EXPECT_EQ(r1.assignment, rN.assignment);
    EXPECT_EQ(r1.iterations, rN.iterations);
    EXPECT_EQ(r1.inertia, rN.inertia); // bitwise, not just close
    expectSameFloats(r1.centroids.flat(), rN.centroids.flat());
}

namespace
{

/**
 * 1-vs-N-thread bitwise determinism with the SIMD backend pinned:
 * the per-backend refinement of the contract above. Backends that
 * the host CPU cannot run are skipped.
 */
class PinnedBackendDeterminism
    : public ::testing::TestWithParam<simd::Choice>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == simd::Choice::avx2 &&
            !simd::supported(simd::Backend::avx2))
            GTEST_SKIP() << "avx2 not supported on this host";
        serial = parallel::ParallelConfig::serial();
        serial.simd = GetParam();
        threaded = parallel::ParallelConfig{kThreads};
        threaded.simd = GetParam();
    }

    parallel::ParallelConfig serial;
    parallel::ParallelConfig threaded;
};

} // namespace

TEST_P(PinnedBackendDeterminism, GemmNtBitwiseEqual)
{
    Matrix a = randomMatrix(33, 96, 5);
    Matrix b = randomMatrix(500, 96, 6);
    Matrix c1(a.rows(), b.rows());
    Matrix cn(a.rows(), b.rows());
    gemmNt(a, b, c1, serial);
    gemmNt(a, b, cn, threaded);
    expectSameFloats(c1.flat(), cn.flat());
}

TEST_P(PinnedBackendDeterminism, RerankAndBruteForceBitwiseEqual)
{
    workload::DatasetConfig dc;
    dc.numVectors = 2000;
    dc.dim = 24;
    dc.latentClusters = 10;
    workload::Dataset ds(dc);

    KMeansConfig kc;
    kc.clusters = 16;
    kc.parallel = serial;
    InvertedFileIndex idx(ds.vectors(), kc);
    Matrix queries = ds.makeQueries(16, 0.05, 17);

    auto lists = shortlistRetrieve(queries, idx, 5, serial);
    EXPECT_EQ(lists, shortlistRetrieve(queries, idx, 5, threaded));

    EXPECT_EQ(shortlistRetrieve(queries, idx, 5, serial,
                                ShortlistPrecision::Fp16),
              shortlistRetrieve(queries, idx, 5, threaded,
                                ShortlistPrecision::Fp16));

    RerankConfig rc1;
    rc1.k = 8;
    rc1.parallel = serial;
    RerankConfig rcN = rc1;
    rcN.parallel = threaded;
    EXPECT_EQ(rerank(queries, ds.vectors(), idx, lists, rc1),
              rerank(queries, ds.vectors(), idx, lists, rcN));

    EXPECT_EQ(bruteForce(queries, ds.vectors(), 8, serial),
              bruteForce(queries, ds.vectors(), 8, threaded));
}

TEST_P(PinnedBackendDeterminism, KMeansBitwiseEqual)
{
    workload::DatasetConfig dc;
    dc.numVectors = 1500;
    dc.dim = 16;
    dc.latentClusters = 8;
    workload::Dataset ds(dc);

    KMeansConfig c1;
    c1.clusters = 12;
    c1.maxIterations = 5;
    c1.parallel = serial;
    KMeansConfig cN = c1;
    cN.parallel = threaded;

    KMeansResult r1 = kMeans(ds.vectors(), c1);
    KMeansResult rN = kMeans(ds.vectors(), cN);
    EXPECT_EQ(r1.assignment, rN.assignment);
    EXPECT_EQ(r1.inertia, rN.inertia);
    expectSameFloats(r1.centroids.flat(), rN.centroids.flat());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, PinnedBackendDeterminism,
    ::testing::Values(simd::Choice::scalar, simd::Choice::avx2),
    [](const auto &info) {
        return info.param == simd::Choice::scalar ? "scalar" : "avx2";
    });
