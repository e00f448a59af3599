/**
 * @file
 * The PQ codec's contract: encode picks nearest subspace centroids,
 * ADC equals the exact distance to the decoded vector, the table
 * build is a backend-independent pure function, the compressed
 * rerank path is bitwise identical across thread counts and (without
 * refine) across backends, and refine covering the budget recovers
 * the exact pipeline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "cbir/index.hh"
#include "cbir/pq.hh"
#include "cbir/rerank.hh"
#include "cbir/shortlist.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workload/dataset.hh"

using namespace reach;
using namespace reach::cbir;

namespace
{

workload::Dataset
pqDataset()
{
    workload::DatasetConfig dc;
    dc.numVectors = 1000;
    dc.dim = 32;
    dc.latentClusters = 12;
    return workload::Dataset(dc);
}

PqConfig
pqConfig(std::uint32_t m, std::uint32_t bits = 8)
{
    PqConfig pc;
    pc.enabled = true;
    pc.m = m;
    pc.bits = bits;
    pc.trainIterations = 4;
    return pc;
}

} // namespace

TEST(PqCodebook, TrainShapes)
{
    auto ds = pqDataset();
    PqCodebook cb = PqCodebook::train(ds.vectors(), pqConfig(8));
    EXPECT_EQ(cb.numSubspaces(), 8u);
    EXPECT_EQ(cb.subDim(), 4u);
    EXPECT_EQ(cb.numCentroids(), 256u);
    EXPECT_EQ(cb.dim(), 32u);
    EXPECT_EQ(cb.codeBytes(), 8u);
    EXPECT_EQ(cb.codeBits(), 8u);
    EXPECT_EQ(cb.lutStride(), simd::kAdcLutStride);
    EXPECT_EQ(cb.lutFloats(), 8 * simd::kAdcLutStride);
}

TEST(PqCodebook, FourBitTrainShapes)
{
    auto ds = pqDataset();
    PqCodebook cb = PqCodebook::train(ds.vectors(), pqConfig(8, 4));
    EXPECT_EQ(cb.numSubspaces(), 8u);
    EXPECT_EQ(cb.numCentroids(), 16u);
    EXPECT_EQ(cb.codeBits(), 4u);
    EXPECT_EQ(cb.codeBytes(), 4u); // two codes per byte
    EXPECT_EQ(cb.lutStride(), simd::kAdc4LutStride);
    EXPECT_EQ(cb.lutFloats(), 8 * simd::kAdc4LutStride);
    EXPECT_EQ(pqCodeBytes(pqConfig(9, 4)), 5u); // odd m rounds up
}

TEST(PqCodebook, FewerVectorsThanCentroidsShrinksCodebooks)
{
    Matrix tiny(10, 8);
    for (std::size_t r = 0; r < 10; ++r)
        tiny.at(r, 0) = static_cast<float>(r);
    PqConfig pc = pqConfig(2);
    PqCodebook cb = PqCodebook::train(tiny, pc);
    EXPECT_EQ(cb.numCentroids(), 10u);
}

TEST(PqConfigValidation, RejectsMalformedConfigs)
{
    PqConfig pc = pqConfig(8);
    pc.m = 0;
    EXPECT_THROW(validatePqConfig(pc, 32), sim::SimFatal);
    pc.m = 7; // does not divide 32
    EXPECT_THROW(validatePqConfig(pc, 32), sim::SimFatal);
    pc.m = 64; // exceeds dim
    EXPECT_THROW(validatePqConfig(pc, 32), sim::SimFatal);
    pc.m = 8;
    pc.trainIterations = 0;
    EXPECT_THROW(validatePqConfig(pc, 32), sim::SimFatal);
    pc.trainIterations = 4;
    validatePqConfig(pc, 32); // well-formed: no throw
    pc.bits = 5;
    EXPECT_THROW(validatePqConfig(pc, 32), sim::SimFatal);
    pc.bits = 4;
    validatePqConfig(pc, 32); // 4-bit mode: no throw
}

TEST(PqCodebook, EncodePicksNearestSubspaceCentroid)
{
    auto ds = pqDataset();
    PqCodebook cb = PqCodebook::train(ds.vectors(), pqConfig(8));
    std::vector<std::uint8_t> code(cb.codeBytes());
    for (std::size_t r = 0; r < 20; ++r) {
        std::span<const float> v = ds.vectors().row(r);
        cb.encode(v, code.data());
        for (std::size_t s = 0; s < cb.numSubspaces(); ++s) {
            std::span<const float> sub{v.data() + s * cb.subDim(),
                                       cb.subDim()};
            float own = l2sq(sub, cb.centroid(s, code[s]));
            for (std::size_t j = 0; j < cb.numCentroids(); ++j) {
                EXPECT_LE(own, l2sq(sub, cb.centroid(s, j)) + 1e-4f)
                    << "row " << r << " subspace " << s;
            }
        }
    }
}

TEST(PqCodebook, AdcEqualsDistanceToDecodedVector)
{
    auto ds = pqDataset();
    PqCodebook cb = PqCodebook::train(ds.vectors(), pqConfig(8));
    cbir::Matrix queries = ds.makeQueries(5, 0.3, 99);

    std::vector<float> lut(cb.lutFloats());
    std::vector<std::uint8_t> code(cb.codeBytes());
    std::vector<float> decoded(cb.dim());
    const auto &k = simd::kernels(simd::Choice::autoDetect);

    for (std::size_t q = 0; q < queries.rows(); ++q) {
        cb.adcTable(queries.row(q), lut.data());
        for (std::size_t r = 0; r < 50; ++r) {
            cb.encode(ds.vectors().row(r), code.data());
            cb.decode(code.data(), decoded);
            float adc = -1.0f;
            k.adcBatch(lut.data(), cb.lutStride(), code.data(), 1,
                       cb.numSubspaces(), &adc);
            float ref = l2sq(queries.row(q),
                             std::span<const float>(decoded));
            EXPECT_NEAR(adc, ref, 1e-4f * (1.0f + ref))
                << "query " << q << " row " << r;
        }
    }
}

TEST(PqCodebook, AdcTableRowsMatchSubspaceL2AndPadWithZeros)
{
    auto ds = pqDataset();
    PqCodebook cb = PqCodebook::train(ds.vectors(), pqConfig(8));
    cbir::Matrix queries = ds.makeQueries(1, 0.3, 7);
    std::span<const float> q = queries.row(0);

    std::vector<float> lut(cb.lutFloats());
    cb.adcTable(q, lut.data());
    // The build is a fixed function of (query, codebook): a second
    // build reproduces the exact bits regardless of backend choice.
    std::vector<float> again(lut.size(), -1.0f);
    cb.adcTable(q, again.data());
    EXPECT_EQ(lut, again);

    for (std::size_t s = 0; s < cb.numSubspaces(); ++s) {
        for (std::size_t j = 0; j < cb.numCentroids(); ++j) {
            float ref = l2sq(
                std::span<const float>(q.data() + s * cb.subDim(),
                                       cb.subDim()),
                cb.centroid(s, j));
            EXPECT_NEAR(lut[s * simd::kAdcLutStride + j], ref,
                        1e-5f * (1.0f + ref))
                << "s=" << s << " j=" << j;
        }
        // Padding past the trained centroids stays zero.
        for (std::size_t j = cb.numCentroids();
             j < simd::kAdcLutStride; ++j)
            EXPECT_EQ(lut[s * simd::kAdcLutStride + j], 0.0f);
    }
}

TEST(PqCodebook, EncodeAllMatchesEncodeAndIsThreadInvariant)
{
    auto ds = pqDataset();
    PqCodebook cb = PqCodebook::train(ds.vectors(), pqConfig(8));

    parallel::ParallelConfig serial = parallel::ParallelConfig::serial();
    parallel::ParallelConfig four;
    four.threads = 4;
    four.simd = serial.simd;
    auto codes1 = cb.encodeAll(ds.vectors(), serial);
    auto codes4 = cb.encodeAll(ds.vectors(), four);
    EXPECT_EQ(codes1, codes4);

    std::vector<std::uint8_t> one(cb.codeBytes());
    for (std::size_t r : {std::size_t(0), std::size_t(421)}) {
        cb.encode(ds.vectors().row(r), one.data());
        for (std::size_t s = 0; s < cb.codeBytes(); ++s)
            EXPECT_EQ(one[s], codes1[r * cb.codeBytes() + s]);
    }
}

TEST(PqCodebook, ShapeMismatchesPanic)
{
    auto ds = pqDataset();
    PqCodebook cb = PqCodebook::train(ds.vectors(), pqConfig(8));
    std::vector<float> wrong(cb.dim() + 1);
    std::vector<std::uint8_t> code(cb.codeBytes());
    std::vector<float> lut(cb.lutFloats());
    EXPECT_THROW(cb.encode(wrong, code.data()), sim::SimPanic);
    EXPECT_THROW(cb.adcTable(wrong, lut.data()), sim::SimPanic);
    std::vector<float> out(cb.dim() - 1);
    EXPECT_THROW(cb.decode(code.data(), out), sim::SimPanic);
}

namespace
{

/** A small dataset whose dim admits an odd subspace count. */
workload::Dataset
oddDataset()
{
    workload::DatasetConfig dc;
    dc.numVectors = 400;
    dc.dim = 12;
    dc.latentClusters = 6;
    return workload::Dataset(dc);
}

} // namespace

TEST(PqCodebook, FourBitEncodeDecodeRoundtripAtOddM)
{
    auto ds = oddDataset();
    PqCodebook cb = PqCodebook::train(ds.vectors(), pqConfig(3, 4));
    ASSERT_EQ(cb.numSubspaces(), 3u);
    ASSERT_EQ(cb.codeBytes(), 2u);

    std::vector<std::uint8_t> code(cb.codeBytes());
    std::vector<float> decoded(cb.dim());
    for (std::size_t r = 0; r < 40; ++r) {
        cb.encode(ds.vectors().row(r), code.data());
        // Odd m: the last byte's phantom high nibble stays zero — the
        // pack/shuffle contract the 4-bit kernels rely on.
        EXPECT_EQ(code.back() >> 4, 0);
        cb.decode(code.data(), decoded);
        for (std::size_t s = 0; s < cb.numSubspaces(); ++s) {
            const std::uint8_t j = s % 2 == 0 ? code[s / 2] & 0x0F
                                              : code[s / 2] >> 4;
            ASSERT_LT(j, cb.numCentroids());
            std::span<const float> cent = cb.centroid(s, j);
            for (std::size_t d = 0; d < cb.subDim(); ++d)
                EXPECT_EQ(decoded[s * cb.subDim() + d], cent[d])
                    << "row " << r << " s=" << s;
        }
    }
}

TEST(PqCodebook, FourBitEncodeAllIsThreadInvariant)
{
    auto ds = pqDataset();
    PqCodebook cb = PqCodebook::train(ds.vectors(), pqConfig(8, 4));

    parallel::ParallelConfig serial = parallel::ParallelConfig::serial();
    parallel::ParallelConfig four;
    four.threads = 4;
    four.simd = serial.simd;
    auto codes1 = cb.encodeAll(ds.vectors(), serial);
    auto codes4 = cb.encodeAll(ds.vectors(), four);
    EXPECT_EQ(codes1.size(), ds.size() * cb.codeBytes());
    EXPECT_EQ(codes1, codes4);
}

/**
 * Satellite regression for the LUT padding contract: the 4-bit table
 * is exactly m x 16 — allocated at that size so any kernel read past
 * a row's 16 entries is out of bounds — and rows pad entries beyond
 * the trained centroids with 255 (saturated-far), so a phantom code
 * can never rank as a near neighbour.
 */
TEST(PqCodebook, FourBitAdcTableIsExactlySixteenWide)
{
    Matrix tiny(10, 8); // 10 vectors < 16 -> ksub shrinks to 10
    sim::Rng rng(7);
    for (std::size_t r = 0; r < tiny.rows(); ++r)
        for (std::size_t d = 0; d < tiny.cols(); ++d)
            tiny.at(r, d) = static_cast<float>(rng.nextGaussian());
    PqCodebook cb = PqCodebook::train(tiny, pqConfig(2, 4));
    ASSERT_EQ(cb.numCentroids(), 10u);
    ASSERT_EQ(cb.lutStride(), simd::kAdc4LutStride);

    std::vector<std::uint8_t> lut(cb.lutFloats());
    ASSERT_EQ(lut.size(), cb.numSubspaces() * simd::kAdc4LutStride);
    std::vector<float> query(cb.dim(), 0.25f), rows(cb.lutFloats());
    cb.adcTable4(query, lut.data(), rows);
    std::span<float> short_rows(rows.data(), rows.size() - 1);
    EXPECT_THROW(cb.adcTable4(query, lut.data(), short_rows),
                 sim::SimPanic);
    for (std::size_t s = 0; s < cb.numSubspaces(); ++s) {
        for (std::size_t j = cb.numCentroids();
             j < simd::kAdc4LutStride; ++j)
            EXPECT_EQ(lut[s * simd::kAdc4LutStride + j], 255)
                << "s=" << s << " j=" << j;
    }
}

TEST(PqCodebook, FourBitAdcWithinQuantizationBoundOfExact)
{
    auto ds = pqDataset();
    PqCodebook cb = PqCodebook::train(ds.vectors(), pqConfig(8, 4));
    cbir::Matrix queries = ds.makeQueries(4, 0.3, 17);
    const auto &k = simd::kernels(simd::Choice::autoDetect);

    const std::size_t n = 64, m = cb.numSubspaces();
    std::vector<std::uint8_t> codes(n * cb.codeBytes());
    for (std::size_t r = 0; r < n; ++r)
        cb.encode(ds.vectors().row(r), codes.data() + r * cb.codeBytes());
    std::vector<std::uint8_t> blocks(simd::adc4PackedBytes(n, m));
    simd::adc4Pack(codes.data(), n, m, blocks.data());

    std::vector<std::uint8_t> lut4(cb.lutFloats());
    std::vector<float> got(n), decoded(cb.dim()), rows(cb.lutFloats());
    for (std::size_t q = 0; q < queries.rows(); ++q) {
        auto qp = cb.adcTable4(queries.row(q), lut4.data(), rows);
        k.adcBatch4(lut4.data(), blocks.data(), n, m, qp.scale,
                    qp.bias, got.data());
        // Each quantized entry sits within scale/2 of the true
        // subspace distance, so the sum is within m*scale/2 (plus
        // fp noise) of the distance to the decoded vector.
        const float tol = 0.5f * static_cast<float>(m) * qp.scale +
                          1e-3f;
        for (std::size_t r = 0; r < n; ++r) {
            cb.decode(codes.data() + r * cb.codeBytes(), decoded);
            float ref = l2sq(queries.row(q),
                             std::span<const float>(decoded));
            EXPECT_NEAR(got[r], ref, tol) << "query " << q
                                          << " row " << r;
        }
    }
}

TEST(InvertedFileIndexPq, ClusterCodesMatchMemberEncodings)
{
    auto ds = pqDataset();
    KMeansConfig kc;
    kc.clusters = 16;
    InvertedFileIndex idx(ds.vectors(), kc);
    EXPECT_FALSE(idx.hasPq());
    EXPECT_TRUE(idx.clusterCodes(0).empty());

    idx.buildPq(ds.vectors(), pqConfig(8));
    ASSERT_TRUE(idx.hasPq());
    const PqCodebook &cb = idx.pqCodebook();
    auto codes = cb.encodeAll(ds.vectors());

    for (std::size_t c = 0; c < idx.numClusters(); ++c) {
        const auto &members = idx.cluster(c);
        auto block = idx.clusterCodes(c);
        ASSERT_EQ(block.size(), members.size() * cb.codeBytes());
        for (std::size_t i = 0; i < members.size(); ++i) {
            for (std::size_t s = 0; s < cb.codeBytes(); ++s) {
                EXPECT_EQ(block[i * cb.codeBytes() + s],
                          codes[members[i] * cb.codeBytes() + s])
                    << "cluster " << c << " member " << i;
            }
        }
    }
}

TEST(InvertedFileIndexPq, FourBitAttachBuildsPackedBlocks)
{
    auto ds = pqDataset();
    KMeansConfig kc;
    kc.clusters = 16;
    InvertedFileIndex idx(ds.vectors(), kc);
    idx.buildPq(ds.vectors(), pqConfig(8, 4));
    ASSERT_TRUE(idx.hasPq());
    const PqCodebook &cb = idx.pqCodebook();
    const std::size_t m = cb.numSubspaces();

    for (std::size_t c = 0; c < idx.numClusters(); ++c) {
        const std::size_t n = idx.cluster(c).size();
        auto codes = idx.clusterCodes(c);
        auto blocks = idx.clusterPackedCodes(c);
        ASSERT_EQ(blocks.size(), simd::adc4PackedBytes(n, m));
        // The block layout is the transpose adc4Pack defines; rebuild
        // it from the per-member codes and compare bytes.
        std::vector<std::uint8_t> want(blocks.size());
        simd::adc4Pack(codes.data(), n, m, want.data());
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(blocks[i], want[i]) << "cluster " << c
                                          << " byte " << i;
    }
}

TEST(InvertedFileIndexPq, EightBitIndexHasNoPackedBlocks)
{
    auto ds = pqDataset();
    KMeansConfig kc;
    kc.clusters = 16;
    InvertedFileIndex idx(ds.vectors(), kc);
    idx.buildPq(ds.vectors(), pqConfig(8));
    EXPECT_TRUE(idx.clusterPackedCodes(0).empty());
}

TEST(InvertedFileIndexPq, AttachRejectsWrongSizes)
{
    auto ds = pqDataset();
    KMeansConfig kc;
    kc.clusters = 8;
    InvertedFileIndex idx(ds.vectors(), kc);
    EXPECT_THROW(idx.pqCodebook(), sim::SimPanic);

    auto cb = std::make_shared<const PqCodebook>(
        PqCodebook::train(ds.vectors(), pqConfig(8)));
    std::vector<std::uint8_t> short_codes(ds.size() * 8 - 1);
    EXPECT_THROW(idx.attachPq(cb, short_codes), sim::SimPanic);
    EXPECT_THROW(idx.attachPq(nullptr, short_codes), sim::SimPanic);

    Matrix half(ds.size() / 2, ds.vectors().cols());
    EXPECT_THROW(idx.buildPq(half, pqConfig(8)), sim::SimPanic);
}

namespace
{

struct PqRerankFixture
{
    workload::Dataset ds = pqDataset();
    InvertedFileIndex idx;
    cbir::Matrix queries;
    ShortLists lists;

    explicit PqRerankFixture(std::uint32_t bits = 8,
                             std::uint32_t m = 8)
        : idx(ds.vectors(),
              [] {
                  KMeansConfig kc;
                  kc.clusters = 20;
                  return kc;
              }()),
          queries(ds.makeQueries(10, 0.2, 31))
    {
        idx.buildPq(ds.vectors(), pqConfig(m, bits));
        lists = shortlistRetrieve(queries, idx, 6);
    }
};

/**
 * Candidate budget smaller than the first probed cluster: the scan
 * must truncate the very first block rather than wrap the unsigned
 * remaining-budget subtraction, so every result is one of the first
 * maxCandidates members of that cluster.
 */
void
expectBudgetTruncatesFirstCluster(std::uint32_t bits)
{
    PqRerankFixture f(bits);
    for (std::uint32_t refine : {0u, 32u}) {
        RerankConfig rc;
        rc.k = 5;
        rc.maxCandidates = 3; // clusters hold ~50 vectors each
        rc.usePq = true;
        rc.pqRefine = refine;
        auto got = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                          rc);
        ASSERT_EQ(got.size(), f.lists.size());
        for (std::size_t q = 0; q < got.size(); ++q) {
            const auto &first = f.idx.cluster(f.lists[q].front());
            ASSERT_GT(first.size(), rc.maxCandidates);
            EXPECT_LE(got[q].size(), rc.k);
            EXPECT_EQ(got[q].size(), rc.maxCandidates);
            for (const Neighbor &nb : got[q]) {
                EXPECT_NE(std::find(first.begin(),
                                    first.begin() + rc.maxCandidates,
                                    nb.id),
                          first.begin() + rc.maxCandidates)
                    << "query " << q << " id " << nb.id
                    << " refine=" << refine;
            }
        }
    }
}

/**
 * maxCandidates = 0 is unlimited: with K past the shortlist's size,
 * every member of every probed cluster comes back scored, and an
 * exact refine over the unlimited set equals the same refine under
 * a budget that just covers the shortlist.
 */
void
expectUnlimitedBudgetScoresWholeShortlist(std::uint32_t bits)
{
    PqRerankFixture f(bits);
    RerankConfig rc;
    rc.k = f.ds.size();
    rc.maxCandidates = 0;
    rc.usePq = true;
    rc.pqRefine = 0;
    auto all = rerank(f.queries, f.ds.vectors(), f.idx, f.lists, rc);
    ASSERT_EQ(all.size(), f.lists.size());
    std::size_t widest = 0;
    for (std::size_t q = 0; q < all.size(); ++q) {
        std::vector<std::uint32_t> want;
        for (std::uint32_t c : f.lists[q]) {
            const auto &members = f.idx.cluster(c);
            want.insert(want.end(), members.begin(), members.end());
        }
        std::vector<std::uint32_t> got;
        for (const Neighbor &nb : all[q])
            got.push_back(nb.id);
        std::sort(want.begin(), want.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << "query " << q;
        widest = std::max(widest, want.size());
    }

    rc.k = 10;
    rc.pqRefine = 24;
    auto unlimited =
        rerank(f.queries, f.ds.vectors(), f.idx, f.lists, rc);
    rc.maxCandidates = widest;
    auto covering =
        rerank(f.queries, f.ds.vectors(), f.idx, f.lists, rc);
    for (std::size_t q = 0; q < unlimited.size(); ++q)
        EXPECT_EQ(unlimited[q], covering[q]) << "query " << q;
}

} // namespace

TEST(RerankPq, PanicsWithoutCodes)
{
    auto ds = pqDataset();
    KMeansConfig kc;
    kc.clusters = 20;
    InvertedFileIndex bare(ds.vectors(), kc);
    cbir::Matrix queries = ds.makeQueries(4, 0.2, 31);
    auto lists = shortlistRetrieve(queries, bare, 6);
    RerankConfig rc;
    rc.usePq = true;
    EXPECT_THROW(rerank(queries, ds.vectors(), bare, lists, rc),
                 sim::SimPanic);
}

TEST(RerankPq, RefineCoveringTheBudgetRecoversTheExactPipeline)
{
    PqRerankFixture f;
    RerankConfig exact;
    exact.k = 10;
    exact.maxCandidates = 300;
    auto want = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                       exact);

    // Refine >= the candidate budget re-scores every candidate with
    // exact distances: identical neighbours, bitwise.
    RerankConfig pq = exact;
    pq.usePq = true;
    pq.pqRefine = 300;
    auto got = rerank(f.queries, f.ds.vectors(), f.idx, f.lists, pq);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < want.size(); ++q)
        EXPECT_EQ(got[q], want[q]) << "query " << q;
}

TEST(RerankPq, RecallAgainstTheExactPipeline)
{
    PqRerankFixture f;
    RerankConfig exact;
    exact.k = 10;
    exact.maxCandidates = 4096;
    auto want = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                       exact);

    RerankConfig pq = exact;
    pq.usePq = true;
    pq.pqRefine = 0;
    double pure = recallAtK(
        rerank(f.queries, f.ds.vectors(), f.idx, f.lists, pq), want,
        10);
    pq.pqRefine = 64;
    double refined = recallAtK(
        rerank(f.queries, f.ds.vectors(), f.idx, f.lists, pq), want,
        10);

    // Pure ADC ordering is approximate but far from random; the
    // two-stage refine pass must recover near-exact recall.
    EXPECT_GT(pure, 0.5);
    EXPECT_GE(refined, pure);
    EXPECT_GE(refined, 0.9);
}

TEST(RerankPq, BackendsAgreeBitwiseWithoutRefine)
{
    if (!simd::supported(simd::Backend::avx2))
        GTEST_SKIP() << "avx2 not supported on this host";
    // The ADC table build is backend-independent and adcBatch is
    // bitwise cross-backend, so a pure-ADC rerank (no exact refine)
    // returns identical bits on scalar and avx2 — a stronger contract
    // than the float pipeline's tolerance-based agreement.
    PqRerankFixture f;
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    rc.usePq = true;
    rc.pqRefine = 0;
    rc.parallel = parallel::ParallelConfig::serial();
    rc.parallel.simd = simd::Choice::scalar;
    auto scalar = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                         rc);
    rc.parallel.simd = simd::Choice::avx2;
    auto avx2 = rerank(f.queries, f.ds.vectors(), f.idx, f.lists, rc);
    ASSERT_EQ(scalar.size(), avx2.size());
    for (std::size_t q = 0; q < scalar.size(); ++q)
        EXPECT_EQ(scalar[q], avx2[q]) << "query " << q;
}

TEST(RerankPq, ThreadCountDoesNotChangeResults)
{
    PqRerankFixture f;
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    rc.usePq = true;
    rc.pqRefine = 32;
    rc.parallel = parallel::ParallelConfig::serial();
    auto serial = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                         rc);
    rc.parallel.threads = 4;
    auto threaded = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                           rc);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t q = 0; q < serial.size(); ++q)
        EXPECT_EQ(serial[q], threaded[q]) << "query " << q;
}

TEST(RerankPq, BudgetSmallerThanFirstClusterTruncatesExactly)
{
    expectBudgetTruncatesFirstCluster(8);
}

TEST(RerankPq, UnlimitedBudgetScoresWholeShortlist)
{
    expectUnlimitedBudgetScoresWholeShortlist(8);
}

/**
 * The 4-bit mirror of the suite above: the shuffle-ADC rerank path
 * keeps every reproducibility contract of the 8-bit gather path.
 */

TEST(RerankPq4, RefineCoveringTheBudgetRecoversTheExactPipeline)
{
    PqRerankFixture f(4);
    RerankConfig exact;
    exact.k = 10;
    exact.maxCandidates = 300;
    auto want = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                       exact);

    RerankConfig pq = exact;
    pq.usePq = true;
    pq.pqRefine = 300;
    auto got = rerank(f.queries, f.ds.vectors(), f.idx, f.lists, pq);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < want.size(); ++q)
        EXPECT_EQ(got[q], want[q]) << "query " << q;
}

TEST(RerankPq4, RecallAgainstTheExactPipeline)
{
    // M=16 x 4 bits matches the 8-bit test's 64-bit-per-vector code
    // budget; 16-centroid subspaces are coarser per lookup, so the
    // bar for the pure-ADC ordering is lower, but refine must still
    // recover near-exact recall.
    PqRerankFixture f(4, 16);
    RerankConfig exact;
    exact.k = 10;
    exact.maxCandidates = 4096;
    auto want = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                       exact);

    RerankConfig pq = exact;
    pq.usePq = true;
    pq.pqRefine = 0;
    double pure = recallAtK(
        rerank(f.queries, f.ds.vectors(), f.idx, f.lists, pq), want,
        10);
    pq.pqRefine = 96;
    double refined = recallAtK(
        rerank(f.queries, f.ds.vectors(), f.idx, f.lists, pq), want,
        10);

    // 16 centroids per subspace order far more loosely than 256
    // (pure ADC only pre-sorts), so the exact-refine pass carries
    // more of the recall: a deeper budget must recover near-exact
    // results.
    EXPECT_GT(pure, 0.1);
    EXPECT_GE(refined, pure);
    EXPECT_GE(refined, 0.9);
}

TEST(RerankPq4, BackendsAgreeBitwiseWithoutRefine)
{
    if (!simd::supported(simd::Backend::avx2))
        GTEST_SKIP() << "avx2 not supported on this host";
    // The quantized table build is a fixed scalar function and
    // adcBatch4 is exact-integer + one fma on both backends, so a
    // pure-ADC 4-bit rerank returns identical bits on scalar and
    // avx2.
    PqRerankFixture f(4);
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    rc.usePq = true;
    rc.pqRefine = 0;
    rc.parallel = parallel::ParallelConfig::serial();
    rc.parallel.simd = simd::Choice::scalar;
    auto scalar = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                         rc);
    rc.parallel.simd = simd::Choice::avx2;
    auto avx2 = rerank(f.queries, f.ds.vectors(), f.idx, f.lists, rc);
    ASSERT_EQ(scalar.size(), avx2.size());
    for (std::size_t q = 0; q < scalar.size(); ++q)
        EXPECT_EQ(scalar[q], avx2[q]) << "query " << q;
}

TEST(RerankPq4, ThreadCountDoesNotChangeResults)
{
    PqRerankFixture f(4);
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    rc.usePq = true;
    rc.pqRefine = 32;
    rc.parallel = parallel::ParallelConfig::serial();
    auto serial = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                         rc);
    rc.parallel.threads = 4;
    auto threaded = rerank(f.queries, f.ds.vectors(), f.idx, f.lists,
                           rc);
    ASSERT_EQ(serial.size(), threaded.size());
    for (std::size_t q = 0; q < serial.size(); ++q)
        EXPECT_EQ(serial[q], threaded[q]) << "query " << q;
}

TEST(RerankPq4, BudgetSmallerThanFirstClusterTruncatesExactly)
{
    expectBudgetTruncatesFirstCluster(4);
}

TEST(RerankPq4, UnlimitedBudgetScoresWholeShortlist)
{
    expectUnlimitedBudgetScoresWholeShortlist(4);
}
