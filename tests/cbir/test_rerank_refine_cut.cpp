/**
 * @file
 * The PQ rerank's exact-refine cut against a test-local reference.
 * The reference scores every candidate with ADC, fully sorts them by
 * (distance, id), keeps the first max(k, R), scores those exactly
 * and fully sorts the result. rerank must return the same bits for
 * tie-heavy 4-bit and 8-bit tables, for candidate counts below, at
 * and above R, for R < k, for unlimited and capped budgets, and at 1
 * and 4 threads on every available backend.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "cbir/index.hh"
#include "cbir/pq.hh"
#include "cbir/rerank.hh"
#include "cbir/shortlist.hh"
#include "workload/dataset.hh"

using namespace reach;
using namespace reach::cbir;

namespace
{

/** How a case's per-query candidate count compares with max(k, R). */
enum class Fill { Below, Equal, Above };

struct CutCase
{
    std::string name;
    std::uint32_t bits;
    std::uint32_t m;
    std::size_t k;
    std::size_t refine;
    std::size_t maxCandidates;
    Fill fill;
};

/** Name the case: gtest would otherwise print its bytes, pointers too. */
void
PrintTo(const CutCase &c, std::ostream *os)
{
    *os << c.name;
}

bool
closer(const Neighbor &a, const Neighbor &b)
{
    if (a.distSq != b.distSq)
        return a.distSq < b.distSq;
    return a.id < b.id;
}

/**
 * Every candidate of one query with its ADC distance, in the scan's
 * order: the budgeted prefix of each probed cluster, scored by the
 * same table build and kernel the library uses.
 */
std::vector<Neighbor>
adcCandidates(const simd::Kernels &kern, const InvertedFileIndex &idx,
              std::span<const float> query,
              const std::vector<std::uint32_t> &clusters,
              std::size_t max_candidates)
{
    const PqCodebook &cb = idx.pqCodebook();
    const std::size_t m = cb.numSubspaces();
    std::vector<float> lut(cb.lutFloats());
    std::vector<std::uint8_t> lut4(cb.lutFloats());
    PqCodebook::AdcQuantParams qp;
    if (cb.codeBits() == 4)
        qp = cb.adcTable4(query, lut4.data(), lut);
    else
        cb.adcTable(query, lut.data());

    std::vector<Neighbor> out;
    std::vector<float> dist;
    for (std::uint32_t c : clusters) {
        if (max_candidates && out.size() >= max_candidates)
            break;
        const auto &members = idx.cluster(c);
        std::size_t take = members.size();
        if (max_candidates)
            take = std::min(take, max_candidates - out.size());
        dist.resize(take);
        if (cb.codeBits() == 4) {
            kern.adcBatch4(lut4.data(), idx.clusterPackedCodes(c).data(),
                           take, m, qp.scale, qp.bias, dist.data());
        } else {
            kern.adcBatch(lut.data(), cb.lutStride(),
                          idx.clusterCodes(c).data(), take, m,
                          dist.data());
        }
        for (std::size_t i = 0; i < take; ++i)
            out.push_back({members[i], dist[i]});
    }
    return out;
}

struct CutFixture
{
    workload::Dataset ds;
    InvertedFileIndex idx;
    Matrix queries;
    ShortLists lists;

    CutFixture(std::uint32_t bits, std::uint32_t m)
        : ds([] {
              workload::DatasetConfig dc;
              dc.numVectors = 1000;
              dc.dim = 32;
              dc.latentClusters = 12;
              return dc;
          }()),
          idx(ds.vectors(),
              [] {
                  KMeansConfig kc;
                  kc.clusters = 20;
                  return kc;
              }()),
          queries(ds.makeQueries(24, 0.2, 41))
    {
        PqConfig pc;
        pc.enabled = true;
        pc.m = m;
        pc.bits = bits;
        pc.trainIterations = 4;
        idx.buildPq(ds.vectors(), pc);
        lists = shortlistRetrieve(queries, idx, 6);
    }
};

class RerankRefineCut : public ::testing::TestWithParam<CutCase>
{
};

TEST_P(RerankRefineCut, MatchesFullSortReference)
{
    const CutCase &c = GetParam();
    CutFixture f(c.bits, c.m);
    const std::size_t keep = std::max(c.k, c.refine);
    const std::vector<float> &norms = f.idx.vectorNormsSq();
    ASSERT_EQ(norms.size(), f.ds.size());
    const std::size_t d = f.ds.vectors().cols();

    std::vector<simd::Choice> backends = {simd::Choice::scalar};
    if (simd::supported(simd::Backend::avx2))
        backends.push_back(simd::Choice::avx2);

    for (simd::Choice be : backends) {
        const simd::Kernels &kern = simd::kernels(be);
        RerankResults want(f.queries.rows());
        std::size_t boundary_ties = 0;
        for (std::size_t q = 0; q < f.queries.rows(); ++q) {
            std::vector<Neighbor> cands =
                adcCandidates(kern, f.idx, f.queries.row(q), f.lists[q],
                              c.maxCandidates);
            const std::size_t n = cands.size();
            switch (c.fill) {
            case Fill::Below:
                ASSERT_LT(n, keep) << "query " << q;
                break;
            case Fill::Equal:
                ASSERT_EQ(n, keep) << "query " << q;
                break;
            case Fill::Above:
                ASSERT_GT(n, keep) << "query " << q;
                break;
            }
            std::sort(cands.begin(), cands.end(), closer);
            if (n > keep &&
                cands[keep - 1].distSq == cands[keep].distSq)
                ++boundary_ties;
            cands.resize(std::min(n, keep));

            std::span<const float> qv = f.queries.row(q);
            const float qn = kern.normSq(qv.data(), d);
            for (Neighbor &nb : cands) {
                const float dot = kern.dot(
                    qv.data(), f.ds.vectors().row(nb.id).data(), d);
                nb.distSq =
                    std::max(qn + norms[nb.id] - 2.0f * dot, 0.0f);
            }
            std::sort(cands.begin(), cands.end(), closer);
            cands.resize(std::min(cands.size(), c.k));
            want[q] = std::move(cands);
        }
        // A tie-heavy table must put ties across the cut, or an
        // ordering that ignores the id would go unnoticed.
        if (c.fill == Fill::Above && c.m <= 2) {
            EXPECT_GT(boundary_ties, 0u);
        }

        for (unsigned threads : {1u, 4u}) {
            RerankConfig rc;
            rc.k = c.k;
            rc.maxCandidates = c.maxCandidates;
            rc.usePq = true;
            rc.pqRefine = c.refine;
            rc.parallel.threads = threads;
            rc.parallel.simd = be;
            RerankResults got = rerank(f.queries, f.ds.vectors(), f.idx,
                                       f.lists, rc);
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t q = 0; q < want.size(); ++q) {
                EXPECT_EQ(got[q], want[q])
                    << "query " << q << " threads " << threads
                    << " backend " << static_cast<int>(be);
            }
        }
    }
}

// 1000 vectors in 20 clusters, 6 probed: about 290 candidates per
// query, never fewer than 200. m = 2 at 4 bits sums two u8 entries
// (0..510) and m = 1 at 8 bits gives about four vectors per code, so
// both tables tie heavily; m = 8 at 8 bits is the ordinary case.
// The "SmallBudget" cases keep at most 12 of them; the "AllKept" and
// "RBelowK" cases return every survivor, so a wrong tie at the cut
// shows.
INSTANTIATE_TEST_SUITE_P(
    Cases, RerankRefineCut,
    ::testing::Values(
        CutCase{"Pq4TiesAboveR", 4, 2, 10, 64, 0, Fill::Above},
        CutCase{"Pq4TiesAboveRCapped", 4, 2, 10, 64, 4096, Fill::Above},
        CutCase{"Pq4TiesAboveRAllKept", 4, 2, 64, 64, 0, Fill::Above},
        CutCase{"Pq4TiesAboveRSmallBudget", 4, 2, 10, 12, 4096, Fill::Above},
        CutCase{"Pq4TiesEqualR", 4, 2, 10, 64, 64, Fill::Equal},
        CutCase{"Pq4TiesBelowR", 4, 2, 10, 64, 40, Fill::Below},
        CutCase{"Pq4TiesBelowRUnlimited", 4, 2, 10, 512, 0, Fill::Below},
        CutCase{"Pq4TiesRBelowKSmallBudget", 4, 2, 10, 4, 0, Fill::Above},
        CutCase{"Pq4TiesRBelowK", 4, 2, 32, 8, 0, Fill::Above},
        CutCase{"Pq8TiesAboveR", 8, 1, 10, 64, 0, Fill::Above},
        CutCase{"Pq8TiesAboveRCapped", 8, 1, 10, 64, 4096, Fill::Above},
        CutCase{"Pq8TiesAboveRAllKept", 8, 1, 64, 64, 4096, Fill::Above},
        CutCase{"Pq8TiesEqualR", 8, 1, 10, 64, 64, Fill::Equal},
        CutCase{"Pq8TiesBelowR", 8, 1, 10, 64, 40, Fill::Below},
        CutCase{"Pq8TiesRBelowKSmallBudget", 8, 1, 10, 4, 4096, Fill::Above},
        CutCase{"Pq8TiesRBelowK", 8, 1, 32, 8, 0, Fill::Above},
        CutCase{"Pq8AboveR", 8, 8, 10, 64, 0, Fill::Above},
        CutCase{"Pq8RBelowK", 8, 8, 32, 8, 4096, Fill::Above}),
    [](const ::testing::TestParamInfo<CutCase> &info) {
        return info.param.name;
    });

} // namespace
