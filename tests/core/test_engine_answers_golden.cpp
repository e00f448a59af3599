/**
 * @file
 * Golden engine answers. Each case answers a few hundred 16-query
 * batches through CbirService::query and hashes every returned id
 * and distance bit with FNV-1a. The recorded values come from the
 * engine whose selections were comparator-driven (bounded heaps for
 * the shortlist's top-nprobe and the final top-K, nth_element for the
 * PQ refine cut), so any rewrite of a selection must keep them: the
 * same hash on each pinned backend, at 1 and 4 threads.
 *
 * The cases cover every selection the engine runs: the exact rerank
 * behind an fp32 shortlist (final top-K over exact distances), 4-bit
 * PQ behind an fp16 shortlist with refine 256 (the cut keeps most
 * candidates), refine 10 (the cut keeps few) and refine 0 (top-K over
 * tie-heavy ADC distances), and 8-bit PQ with refine 128.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include "core/cosim.hh"
#include "simd/simd.hh"

using namespace reach;
using namespace reach::core;

namespace
{

constexpr std::size_t kBatches = 200;
constexpr std::size_t kBatchSize = 16;

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

struct EngineCase
{
    const char *name;
    cbir::ShortlistPrecision precision;
    /** PQ code width; 0 = exact rerank. */
    std::uint32_t pqBits;
    std::uint32_t pqM;
    std::uint32_t refine;
    std::uint64_t scalarHash;
    std::uint64_t avx2Hash;
};

void
PrintTo(const EngineCase &ec, std::ostream *os)
{
    *os << ec.name;
}

/**
 * 6000 vectors in 96 clusters, 8 probed: about 500 candidates per
 * query, so refine 256 keeps about half and refine 10 about 2%.
 */
CbirService::Config
serviceConfig(const EngineCase &ec, unsigned threads, simd::Choice be)
{
    CbirService::Config cfg;
    cfg.dataset.numVectors = 6000;
    cfg.dataset.dim = 48;
    cfg.dataset.latentClusters = 24;
    cfg.kmeans.clusters = 96;
    cfg.kmeans.maxIterations = 4;
    cfg.nprobe = 8;
    cfg.topK = 10;
    cfg.shortlistPrecision = ec.precision;
    if (ec.pqBits != 0) {
        cfg.pq.enabled = true;
        cfg.pq.bits = ec.pqBits;
        cfg.pq.m = ec.pqM;
        cfg.pq.refine = ec.refine;
        cfg.pq.trainIterations = 4;
    }
    cfg.parallel = parallel::ParallelConfig{threads, be};
    return cfg;
}

std::uint64_t
hashAnswers(const CbirService &svc)
{
    Fnv1a f;
    for (std::size_t b = 0; b < kBatches; ++b) {
        const cbir::Matrix queries =
            svc.dataset().makeQueries(kBatchSize, 0.3, 1000 + b);
        for (const auto &answer : svc.query(queries)) {
            f.word(answer.size(), 8);
            for (const cbir::Neighbor &nb : answer) {
                f.word(nb.id, 4);
                f.word(std::bit_cast<std::uint32_t>(nb.distSq), 4);
            }
        }
    }
    return f.h;
}

using cbir::ShortlistPrecision;

const EngineCase kCases[] = {
    {"ExactFp32", ShortlistPrecision::Fp32, 0, 0, 0, 0x97d80c578c28fa30ull,
     0xa65323043127c813ull},
    {"Pq4Refine256Fp16", ShortlistPrecision::Fp16, 4, 24, 256,
     0x74355927755dafecull, 0xf2268ebe348fbea0ull},
    {"Pq4Refine10Fp16", ShortlistPrecision::Fp16, 4, 24, 10,
     0x93a7fe43d9b30c6dull, 0xb0d04686584d2b51ull},
    {"Pq4Refine0Fp16", ShortlistPrecision::Fp16, 4, 24, 0,
     0xd6720bb02675359aull, 0xd6720bb02675359aull},
    {"Pq8Refine128Fp32", ShortlistPrecision::Fp32, 8, 12, 128,
     0x499e8ccba6dbef31ull, 0x0aa42242eba8ff82ull},
};

class EngineAnswersGolden
    : public ::testing::TestWithParam<std::tuple<EngineCase, simd::Backend>>
{
};

TEST_P(EngineAnswersGolden, BitIdenticalAtOneAndFourThreads)
{
    const auto &[ec, backend] = GetParam();
    if (!simd::supported(backend))
        GTEST_SKIP() << simd::name(backend) << " not supported here";
    const std::uint64_t want =
        backend == simd::Backend::avx2 ? ec.avx2Hash : ec.scalarHash;
    const simd::Choice choice = backend == simd::Backend::avx2
                                    ? simd::Choice::avx2
                                    : simd::Choice::scalar;
    for (unsigned threads : {1u, 4u}) {
        const CbirService svc(serviceConfig(ec, threads, choice));
        const std::uint64_t got = hashAnswers(svc);
        EXPECT_EQ(got, want) << ec.name << " on " << simd::name(backend)
                             << " at " << threads << " threads: 0x"
                             << std::hex << got;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, EngineAnswersGolden,
    ::testing::Combine(::testing::ValuesIn(kCases),
                       ::testing::Values(simd::Backend::scalar,
                                         simd::Backend::avx2)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param).name) + "_" +
               simd::name(std::get<1>(info.param));
    });

} // namespace
