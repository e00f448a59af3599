/**
 * @file
 * google-benchmark microbenchmarks of the functional CBIR kernels:
 * the GEMM, partial sort and distance primitives the FPGA engines
 * implement, plus k-means; the discrete-event queue
 * hot path (schedule/run/deschedule mix); the thread pool's wake
 * latency; and the parallel figure-sweep runner. These are host-CPU numbers (sanity and
 * regression tracking), not simulated-FPGA numbers.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <thread>

#include "cbir/kmeans.hh"
#include "cbir/linalg.hh"
#include "cbir/pq.hh"
#include "cbir/rerank.hh"
#include "cbir/shortlist.hh"
#include "common.hh"
#include "core/cosim.hh"
#include "parallel/parallel.hh"
#include "parallel/thread_pool.hh"
#include "service/query_service.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "simd/aligned.hh"
#include "simd/half.hh"
#include "simd/simd.hh"
#include "workload/dataset.hh"

using namespace reach;
using namespace reach::cbir;

namespace
{

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
BM_GemmNt(benchmark::State &state)
{
    std::size_t batch = 16, dim = 96;
    std::size_t centroids = static_cast<std::size_t>(state.range(0));
    Matrix q = randomMatrix(batch, dim, 1);
    Matrix c = randomMatrix(centroids, dim, 2);
    Matrix out(batch, centroids);
    for (auto _ : state) {
        gemmNt(q, c, out);
        benchmark::DoNotOptimize(out.flat().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * batch *
        centroids * dim);
}
BENCHMARK(BM_GemmNt)->Arg(250)->Arg(1000)->Arg(4000);

void
BM_L2Distance(benchmark::State &state)
{
    std::size_t dim = static_cast<std::size_t>(state.range(0));
    Matrix a = randomMatrix(1, dim, 3);
    Matrix b = randomMatrix(1, dim, 4);
    for (auto _ : state) {
        float d = l2sq(a.row(0), b.row(0));
        benchmark::DoNotOptimize(d);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * dim);
}
BENCHMARK(BM_L2Distance)->Arg(96)->Arg(256)->Arg(1024);

void
BM_TopKMin(benchmark::State &state)
{
    std::size_t n = static_cast<std::size_t>(state.range(0));
    sim::Rng rng(5);
    std::vector<float> vals(n);
    for (auto &v : vals)
        v = static_cast<float>(rng.nextDouble());
    for (auto _ : state) {
        auto idx = topKMin(vals, 10);
        benchmark::DoNotOptimize(idx.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n));
}
BENCHMARK(BM_TopKMin)->Arg(1000)->Arg(4096)->Arg(100000);

void
BM_ShortlistRetrieve(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 20'000;
    dc.dim = 96;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = static_cast<std::size_t>(state.range(0));
    kc.maxIterations = 4;
    InvertedFileIndex idx(ds.vectors(), kc);
    Matrix queries = ds.makeQueries(16, 0.05, 9);
    for (auto _ : state) {
        auto lists = shortlistRetrieve(queries, idx, 8);
        benchmark::DoNotOptimize(lists.data());
    }
}
BENCHMARK(BM_ShortlistRetrieve)->Arg(100)->Arg(1000);

void
BM_Rerank(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 50'000;
    dc.dim = 96;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = 64;
    kc.maxIterations = 4;
    InvertedFileIndex idx(ds.vectors(), kc);
    Matrix queries = ds.makeQueries(16, 0.05, 9);
    auto lists = shortlistRetrieve(queries, idx, 8);
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates =
        static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto res = rerank(queries, ds.vectors(), idx, lists, rc);
        benchmark::DoNotOptimize(res.data());
    }
}
BENCHMARK(BM_Rerank)->Arg(1024)->Arg(4096);

// Single- vs multi-thread variants of the three hot kernels the
// parallel execution layer targets (Arg = thread count). Sizes follow
// the paper's shortlist/rerank shape: 1000 centroids x D=96, 64
// queries, 4096 candidates per query.

void
BM_GemmNtThreads(benchmark::State &state)
{
    std::size_t batch = 64, dim = 96, centroids = 1000;
    Matrix q = randomMatrix(batch, dim, 1);
    Matrix c = randomMatrix(centroids, dim, 2);
    Matrix out(batch, centroids);
    parallel::ParallelConfig pc{
        static_cast<unsigned>(state.range(0))};
    for (auto _ : state) {
        gemmNt(q, c, out, pc);
        benchmark::DoNotOptimize(out.flat().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * batch *
        centroids * dim);
}
BENCHMARK(BM_GemmNtThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void
BM_RerankThreads(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 50'000;
    dc.dim = 96;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = 64;
    kc.maxIterations = 4;
    InvertedFileIndex idx(ds.vectors(), kc);
    Matrix queries = ds.makeQueries(64, 0.05, 9);
    auto lists = shortlistRetrieve(queries, idx, 8);
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    rc.parallel = parallel::ParallelConfig{
        static_cast<unsigned>(state.range(0))};
    for (auto _ : state) {
        auto res = rerank(queries, ds.vectors(), idx, lists, rc);
        benchmark::DoNotOptimize(res.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(queries.rows() * rc.maxCandidates));
}
BENCHMARK(BM_RerankThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/**
 * ThreadPool::run's wake latency (Arg = participants, caller
 * included). Each run has one chunk per participant, and every chunk
 * spins until all participants have claimed theirs, so a run returns
 * only after the slowest woken worker's first claim: the time per
 * iteration is the notify-to-first-claim latency of the last worker
 * to wake, plus one join. A private pool keeps other benches' runs
 * out of it.
 */
void
BM_PoolWake(benchmark::State &state)
{
    const auto threads = static_cast<unsigned>(state.range(0));
    parallel::ThreadPool pool(threads - 1);
    std::atomic<unsigned> claimed{0};
    const std::function<void(std::size_t)> task = [&](std::size_t) {
        claimed.fetch_add(1, std::memory_order_acq_rel);
        while (claimed.load(std::memory_order_acquire) < threads)
            std::this_thread::yield();
    };
    for (auto _ : state) {
        claimed.store(0, std::memory_order_relaxed);
        pool.run(threads, threads, task);
        benchmark::DoNotOptimize(claimed);
    }
}
BENCHMARK(BM_PoolWake)->Arg(2)->Arg(4)->UseRealTime();

void
BM_KMeansThreads(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 20'000;
    dc.dim = 32;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = 32;
    kc.maxIterations = 2;
    kc.parallel = parallel::ParallelConfig{
        static_cast<unsigned>(state.range(0))};
    for (auto _ : state) {
        auto res = kMeans(ds.vectors(), kc);
        benchmark::DoNotOptimize(res.inertia);
    }
}
BENCHMARK(BM_KMeansThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Backend-pinned kernel benchmarks at the paper's feature dimension
// (D=96), single thread. The scalar/avx2 pair for each benchmark
// measures the SIMD layer's speedup in isolation from threading;
// bench/run_micro.sh records the ratios in BENCH_micro.json. An avx2
// variant on a host without AVX2+FMA reports an error and is skipped.

bool
pinBackendOrSkip(benchmark::State &state, simd::Choice choice)
{
    if (choice == simd::Choice::avx2 &&
        !simd::supported(simd::Backend::avx2)) {
        state.SkipWithError("avx2 not supported on this host");
        return false;
    }
    return true;
}

void
BM_Dot(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    const simd::Kernels &k = simd::kernels(choice);
    std::size_t dim = 96;
    Matrix a = randomMatrix(1, dim, 3);
    Matrix b = randomMatrix(1, dim, 4);
    for (auto _ : state) {
        float d = k.dot(a.row(0).data(), b.row(0).data(), dim);
        benchmark::DoNotOptimize(d);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * dim);
}
BENCHMARK_CAPTURE(BM_Dot, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_Dot, avx2, simd::Choice::avx2);

void
BM_GemmNtBackend(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    // The shortlist shape: 16 queries x 1000 centroids x D=96.
    std::size_t batch = 16, dim = 96, centroids = 1000;
    Matrix q = randomMatrix(batch, dim, 1);
    Matrix c = randomMatrix(centroids, dim, 2);
    Matrix out(batch, centroids);
    parallel::ParallelConfig pc = parallel::ParallelConfig::serial();
    pc.simd = choice;
    for (auto _ : state) {
        gemmNt(q, c, out, pc);
        benchmark::DoNotOptimize(out.flat().data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * batch *
        centroids * dim);
}
BENCHMARK_CAPTURE(BM_GemmNtBackend, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_GemmNtBackend, avx2, simd::Choice::avx2);

void
BM_RerankBackend(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    // End-to-end rerank (indexed dotIdx scoring + top-K) with the SIMD
    // backend pinned, single thread.
    workload::DatasetConfig dc;
    dc.numVectors = 50'000;
    dc.dim = 96;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = 64;
    kc.maxIterations = 4;
    InvertedFileIndex idx(ds.vectors(), kc);
    Matrix queries = ds.makeQueries(16, 0.05, 9);
    auto lists = shortlistRetrieve(queries, idx, 8);
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = 4096;
    rc.parallel = parallel::ParallelConfig::serial();
    rc.parallel.simd = choice;
    for (auto _ : state) {
        auto res = rerank(queries, ds.vectors(), idx, lists, rc);
        benchmark::DoNotOptimize(res.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(queries.rows() * rc.maxCandidates));
}
BENCHMARK_CAPTURE(BM_RerankBackend, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankBackend, avx2, simd::Choice::avx2);

void
BM_AdcBatch(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    // The compressed rerank inner loop: 4096 candidates at M=32
    // subspaces, scored from one query's ADC table.
    const simd::Kernels &k = simd::kernels(choice);
    const std::size_t n = 4096, m = 32;
    sim::Rng rng(11);
    std::vector<float, simd::AlignedAllocator<float, 64>> lut(
        m * simd::kAdcLutStride);
    for (auto &v : lut)
        v = static_cast<float>(rng.nextDouble());
    std::vector<std::uint8_t> codes(n * m);
    for (auto &c : codes)
        c = static_cast<std::uint8_t>(rng.nextUInt(256));
    std::vector<float> out(n);
    for (auto _ : state) {
        k.adcBatch(lut.data(), simd::kAdcLutStride, codes.data(), n,
                   m, out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n * m);
}
BENCHMARK_CAPTURE(BM_AdcBatch, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_AdcBatch, avx2, simd::Choice::avx2);

void
BM_AdcShuffle(benchmark::State &state, simd::Choice choice)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    // The 4-bit FastScan counterpart of BM_AdcBatch at the same
    // shape (4096 candidates, M=32): register-resident u8 tables,
    // 32 lookups per shuffle. run_micro.sh gates on the
    // avx2-shuffle / avx2-gather ratio.
    const simd::Kernels &k = simd::kernels(choice);
    const std::size_t n = 4096, m = 32;
    sim::Rng rng(11);
    std::vector<std::uint8_t, simd::AlignedAllocator<std::uint8_t, 64>>
        lut(m * simd::kAdc4LutStride);
    for (auto &v : lut)
        v = static_cast<std::uint8_t>(rng.nextUInt(256));
    std::vector<std::uint8_t> codes(n * simd::adc4CodeBytes(m));
    for (auto &c : codes)
        c = static_cast<std::uint8_t>(rng.nextUInt(256));
    std::vector<std::uint8_t, simd::AlignedAllocator<std::uint8_t, 64>>
        blocks(simd::adc4PackedBytes(n, m));
    simd::adc4Pack(codes.data(), n, m, blocks.data());
    std::vector<float> out(n);
    for (auto _ : state) {
        k.adcBatch4(lut.data(), blocks.data(), n, m, 0.03125f, 1.5f,
                    out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * n * m);
}
BENCHMARK_CAPTURE(BM_AdcShuffle, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_AdcShuffle, avx2, simd::Choice::avx2);

/**
 * DRAM-resident fixture for the fused shortlist-scan kernels: one
 * query streamed against 1M centroids at D=96. The fp32 stream is
 * 402 MB and the packed-half copy 201 MB — both far beyond any LLC,
 * so the benchmark measures the memory-bound regime the paper's scan
 * lives in and the fp16 win comes from the halved stream, exactly
 * the effect the timing model's centroidBytesPerDim=2 charges for.
 */
struct ShortlistScanFixture
{
    static constexpr std::size_t kM = 1u << 20;
    static constexpr std::size_t kD = 96;
    static constexpr std::size_t kBlock = 4096;

    Matrix query;
    Matrix cents;
    std::vector<std::uint16_t,
                simd::AlignedAllocator<std::uint16_t, 64>>
        centsH;
    std::vector<float> cnorm;
    std::vector<float> cnormH;
    float qn = 0;

    ShortlistScanFixture()
        : query(randomMatrix(1, kD, 21)),
          cents(randomMatrix(kM, kD, 22)),
          centsH(kM * kD),
          cnorm(rowNormsSq(cents)),
          cnormH(kM)
    {
        simd::halfFromFloats(cents.flat().data(),
                             cents.flat().size(), centsH.data());
        for (std::size_t c = 0; c < kM; ++c)
            cnormH[c] = simd::halfNormSq(centsH.data() + c * kD, kD);
        qn = normSq(query.row(0));
    }
};

const ShortlistScanFixture &
shortlistScanFixture()
{
    static ShortlistScanFixture f;
    return f;
}

/**
 * The blocked fused scan exactly as shortlistRetrieve runs it (one
 * kColBlock-wide shortlistScore call per block, distances landing in
 * a reused L2-sized tile), minus the top-K so the stream is the only
 * variable. run_micro.sh gates fp16_avx2 >= 1.5x fp32_avx2 — the
 * host-measurable counterpart of the modeled 2.13x scan speedup.
 */
void
BM_ShortlistScan(benchmark::State &state, simd::Choice choice,
                 ShortlistPrecision precision)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    const ShortlistScanFixture &f = shortlistScanFixture();
    const simd::Kernels &k = simd::kernels(choice);
    const bool fp16 = precision == ShortlistPrecision::Fp16;
    std::vector<float, simd::AlignedAllocator<float, 64>> dist(
        ShortlistScanFixture::kBlock);
    for (auto _ : state) {
        for (std::size_t j0 = 0; j0 < ShortlistScanFixture::kM;
             j0 += ShortlistScanFixture::kBlock) {
            const std::size_t mb = std::min(
                ShortlistScanFixture::kBlock,
                ShortlistScanFixture::kM - j0);
            if (fp16) {
                k.shortlistScoreF16(
                    f.query.row(0).data(), &f.qn, 1,
                    f.centsH.data() + j0 * ShortlistScanFixture::kD,
                    f.cnormH.data() + j0, mb,
                    ShortlistScanFixture::kD, dist.data(),
                    ShortlistScanFixture::kBlock);
            } else {
                k.shortlistScore(
                    f.query.row(0).data(), &f.qn, 1,
                    f.cents.row(j0).data(), f.cnorm.data() + j0, mb,
                    ShortlistScanFixture::kD, dist.data(),
                    ShortlistScanFixture::kBlock);
            }
            benchmark::DoNotOptimize(dist.data());
        }
    }
    // Items = centroid dims scanned; the streamed bytes per item are
    // centroidBytesPerDim(precision).
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(ShortlistScanFixture::kM *
                                  ShortlistScanFixture::kD));
}
BENCHMARK_CAPTURE(BM_ShortlistScan, fp32_scalar, simd::Choice::scalar,
                  ShortlistPrecision::Fp32);
BENCHMARK_CAPTURE(BM_ShortlistScan, fp32_avx2, simd::Choice::avx2,
                  ShortlistPrecision::Fp32);
BENCHMARK_CAPTURE(BM_ShortlistScan, fp16_scalar, simd::Choice::scalar,
                  ShortlistPrecision::Fp16);
BENCHMARK_CAPTURE(BM_ShortlistScan, fp16_avx2, simd::Choice::avx2,
                  ShortlistPrecision::Fp16);

/**
 * Near-storage-scale fixture for the PQ-vs-exact rerank comparison:
 * the float database (800k x D=96 = 307 MB) deliberately exceeds
 * the LLC, so the exact path's candidate-row gathers go to DRAM —
 * the regime the paper's rerank stage lives in (Table I classifies
 * it storage-bandwidth-bound) — while ADC reads M=32 code bytes per
 * candidate against an L1-resident table. BM_RerankBackend keeps the
 * small cache-resident fixture for kernel-level tracking; codebooks
 * here train on a 64k-row sample to bound one-time setup cost.
 */
struct PqCompareFixture
{
    workload::Dataset ds;
    KMeansResult km;
    InvertedFileIndex idx;  // 8-bit codes
    InvertedFileIndex idx4; // 4-bit packed codes, same clustering
    Matrix queries;
    ShortLists lists;

    PqCompareFixture()
        : ds([] {
              workload::DatasetConfig dc;
              dc.numVectors = 1'000'000;
              dc.dim = 96;
              return dc;
          }()),
          km(kMeans(ds.vectors(),
                    [] {
                        KMeansConfig kc;
                        kc.clusters = 256;
                        kc.maxIterations = 2;
                        return kc;
                    }())),
          idx(km.centroids, km.assignment, ds.vectors()),
          idx4(std::move(km.centroids), std::move(km.assignment),
               ds.vectors()),
          queries(ds.makeQueries(256, 0.05, 9))
    {
        std::size_t sample_rows =
            std::min<std::size_t>(65'536, ds.size());
        Matrix sample(sample_rows, ds.vectors().cols());
        std::copy_n(ds.vectors().flat().data(),
                    sample_rows * ds.vectors().cols(),
                    sample.flat().data());
        PqConfig pc;
        pc.enabled = true;
        pc.m = 32;
        pc.trainIterations = 4;
        auto cb = std::make_shared<PqCodebook>(
            PqCodebook::train(sample, pc));
        idx.attachPq(cb, cb->encodeAll(ds.vectors()));
        pc.bits = 4;
        auto cb4 = std::make_shared<PqCodebook>(
            PqCodebook::train(sample, pc));
        idx4.attachPq(cb4, cb4->encodeAll(ds.vectors()));
        // Identical centroids -> identical shortlists for both.
        lists = shortlistRetrieve(queries, idx, 8);
    }
};

const PqCompareFixture &
pqCompareFixture()
{
    static PqCompareFixture f;
    return f;
}

/**
 * PQ-vs-exact on the shared fixture; refine < 0 = exact rerank. The
 * eight probed clusters hold about 31k vectors on average, so every
 * query scores exactly @p maxCandidates candidates.
 */
void
rerankPqBench(benchmark::State &state, simd::Choice choice,
              std::ptrdiff_t refine, bool fourBit = false,
              std::size_t maxCandidates = 4096)
{
    if (!pinBackendOrSkip(state, choice))
        return;
    const PqCompareFixture &f = pqCompareFixture();
    const InvertedFileIndex &index = fourBit ? f.idx4 : f.idx;
    RerankConfig rc;
    rc.k = 10;
    rc.maxCandidates = maxCandidates;
    rc.parallel = parallel::ParallelConfig::serial();
    rc.parallel.simd = choice;
    if (refine >= 0) {
        rc.usePq = true;
        rc.pqRefine = static_cast<std::size_t>(refine);
    }
    for (auto _ : state) {
        auto res = rerank(f.queries, f.ds.vectors(), index, f.lists,
                          rc);
        benchmark::DoNotOptimize(res.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(f.queries.rows() *
                                  rc.maxCandidates));
}

void
BM_RerankPqExact(benchmark::State &state, simd::Choice choice)
{
    rerankPqBench(state, choice, -1);
}
BENCHMARK_CAPTURE(BM_RerankPqExact, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankPqExact, avx2, simd::Choice::avx2);

void
BM_RerankPq(benchmark::State &state, simd::Choice choice)
{
    rerankPqBench(state, choice, 0);
}
BENCHMARK_CAPTURE(BM_RerankPq, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankPq, avx2, simd::Choice::avx2);

void
BM_RerankPq4(benchmark::State &state, simd::Choice choice)
{
    rerankPqBench(state, choice, 0, /*fourBit=*/true);
}
BENCHMARK_CAPTURE(BM_RerankPq4, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankPq4, avx2, simd::Choice::avx2);

void
BM_RerankPqRefine(benchmark::State &state, simd::Choice choice)
{
    rerankPqBench(state, choice, 128);
}
BENCHMARK_CAPTURE(BM_RerankPqRefine, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankPqRefine, avx2, simd::Choice::avx2);

/**
 * 4-bit codes with refine 256 over 368 candidates per query, the
 * shape the openloop-onchip engine runs (about 369 candidates), where
 * the refine cut keeps most of what the ADC scan scored.
 */
void
BM_RerankPq4Refine(benchmark::State &state, simd::Choice choice)
{
    rerankPqBench(state, choice, 256, /*fourBit=*/true,
                  /*maxCandidates=*/368);
}
BENCHMARK_CAPTURE(BM_RerankPq4Refine, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankPq4Refine, avx2, simd::Choice::avx2);

/**
 * The small-budget sibling of BM_RerankPq4Refine: refine 10 over the
 * same 368 candidates, so the refine cut keeps about 3% of them.
 */
void
BM_RerankPq4RefineSmall(benchmark::State &state, simd::Choice choice)
{
    rerankPqBench(state, choice, 10, /*fourBit=*/true,
                  /*maxCandidates=*/368);
}
BENCHMARK_CAPTURE(BM_RerankPq4RefineSmall, scalar, simd::Choice::scalar);
BENCHMARK_CAPTURE(BM_RerankPq4RefineSmall, avx2, simd::Choice::avx2);

/** The phases of one engine batch, in the order CbirService runs them. */
enum class EnginePhase
{
    norms,
    shortlistScan,
    topNprobe,
    lutBuild,
    adcScan,
    refineCut,
    refineDots,
    finalTopK,
};

using AlignedFloats = std::vector<float, simd::AlignedAllocator<float, 64>>;
using AlignedBytes =
    std::vector<std::uint8_t, simd::AlignedAllocator<std::uint8_t, 64>>;

/**
 * The perfbench openloop-onchip engine, one thread: 20k x 96 vectors,
 * 1024 clusters, an fp16 shortlist probing 16, 4-bit PQ with m = 48
 * and exact refine of 256, top 10. Its 16-query batches of Zipf
 * queries (s = 2) are split into the phases CbirService::query runs,
 * each stage's inputs precomputed by the stage before, so every
 * BM_EngineBatchPhase row times one phase of one batch. The fixture
 * checks that the phases reproduce the engine's answers.
 */
struct EngineBatchFixture
{
    static constexpr std::size_t kBatch = 16;
    static constexpr std::size_t kBatches = 32;

    core::CbirService svc;
    const simd::Kernels &kern = simd::kernels(simd::Choice::autoDetect);
    std::vector<Matrix> batches;
    /** Per batch. */
    std::vector<std::vector<float>> qnorms;
    std::vector<AlignedFloats> tiles;
    std::vector<ShortLists> lists;
    /** Per query (batch * kBatch + row). */
    std::vector<AlignedBytes> luts;
    std::vector<PqCodebook::AdcQuantParams> quant;
    std::vector<std::vector<std::uint32_t>> ids;
    std::vector<AlignedFloats> adc;
    std::vector<std::vector<std::uint32_t>> survivors;
    std::vector<AlignedFloats> exact;
    /** Scratch. */
    AlignedFloats lutRows;
    std::vector<std::uint32_t> cutScratch;
    TopKMin top;

    static core::CbirService::Config
    config()
    {
        core::CbirService::Config e;
        e.parallel = parallel::ParallelConfig::serial();
        e.kmeans.parallel = e.parallel;
        e.kmeans.maxIterations = 6;
        e.topK = 10;
        e.maxCandidates = 4096;
        e.dataset.numVectors = 20'000;
        e.kmeans.clusters = 1024;
        e.nprobe = 16;
        e.shortlistPrecision = ShortlistPrecision::Fp16;
        e.pq.enabled = true;
        e.pq.bits = 4;
        e.pq.m = 48;
        e.pq.refine = 256;
        return e;
    }

    EngineBatchFixture()
        : svc(config()), qnorms(kBatches), tiles(kBatches),
          lists(kBatches), luts(kBatches * kBatch),
          quant(kBatches * kBatch), ids(kBatches * kBatch),
          adc(kBatches * kBatch), survivors(kBatches * kBatch),
          exact(kBatches * kBatch),
          lutRows(svc.index().pqCodebook().lutFloats()),
          top(svc.config().topK)
    {
        const Matrix q = svc.dataset().makeQueriesZipf(
            kBatches * kBatch, 0.5, 601, 2.0);
        for (std::size_t b = 0; b < kBatches; ++b) {
            Matrix batch(kBatch, q.cols());
            std::copy_n(q.row(b * kBatch).data(), kBatch * q.cols(),
                        batch.flat().data());
            batches.push_back(std::move(batch));
        }
        for (std::size_t b = 0; b < kBatches; ++b) {
            for (int p = 0; p <= static_cast<int>(EnginePhase::finalTopK);
                 ++p)
                run(static_cast<EnginePhase>(p), b);
            const RerankResults want = svc.query(batches[b]);
            for (std::size_t r = 0; r < kBatch; ++r) {
                if (answer(b * kBatch + r) != want[r]) {
                    std::fprintf(stderr, "EngineBatchFixture: phases "
                                         "disagree with the engine\n");
                    std::abort();
                }
            }
        }
    }

    std::vector<Neighbor>
    answer(std::size_t i)
    {
        top.clear();
        top.consider(exact[i], survivors[i]);
        std::vector<Neighbor> out;
        for (const TopKMin::Entry &e : top.sorted())
            out.push_back({e.index, e.value});
        return out;
    }

    /** Run phase @p p of batch @p b. */
    void
    run(EnginePhase p, std::size_t b)
    {
        const InvertedFileIndex &index = svc.index();
        const PqCodebook &cb = index.pqCodebook();
        const core::CbirService::Config &cfg = svc.config();
        const Matrix &batch = batches[b];
        const std::size_t m = index.centroids().rows();
        const std::size_t d = batch.cols();
        switch (p) {
        case EnginePhase::norms:
            qnorms[b] = rowNormsSq(batch, cfg.parallel);
            return;
        case EnginePhase::shortlistScan:
            tiles[b].resize(kBatch * m);
            kern.shortlistScoreF16(batch.row(0).data(), qnorms[b].data(),
                                   kBatch, index.centroidsF16().data(),
                                   index.centroidNormsSqF16().data(), m,
                                   d, tiles[b].data(), m);
            return;
        case EnginePhase::topNprobe: {
            lists[b].resize(kBatch);
            TopKMin sel(cfg.nprobe);
            for (std::size_t r = 0; r < kBatch; ++r) {
                sel.consider({tiles[b].data() + r * m, m}, 0);
                lists[b][r] = sel.finish();
            }
            return;
        }
        default:
            break;
        }
        for (std::size_t r = 0; r < kBatch; ++r) {
            const std::size_t i = b * kBatch + r;
            const std::span<const float> query = batch.row(r);
            switch (p) {
            case EnginePhase::lutBuild:
                luts[i].resize(cb.numSubspaces() * simd::kAdc4LutStride);
                quant[i] = cb.adcTable4(query, luts[i].data(), lutRows);
                break;
            case EnginePhase::adcScan:
                // rerank's budgeted walk of the probed clusters.
                ids[i].clear();
                adc[i].clear();
                for (std::uint32_t c : lists[b][r]) {
                    const std::size_t base = ids[i].size();
                    if (base >= cfg.maxCandidates)
                        break;
                    const std::size_t take =
                        std::min(index.cluster(c).size(),
                                 cfg.maxCandidates - base);
                    if (take == 0)
                        continue;
                    ids[i].insert(ids[i].end(), index.cluster(c).begin(),
                                  index.cluster(c).begin() +
                                      static_cast<std::ptrdiff_t>(take));
                    adc[i].resize(base + take);
                    kern.adcBatch4(luts[i].data(),
                                   index.clusterPackedCodes(c).data(),
                                   take, cb.numSubspaces(), quant[i].scale,
                                   quant[i].bias, adc[i].data() + base);
                }
                break;
            case EnginePhase::refineCut:
                survivors[i] = ids[i];
                cutNearest(survivors[i], adc[i],
                           std::max<std::size_t>(cfg.topK, cfg.pq.refine),
                           cutScratch);
                break;
            case EnginePhase::refineDots: {
                const std::vector<std::uint32_t> &sv = survivors[i];
                const std::span<const float> norms = index.vectorNormsSq();
                exact[i].resize(sv.size());
                kern.dotIdx(query.data(),
                            svc.dataset().vectors().flat().data(),
                            sv.data(), sv.size(), d, exact[i].data());
                const float qn = kern.normSq(query.data(), d);
                for (std::size_t j = 0; j < sv.size(); ++j) {
                    const float dist =
                        qn + norms[sv[j]] - 2.0f * exact[i][j];
                    exact[i][j] = std::max(dist, 0.0f);
                }
                break;
            }
            case EnginePhase::finalTopK:
                top.clear();
                top.consider(exact[i], survivors[i]);
                benchmark::DoNotOptimize(top.sorted().data());
                break;
            default:
                break;
            }
        }
    }
};

EngineBatchFixture &
engineBatchFixture()
{
    static EngineBatchFixture f;
    return f;
}

/**
 * One phase of one 16-query openloop-onchip batch per iteration,
 * cycling over the fixture's 32 batches. The rows sum to the host
 * time of a batch, and DESIGN's per-phase tables come from them.
 */
void
BM_EngineBatchPhase(benchmark::State &state, EnginePhase phase)
{
    EngineBatchFixture &f = engineBatchFixture();
    std::size_t b = 0;
    for (auto _ : state) {
        f.run(phase, b);
        b = (b + 1) % EngineBatchFixture::kBatches;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            EngineBatchFixture::kBatch);
}
BENCHMARK_CAPTURE(BM_EngineBatchPhase, norms, EnginePhase::norms);
BENCHMARK_CAPTURE(BM_EngineBatchPhase, shortlist_scan,
                  EnginePhase::shortlistScan);
BENCHMARK_CAPTURE(BM_EngineBatchPhase, top_nprobe, EnginePhase::topNprobe);
BENCHMARK_CAPTURE(BM_EngineBatchPhase, lut_build, EnginePhase::lutBuild);
BENCHMARK_CAPTURE(BM_EngineBatchPhase, adc_scan, EnginePhase::adcScan);
BENCHMARK_CAPTURE(BM_EngineBatchPhase, refine_cut, EnginePhase::refineCut);
BENCHMARK_CAPTURE(BM_EngineBatchPhase, refine_dots,
                  EnginePhase::refineDots);
BENCHMARK_CAPTURE(BM_EngineBatchPhase, final_top_k, EnginePhase::finalTopK);

/**
 * Schedule/run/deschedule mix modeled on GAM status polling: waves
 * of events are scheduled at pseudo-random future ticks, half of
 * each wave is cancelled and re-armed (a wrong runtime estimate),
 * then the queue drains. Items processed = events executed, so the
 * benchmark reports DES events/sec.
 */
void
BM_EventQueue(benchmark::State &state)
{
    const int pollers = 256;
    const int waves = 64;
    std::int64_t total_executed = 0;
    for (auto _ : state) {
        sim::EventQueue q;
        sim::Rng rng(42);
        std::uint64_t executed = 0;
        std::vector<std::uint64_t> ids;
        ids.reserve(pollers);
        for (int wave = 0; wave < waves; ++wave) {
            ids.clear();
            for (int p = 0; p < pollers; ++p) {
                ids.push_back(q.schedule(
                    q.now() + 1 + rng.nextUInt(1000),
                    [&executed] { ++executed; }));
            }
            for (int p = 0; p < pollers; p += 2) {
                if (q.deschedule(ids[p])) {
                    q.schedule(q.now() + 1 + rng.nextUInt(1000),
                               [&executed] { ++executed; });
                }
            }
            while (!q.empty())
                q.runOne();
        }
        benchmark::DoNotOptimize(executed);
        total_executed += static_cast<std::int64_t>(executed);
    }
    state.SetItemsProcessed(total_executed);
}
BENCHMARK(BM_EventQueue);

/**
 * The simulator's own host speed: one open-loop OnChipOnly stream of
 * 300 requests at 400 req/s through QueryService on the default
 * scale. Items processed = simulated requests, so the rate is
 * simulated requests per host second.
 */
void
BM_OnChipServiceStream(benchmark::State &state)
{
    sim::setQuiet(true);
    service::ServiceConfig cfg;
    cfg.totalRequests = 300;
    cfg.arrival.ratePerSec = 400;
    cfg.sloLatency = 150 * sim::tickPerMs;
    cfg.formTimeout = 4 * sim::tickPerMs;
    cfg.initialLatencyEstimate = 10 * sim::tickPerMs;
    for (auto _ : state) {
        core::ReachSystem sys;
        service::QueryService svc(sys, cbir::ScaleConfig{},
                                  core::Mapping::OnChipOnly, cfg);
        service::ServiceResult r = svc.run();
        benchmark::DoNotOptimize(r.makespan);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * cfg.totalRequests));
}
BENCHMARK(BM_OnChipServiceStream);

/**
 * The Figure-13 sweep (all four mapping options, latency +
 * throughput runs) through the parallel sweep runner at Arg(0)
 * concurrent jobs. Wall-clock vs --jobs for the figure benches;
 * items processed = simulators run.
 */
void
BM_Fig13SweepJobs(benchmark::State &state)
{
    sim::setQuiet(true);
    bench::SweepOptions opt;
    opt.jobs = static_cast<unsigned>(state.range(0));
    const core::Mapping mappings[4] = {core::Mapping::OnChipOnly,
                                       core::Mapping::NearMemOnly,
                                       core::Mapping::NearStorOnly,
                                       core::Mapping::Reach};
    for (auto _ : state) {
        auto makespans =
            bench::runSweep(8, opt, [&](std::size_t i) {
                cbir::CbirWorkloadModel model{cbir::ScaleConfig{}};
                core::ReachSystem sys{core::SystemConfig{}};
                core::CbirDeployment dep(sys, model, mappings[i / 2]);
                return dep.run(i % 2 == 0 ? 1 : 12).makespan;
            });
        benchmark::DoNotOptimize(makespans.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_Fig13SweepJobs)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/**
 * k-means++ seeding alone on the perfbench query-exact index build
 * (60k x 96, K = 192): no Lloyd iteration, one thread.
 */
void
BM_KMeansSeeding(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 60'000;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = 192;
    kc.maxIterations = 0;
    kc.parallel = parallel::ParallelConfig{1};
    for (auto _ : state) {
        auto res = kMeans(ds.vectors(), kc);
        benchmark::DoNotOptimize(res.centroids.flat().data());
    }
}
BENCHMARK(BM_KMeansSeeding);

void
BM_KMeansIteration(benchmark::State &state)
{
    workload::DatasetConfig dc;
    dc.numVectors = 5'000;
    dc.dim = 32;
    workload::Dataset ds(dc);
    KMeansConfig kc;
    kc.clusters = static_cast<std::size_t>(state.range(0));
    kc.maxIterations = 1;
    for (auto _ : state) {
        auto res = kMeans(ds.vectors(), kc);
        benchmark::DoNotOptimize(res.inertia);
    }
}
BENCHMARK(BM_KMeansIteration)->Arg(16)->Arg(64);

} // namespace

BENCHMARK_MAIN();
