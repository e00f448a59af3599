/**
 * @file
 * The CBIR workload model: converts retrieval-scale parameters
 * (database size, dimensionality, centroid count, batch size, ...)
 * into per-stage accelerator WorkUnits and Table-I-style footprints.
 *
 * This is the bridge between the *functional* CBIR layer (which runs
 * at sampled scale) and the *timing* layer (which must see
 * billion-scale traffic): functional code validates the algorithms,
 * and this model scales the byte/op counts to the configured size.
 */

#ifndef REACH_CBIR_WORKLOAD_MODEL_HH
#define REACH_CBIR_WORKLOAD_MODEL_HH

#include <cstdint>

#include "acc/accelerator.hh"
#include "cbir/pq.hh"
#include "cbir/vgg.hh"

namespace reach::cbir
{

/**
 * Memory medium backing the shortlist-scan structures (centroids +
 * cell info). The timing layer translates the choice into the
 * AIM-local link's bandwidth/latency (SystemConfig::aimHbmBw /
 * aimHbmLatency vs the DDR defaults); CoSimulation and the bench
 * sweeps keep the two sides in sync.
 */
enum class ScanPlacement : std::uint8_t { Ddr, Hbm };

/** Scale of the deployed retrieval system (paper §V "CBIR setup"). */
struct ScaleConfig
{
    /** Database vectors; the paper deploys a billion. */
    std::uint64_t databaseVectors = 1'000'000'000;
    /** Feature dimensionality after PCA. */
    std::uint32_t dim = 96;
    /** k-means centroids for the IVF index. */
    std::uint32_t numCentroids = 1000;
    /** Queries per batch. */
    std::uint32_t batchSize = 16;
    /** Clusters retrieved per query (short-list length). */
    std::uint32_t nprobe = 8;
    /** Rerank candidate budget per query (paper: 4096). */
    std::uint32_t rerankCandidates = 4096;
    /** Results returned per query. */
    std::uint32_t topK = 10;
    /** Query image size (VGG16 input). */
    std::uint32_t imageH = 224, imageW = 224, imageC = 3;
    /** Use deep-compressed CNN parameters (11.3 MB vs 552 MB). */
    bool compressedModel = true;
    /**
     * Fraction of dense VGG16 MACs actually executed by the pruned
     * (deep-compressed) network; Han et al. prune VGG16 convolutions
     * to a few percent of dense work.
     */
    double prunedMacFraction = 0.08;
    /** Flash page pulled per randomly-gathered rerank candidate. */
    std::uint32_t flashPageBytes = 4096;
    /**
     * Bytes per inverted-list entry (delta/varint-coded ids plus
     * per-id code metadata); 2.2 B/id puts the billion-scale
     * "centroids + cell info" structure at Table I's ~2.2 GB.
     */
    double cellBytesPerId = 2.2;
    /**
     * Bytes per stored centroid component: 4 keeps the fp32 matrix
     * the shortlist GEMM streams every batch, 2 models an fp16 copy
     * (half the scan traffic; the paper's 96-dim features tolerate
     * half precision in the coarse quantizer, and the exact rerank
     * absorbs any shortlist jitter).
     */
    std::uint32_t centroidBytesPerDim = 4;
    /** Where the shortlist scan structures live (DDR vs HBM). */
    ScanPlacement shortlistPlacement = ScanPlacement::Ddr;

    /**
     * Include the reverse-lookup stage (fetch the top-K images from
     * the image store). The paper describes it but excludes it from
     * its experiments "due to its huge storage requirements"; this
     * reproduction can optionally model it.
     */
    bool includeReverseLookup = false;
    /** Average stored image size (compressed). */
    std::uint32_t avgImageBytes = 200'000;

    /**
     * Product-quantized rerank (mirrors the functional layer's
     * CbirService::Config::pq; CoSimulation keeps the two in sync).
     * When enabled, candidates are scanned as pq.m-byte codes laid
     * out contiguously per cluster — sequential code reads replace
     * the page-granular random gathers — and only the pq.refine
     * exact-refined candidates per query still pull full flash pages.
     */
    PqConfig pq{};
    /**
     * Cluster-major near-storage rerank dataflow, a timing-model-only
     * choice with no functional mirror: with pq.enabled, each
     * distinct probed cluster's code block streams from near-storage
     * once per query batch — scored against every probing query in
     * place by the scan engine — instead of once per probing query;
     * the per-query ADC tables travel to the scan engine instead.
     * Only the traffic accounting changes: the arithmetic and the
     * answers are those of the host's query-major scan. Ignored
     * without pq.enabled.
     */
    bool batchedRerank = false;
    /**
     * Zipf exponent of the probe popularity across clusters, used by
     * the batched-rerank accounting to estimate how many distinct
     * clusters a batch's probes hit. 0 models uniform popularity
     * (every cluster equally likely); production query logs are
     * heavily skewed (s near 1), which is where cross-query block
     * sharing pays.
     */
    double probeZipfS = 0;
};

/**
 * Expected number of distinct clusters hit by @p probes independent
 * draws from a Zipf(@p zipfS) popularity over @p numCentroids
 * clusters (zipfS = 0 -> uniform). Closed-form expectation — a pure
 * function of its arguments, so sweeps stay bitwise deterministic at
 * any --jobs.
 */
double expectedDistinctProbedClusters(std::uint32_t numCentroids,
                                      double zipfS, double probes);

class CbirWorkloadModel
{
  public:
    /** Validates cfg (sim::fatal on a malformed pq block). */
    explicit CbirWorkloadModel(const ScaleConfig &cfg);

    const ScaleConfig &scale() const { return cfg; }

    /**
     * Storage bytes one rerank candidate costs at gather granularity:
     * a full flash page for the exact float pipeline, pqCodeBytes
     * for the PQ scan (codes stream sequentially from per-cluster
     * blocks, so the device reads codes, not pages — half as many at
     * 4 bits as at 8).
     */
    std::uint64_t rerankCandidateBytes() const;

    // ----- Table I footprints -----

    /** CNN model parameters (compressed or raw). */
    std::uint64_t modelParamBytes() const;
    /** Centroids + cell info (inverted lists): the ~2.2 GB row. */
    std::uint64_t centroidAndCellBytes() const;
    /** Raw feature database: the ~355 GB row. */
    std::uint64_t databaseBytes() const;

    std::uint64_t queryImageBytes() const;
    std::uint64_t featureVectorBytes() const;
    /** Average ids per inverted list. */
    std::uint64_t clusterSizeIds() const;

    // ----- Stage work units -----
    // Each returns the work of ONE task. partitions > 1 divides the
    // data (and therefore traffic/ops) across that many instances,
    // which is how near-data levels scale.

    /**
     * Feature extraction of a whole batch (the on-chip batched
     * implementation; parameters SRAM-resident after first load).
     */
    acc::WorkUnit featureExtractionBatch() const;

    /**
     * Feature extraction of a single image (the near-data variant:
     * one image per task, duplicated parameters per instance —
     * paper §VI-B).
     */
    acc::WorkUnit featureExtractionSingle() const;

    /**
     * Short-list retrieval for a batch over 1/partitions of the
     * centroids + cell info (GEMM + broadcast add + partial sort +
     * inverted-list scan).
     */
    acc::WorkUnit shortlistBatch(std::uint32_t partitions = 1) const;

    /**
     * Rerank for a batch over 1/partitions of the candidates: gather
     * candidate vectors (page-granular random reads) and run KNN.
     */
    acc::WorkUnit rerankBatch(std::uint32_t partitions = 1) const;

    /** Table I's image-store footprint (200 TB - 2 PB row). */
    std::uint64_t imageStoreBytes() const;

    /**
     * Reverse lookup for a batch over 1/partitions of the image
     * store: fetch the K result images per query and stream them to
     * the host (Table I: "Very low" compute, pure database access).
     */
    acc::WorkUnit reverseLookupBatch(std::uint32_t partitions = 1)
        const;

  private:
    ScaleConfig cfg;
};

} // namespace reach::cbir

#endif // REACH_CBIR_WORKLOAD_MODEL_HH
