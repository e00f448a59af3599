#!/usr/bin/env bash
# Run the micro_kernels benchmark suite and record the results as
# JSON in BENCH_micro.json at the repository root. The backend-pinned
# pairs (BM_*/scalar vs BM_*/avx2) in that file document the SIMD
# layer's single-thread speedup on the build host.
#
# Usage: bench/run_micro.sh [build-dir] [output-json] [extra args]
#
# The default build links the vendored minibench runner
# (third_party/minibench), which is always compiled Release, so no
# opt-in is needed. With -DREACH_SYSTEM_BENCHMARK=ON and a debug
# system google-benchmark, set REACH_BENCH_ALLOW_DEBUG=1 to record
# the (tainted-tagged) numbers anyway.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
out_json="${2:-${repo_root}/BENCH_micro.json}"

bin="${build_dir}/bench/micro_kernels"
if [[ ! -x "${bin}" ]]; then
    echo "error: ${bin} not built (cmake --build ${build_dir} --target micro_kernels)" >&2
    exit 1
fi

git_sha="$(git -C "${repo_root}" rev-parse HEAD 2>/dev/null || echo unknown)"

"${bin}" \
    --benchmark_out="${out_json}" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.2 \
    --benchmark_context=git_sha="${git_sha}" \
    "${@:3}"

# A debug google-benchmark library inflates per-iteration overhead;
# numbers recorded against it are not comparable across commits.
# Refuse to keep them unless the caller opts in explicitly.
lib_build_type="$(python3 -c '
import json, sys
print(json.load(open(sys.argv[1]))["context"].get("library_build_type", "unknown"))
' "${out_json}" 2>/dev/null || echo unknown)"
if [[ "${lib_build_type}" == "debug" ]]; then
    if [[ "${REACH_BENCH_ALLOW_DEBUG:-0}" != "1" ]]; then
        echo "error: google-benchmark was built as DEBUG" \
             "(library_build_type: debug in ${out_json})." >&2
        echo "Timings are tainted; rebuild the benchmark library in" \
             "Release, or re-run with REACH_BENCH_ALLOW_DEBUG=1 to" \
             "keep the tagged output." >&2
        rm -f "${out_json}"
        exit 1
    fi
    echo "warning: google-benchmark library is a DEBUG build -" \
         "recorded timings are tainted" >&2
fi

echo "wrote ${out_json} (git_sha ${git_sha})"

# Summarise the scalar-vs-avx2 pairs if python3 is around.
if command -v python3 >/dev/null 2>&1; then
    python3 - "${out_json}" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
if data.get("context", {}).get("library_build_type") == "debug":
    print("WARNING: debug google-benchmark library; timings tainted")
times = {}
rates = {}
for b in data.get("benchmarks", []):
    if b.get("run_type") == "iteration" and "error_occurred" not in b:
        times[b["name"]] = b["real_time"]
        rates[b["name"]] = b.get("items_per_second")
for base in sorted({n.rsplit("/", 1)[0] for n in times if "/" in n}):
    s, v = times.get(base + "/scalar"), times.get(base + "/avx2")
    if s and v:
        print(f"{base}: scalar/avx2 speedup {s / v:.2f}x")
# Compressed vs exact rerank on the shared near-storage-scale
# fixture (same backend): the PQ subsystem's headline ratio.
for be in ("scalar", "avx2"):
    exact = times.get(f"BM_RerankPqExact/{be}")
    pq = times.get(f"BM_RerankPq/{be}")
    if exact and pq:
        print(f"BM_RerankPq/{be}: exact/pq speedup {exact / pq:.2f}x")
    # 4-bit ADC with exact refine 256 at the openloop-onchip budget
    # (368 candidates, not 4096): compare candidates per second.
    exact_rate = rates.get(f"BM_RerankPqExact/{be}")
    pq4r_rate = rates.get(f"BM_RerankPq4Refine/{be}")
    if exact_rate and pq4r_rate:
        print(f"BM_RerankPq4Refine/{be}: pq4-refine/exact time per "
              f"candidate {exact_rate / pq4r_rate:.2f}")
# The 4-bit FastScan gate: the register-shuffle ADC kernel must beat
# the 8-bit gather ADC by >= 3x at the same (n=4096, M=32) shape on
# avx2, else the FastScan mode is not earning its second code copy.
gather = times.get("BM_AdcBatch/avx2")
shuffle = times.get("BM_AdcShuffle/avx2")
if gather and shuffle:
    ratio = gather / shuffle
    print(f"BM_AdcShuffle/avx2: {ratio:.2f}x the gather ADC "
          f"(gate: >= 3x)")
    if ratio < 3.0:
        print(f"FAIL: shuffle/gather ADC ratio {ratio:.2f} < 3.0")
        sys.exit(1)
# The fp16 shortlist-scan gate: on the DRAM-resident 1M x 96 stream
# the packed-half scan must beat the fp32 one by >= 1.5x on avx2
# (the memory-bound direction of the modeled 2.13x), else the fp16
# path is not earning its second centroid copy.
t32 = times.get("BM_ShortlistScan/fp32_avx2")
t16 = times.get("BM_ShortlistScan/fp16_avx2")
if t32 and t16:
    ratio = t32 / t16
    print(f"BM_ShortlistScan/avx2: fp16 {ratio:.2f}x the fp32 scan "
          f"(gate: >= 1.5x)")
    if ratio < 1.5:
        print(f"FAIL: fp16/fp32 shortlist scan ratio {ratio:.2f} "
              f"< 1.5")
        sys.exit(1)
# One openloop-onchip engine batch, phase by phase (DESIGN §4u): the
# rows sum to the host time of a 16-query batch.
phases = [(n.split("/", 1)[1], t) for n, t in times.items()
          if n.startswith("BM_EngineBatchPhase/")]
if phases:
    total = sum(t for _, t in phases)
    for name, t in phases:
        print(f"BM_EngineBatchPhase/{name}: {t / 1e3:.1f} us "
              f"({t / total:.0%})")
    print(f"BM_EngineBatchPhase: {total / 1e3:.1f} us per batch")
# Parallel sweep runner wall-clock per job count (1-core hosts show
# no speedup; the row documents the determinism-preserving overhead).
sweep = sorted((int(n.split("/")[1]), t) for n, t in times.items()
               if n.startswith("BM_Fig13SweepJobs/"))
if sweep:
    base = sweep[0][1]
    for jobs, t in sweep:
        print(f"BM_Fig13SweepJobs jobs={jobs}: {t / 1e6:.0f} ms "
              f"({base / t:.2f}x vs jobs=1)")
EOF
fi
