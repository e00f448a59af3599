/**
 * @file
 * Internal glue between the dispatcher and the per-backend kernel
 * translation units. REACH_SIMD_HAVE_X86_AVX2 gates everything that
 * needs x86 target attributes / immintrin.h so non-x86 (or non-GNU)
 * builds compile the scalar backend only and dispatch falls back
 * cleanly.
 */

#ifndef REACH_SIMD_KERNELS_HH
#define REACH_SIMD_KERNELS_HH

#include "simd/simd.hh"

#if (defined(__x86_64__) || defined(__i386__)) &&                      \
    (defined(__GNUC__) || defined(__clang__))
#define REACH_SIMD_HAVE_X86_AVX2 1
#else
#define REACH_SIMD_HAVE_X86_AVX2 0
#endif

namespace reach::simd::detail
{

const Kernels &scalarKernels();

#if REACH_SIMD_HAVE_X86_AVX2
const Kernels &avx2Kernels();
#endif

/**
 * Test hook: when @p disable is true, dispatch behaves as if the CPU
 * lacked F16C — the avx2 table hands out the scalar fp16 kernel — even
 * on hosts that have it. Lets the no-F16C fallback path run in unit
 * tests on any machine. Not thread-safe; call before spawning workers.
 */
void setF16cOverrideForTest(bool disable);

} // namespace reach::simd::detail

#endif // REACH_SIMD_KERNELS_HH
