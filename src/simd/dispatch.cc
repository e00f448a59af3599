/**
 * @file
 * Backend detection and resolution. CPU capability is probed once
 * with __builtin_cpu_supports (x86/GNU only; everything else reports
 * scalar), REACH_SIMD is parsed once, and unsatisfiable explicit
 * requests degrade to the detected backend with a single stderr
 * warning instead of crashing.
 */

#include "simd/kernels.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace reach::simd
{

namespace
{

bool
cpuHasAvx2Fma()
{
#if REACH_SIMD_HAVE_X86_AVX2
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

bool
cpuHasF16c()
{
#if REACH_SIMD_HAVE_X86_AVX2
    return __builtin_cpu_supports("f16c");
#else
    return false;
#endif
}

/** Test-only pretend-the-CPU-lacks-F16C switch (see kernels.hh). */
bool g_f16cDisabledForTest = false;

/** True when the avx2 table may hand out its F16C fp16 kernels. */
bool
f16cUsable()
{
    static const bool has = cpuHasF16c();
    return has && !g_f16cDisabledForTest;
}

/** REACH_SIMD, parsed once; invalid values warn and mean auto. */
Choice
envChoice()
{
    static const Choice cached = [] {
        const char *env = std::getenv("REACH_SIMD");
        if (env == nullptr || *env == '\0')
            return Choice::autoDetect;
        Choice c;
        if (!parseChoice(env, c)) {
            std::fprintf(stderr,
                         "reach: ignoring invalid REACH_SIMD=%s "
                         "(expected auto|scalar|avx2)\n",
                         env);
            return Choice::autoDetect;
        }
        return c;
    }();
    return cached;
}

void
warnUnsupportedOnce(Backend want, Backend got)
{
    static bool warned = false;
    if (!warned) {
        warned = true;
        std::fprintf(stderr,
                     "reach: SIMD backend '%s' not supported by this "
                     "CPU, falling back to '%s'\n",
                     name(want), name(got));
    }
}

} // namespace

bool
supported(Backend b)
{
    switch (b) {
    case Backend::scalar:
        return true;
    case Backend::avx2: {
        static const bool has = cpuHasAvx2Fma();
        return has;
    }
    }
    return false;
}

Backend
detect()
{
    return supported(Backend::avx2) ? Backend::avx2 : Backend::scalar;
}

Backend
resolve(Choice c)
{
    if (c == Choice::autoDetect)
        c = envChoice();
    switch (c) {
    case Choice::autoDetect:
        return detect();
    case Choice::scalar:
        return Backend::scalar;
    case Choice::avx2:
        if (supported(Backend::avx2))
            return Backend::avx2;
        warnUnsupportedOnce(Backend::avx2, detect());
        return detect();
    }
    return detect();
}

const char *
name(Backend b)
{
    switch (b) {
    case Backend::scalar:
        return "scalar";
    case Backend::avx2:
        return "avx2";
    }
    return "?";
}

bool
parseChoice(const char *text, Choice &out)
{
    if (text == nullptr)
        return false;
    if (std::strcmp(text, "auto") == 0) {
        out = Choice::autoDetect;
        return true;
    }
    if (std::strcmp(text, "scalar") == 0) {
        out = Choice::scalar;
        return true;
    }
    if (std::strcmp(text, "avx2") == 0) {
        out = Choice::avx2;
        return true;
    }
    return false;
}

void
adc4Pack(const std::uint8_t *codes, std::size_t n, std::size_t m,
         std::uint8_t *blocks)
{
    const std::size_t rows = adc4CodeBytes(m);
    std::fill(blocks, blocks + adc4PackedBytes(n, m),
              std::uint8_t{0});
    for (std::size_t r = 0; r < n; ++r) {
        std::uint8_t *blk =
            blocks + r / kAdc4BlockCands * adc4BlockBytes(m);
        const std::size_t c = r % kAdc4BlockCands;
        const std::uint8_t *code = codes + r * rows;
        for (std::size_t p = 0; p < rows; ++p)
            blk[p * kAdc4BlockCands + c] = code[p];
    }
}

#if REACH_SIMD_HAVE_X86_AVX2
namespace
{

/**
 * The avx2 table for hosts (or tests) without F16C: every fp32/ADC
 * entry stays avx2, only the fp16 kernel drops to scalar. Built on
 * first use with a one-line note so a missing 2.13x scan speedup is
 * explainable from the log.
 */
const Kernels &
avx2NoF16cKernels()
{
    static const Kernels k = [] {
        std::fprintf(stderr,
                     "reach: CPU lacks F16C, fp16 shortlist kernels "
                     "fall back to scalar (avx2 otherwise)\n");
        Kernels patched = detail::avx2Kernels();
        patched.shortlistScoreF16 =
            detail::scalarKernels().shortlistScoreF16;
        return patched;
    }();
    return k;
}

} // namespace
#endif

const Kernels &
kernels(Backend b)
{
#if REACH_SIMD_HAVE_X86_AVX2
    if (b == Backend::avx2 && supported(Backend::avx2)) {
        if (f16cUsable())
            return detail::avx2Kernels();
        return avx2NoF16cKernels();
    }
#endif
    (void)b;
    return detail::scalarKernels();
}

namespace detail
{

void
setF16cOverrideForTest(bool disable)
{
    g_f16cDisabledForTest = disable;
}

} // namespace detail

} // namespace reach::simd
