/**
 * @file
 * The software binary16 conversion contract (simd/half.hh): exact
 * half -> float decoding, round-to-nearest-even float -> half
 * encoding (including every directed tie case class), and bitwise
 * agreement between the software decode and the F16C hardware decode
 * across every representable half pattern — the property the fp16
 * shortlist kernels' scalar == avx2 promise rests on.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hh"
#include "simd/aligned.hh"
#include "simd/half.hh"
#include "simd/simd.hh"

using namespace reach;
using simd::floatToHalfRne;
using simd::halfToFloat;

namespace
{

bool
isFiniteHalf(std::uint16_t h)
{
    return (h & 0x7C00u) != 0x7C00u;
}

} // namespace

TEST(Half, DecodeKnownValues)
{
    EXPECT_EQ(halfToFloat(0x0000), 0.0f);
    EXPECT_TRUE(std::signbit(halfToFloat(0x8000)));
    EXPECT_EQ(halfToFloat(0x8000), -0.0f);
    EXPECT_EQ(halfToFloat(0x3C00), 1.0f);
    EXPECT_EQ(halfToFloat(0xC000), -2.0f);
    EXPECT_EQ(halfToFloat(0x7BFF), 65504.0f); // largest finite half
    EXPECT_EQ(halfToFloat(0x0400), 0x1p-14f); // smallest normal
    EXPECT_EQ(halfToFloat(0x0001), 0x1p-24f); // smallest subnormal
    EXPECT_EQ(halfToFloat(0x03FF), 0x3FFp-24f); // largest subnormal
    EXPECT_EQ(halfToFloat(0x7C00),
              std::numeric_limits<float>::infinity());
    EXPECT_EQ(halfToFloat(0xFC00),
              -std::numeric_limits<float>::infinity());
    EXPECT_TRUE(std::isnan(halfToFloat(0x7E00)));
}

TEST(Half, DecodeQuietsSignallingNansLikeVcvtph2ps)
{
    // SNaN payload 1: hardware keeps the payload bits and sets the
    // quiet bit. 0x7C01 -> 0x7FC02000.
    EXPECT_EQ(std::bit_cast<std::uint32_t>(halfToFloat(0x7C01)),
              0x7FC02000u);
    EXPECT_EQ(std::bit_cast<std::uint32_t>(halfToFloat(0xFDAB)),
              0xFFF56000u);
}

TEST(Half, EncodeRoundTripsEveryNonNanPattern)
{
    // halfToFloat is exact, so re-encoding must give back the input
    // bits for every finite pattern and both infinities. (NaNs are
    // excluded: encode canonicalizes payloads to the quiet NaN.)
    for (std::uint32_t p = 0; p < 0x10000u; ++p) {
        const auto h = static_cast<std::uint16_t>(p);
        if (!isFiniteHalf(h) && (h & 0x03FFu) != 0)
            continue; // NaN
        EXPECT_EQ(floatToHalfRne(halfToFloat(h)), h)
            << "pattern 0x" << std::hex << p;
    }
}

TEST(Half, EncodeRoundsTiesToEven)
{
    // Halfway between 1.0 (0x3C00) and 1+2^-10 (0x3C01): even wins.
    EXPECT_EQ(floatToHalfRne(1.0f + 0x1p-11f), 0x3C00);
    // Halfway between 0x3C01 and 0x3C02: rounds up to even.
    EXPECT_EQ(floatToHalfRne(1.0f + 3 * 0x1p-11f), 0x3C02);
    // Just past the ties, rounding must follow the nearer value.
    EXPECT_EQ(floatToHalfRne(std::nextafterf(1.0f + 0x1p-11f, 2.0f)),
              0x3C01);
    EXPECT_EQ(floatToHalfRne(std::nextafterf(1.0f + 0x1p-11f, 0.0f)),
              0x3C00);

    // Subnormal ties: 2^-25 is halfway between 0 and the smallest
    // subnormal; 3 * 2^-25 halfway between 1 and 2 subnormal ulps.
    EXPECT_EQ(floatToHalfRne(0x1p-25f), 0x0000);
    EXPECT_EQ(floatToHalfRne(-0x1p-25f), 0x8000);
    EXPECT_EQ(floatToHalfRne(3 * 0x1p-25f), 0x0002);
    EXPECT_EQ(floatToHalfRne(std::nextafterf(0x1p-25f, 1.0f)),
              0x0001);

    // Subnormal-to-normal carry: just below 2^-14 rounds up into the
    // smallest normal half.
    EXPECT_EQ(floatToHalfRne(std::nextafterf(0x1p-14f, 0.0f)),
              0x0400);

    // Overflow ties: 65520 is halfway between 65504 (0x7BFF) and the
    // unrepresentable 65536 — RNE picks the even (infinite) side.
    EXPECT_EQ(floatToHalfRne(65520.0f), 0x7C00);
    EXPECT_EQ(floatToHalfRne(std::nextafterf(65520.0f, 0.0f)),
              0x7BFF);
    EXPECT_EQ(floatToHalfRne(-65520.0f), 0xFC00);
    EXPECT_EQ(floatToHalfRne(1e10f), 0x7C00);
}

TEST(Half, EncodeSpecialValues)
{
    EXPECT_EQ(floatToHalfRne(0.0f), 0x0000);
    EXPECT_EQ(floatToHalfRne(-0.0f), 0x8000);
    EXPECT_EQ(floatToHalfRne(std::numeric_limits<float>::infinity()),
              0x7C00);
    EXPECT_EQ(floatToHalfRne(-std::numeric_limits<float>::infinity()),
              0xFC00);
    EXPECT_EQ(floatToHalfRne(std::numeric_limits<float>::quiet_NaN()) &
                  0x7E00,
              0x7E00);
    // Tiny but nonzero floats flush to signed zero under RNE.
    EXPECT_EQ(floatToHalfRne(0x1p-26f), 0x0000);
    EXPECT_EQ(floatToHalfRne(-0x1p-26f), 0x8000);
}

TEST(Half, EncodePicksTheNearestHalfOnRandomInputs)
{
    // Property check: for random floats inside the finite half range
    // the encoded value is at least as close (in double precision) as
    // either neighbouring half.
    sim::Rng rng(42);
    for (int t = 0; t < 20'000; ++t) {
        const float x =
            static_cast<float>(rng.nextGaussian() * 100.0);
        const std::uint16_t h = floatToHalfRne(x);
        if (!isFiniteHalf(h))
            continue;
        const double err =
            std::abs(static_cast<double>(halfToFloat(h)) - x);
        for (const int d : {-1, 1}) {
            const auto n =
                static_cast<std::uint16_t>(h + d);
            // Neighbour arithmetic on the raw bits walks the value
            // line only within one sign; skip wraps and specials.
            if (!isFiniteHalf(n) || (n & 0x8000u) != (h & 0x8000u))
                continue;
            const double nerr =
                std::abs(static_cast<double>(halfToFloat(n)) - x);
            EXPECT_LE(err, nerr)
                << "x=" << x << " h=0x" << std::hex << h;
        }
    }
}

TEST(Half, HalfFromFloatsMatchesScalarEncode)
{
    sim::Rng rng(7);
    std::vector<float> src(257);
    for (auto &v : src)
        v = static_cast<float>(rng.nextGaussian());
    src[0] = 0x1p-25f; // keep one tie and one special in the batch
    src[1] = -std::numeric_limits<float>::infinity();
    std::vector<std::uint16_t> dst(src.size(), 0xDEAD);
    simd::halfFromFloats(src.data(), src.size(), dst.data());
    for (std::size_t i = 0; i < src.size(); ++i)
        EXPECT_EQ(dst[i], floatToHalfRne(src[i])) << "element " << i;
}

TEST(Half, HalfNormSqMatchesF16SelfDotBitwise)
{
    // halfNormSq promises the fp16 kernels' exact lane order; the
    // scalar fp16 dot of a vector with its own decoded floats is
    // that same accumulation, so the two must agree bitwise at every
    // tail length. The dot is read through shortlistScoreF16 with
    // zero norms, which writes 0 - (dot + dot).
    const auto &k = simd::kernels(simd::Backend::scalar);
    const std::size_t kLengths[] = {0, 1, 7, 8, 9, 16, 33, 95, 96, 97};
    for (std::size_t d : kLengths) {
        sim::Rng rng(900 + d);
        std::vector<std::uint16_t> h(d);
        std::vector<float> conv(d);
        for (std::size_t i = 0; i < d; ++i) {
            h[i] = floatToHalfRne(
                static_cast<float>(rng.nextGaussian()));
            conv[i] = halfToFloat(h[i]);
        }
        const float zero = 0.0f;
        float out = -1.0f;
        k.shortlistScoreF16(conv.data(), &zero, 1, h.data(), &zero, 1, d,
                            &out, 1);
        EXPECT_EQ(simd::halfNormSq(h.data(), d), -0.5f * out)
            << "d=" << d;

        // And it is a faithful norm (double-precision reference).
        double ref = 0;
        for (std::size_t i = 0; i < d; ++i)
            ref += static_cast<double>(conv[i]) * conv[i];
        EXPECT_NEAR(simd::halfNormSq(h.data(), d), ref,
                    1e-5 * std::abs(ref) + 1e-6)
            << "d=" << d;
    }
}

/**
 * The keystone of the fp16 bitwise contract: the avx2 decode
 * (VCVTPH2PS inside the fmadd loop) and the software decode agree on
 * every finite half bit pattern. All 63488 finite patterns stream
 * through shortlistScoreF16 (zero norms) as 7936 rows of d=8 — each
 * row sits entirely in the kernels' vector body, so every pattern is
 * decoded by the hardware path on avx2 — against an all-ones query.
 */
TEST(Half, GemmNtF16BackendsAgreeOnEveryFinitePattern)
{
    if (!simd::supported(simd::Backend::avx2))
        GTEST_SKIP() << "no avx2 on this host";
    constexpr std::size_t d = 8;
    std::vector<std::uint16_t, simd::AlignedAllocator<std::uint16_t, 64>>
        pats;
    pats.reserve(63488);
    for (std::uint32_t p = 0; p < 0x10000u; ++p) {
        if (isFiniteHalf(static_cast<std::uint16_t>(p)))
            pats.push_back(static_cast<std::uint16_t>(p));
    }
    ASSERT_EQ(pats.size() % d, 0u);
    const std::size_t m = pats.size() / d;
    const std::vector<float> ones(d, 1.0f);
    const std::vector<float> norms(m, 0.0f);
    const float qn = 0.0f;
    std::vector<float> sc(m, -1.0f), av(m, -2.0f);
    simd::kernels(simd::Backend::scalar)
        .shortlistScoreF16(ones.data(), &qn, 1, pats.data(),
                           norms.data(), m, d, sc.data(), m);
    simd::kernels(simd::Backend::avx2)
        .shortlistScoreF16(ones.data(), &qn, 1, pats.data(),
                           norms.data(), m, d, av.data(), m);
    for (std::size_t j = 0; j < m; ++j) {
        EXPECT_EQ(sc[j], av[j])
            << "pattern row starting 0x" << std::hex << pats[j * d];
    }
}
